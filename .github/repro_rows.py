"""Cold-solve every cold-solve row of ROADMAP.md's repro table, one line per row.

    python3 .github/repro_rows.py
    python3 .github/repro_rows.py --psd-sweep --warm-override --warm-pairs

Each line names the case, then the status, the iteration count,
SolveReport.reason (``-`` unless the status is NumericalError) and the
wall seconds of the solve.  The rows, with the status each must end in:

- MPC, ``gen_mpc((4, 2), N, seed=0, x0=np.full(4, .5))``, N = 40 and 160:
  Optimal;
- SVM-L2, ``gen_svm_l2(synth_samples(480, 10, seed=0), lam)``,
  lam = 0.02, 0.03, 0.04, 0.05: Optimal;
- SVM-L1, ``gen_svm_l1(synth_samples(480, 10, seed=0), lam)``,
  lam = 0.04, 0.12, 0.175: Optimal;
- the SDP min <C, X> s.t. tr X = 1, X PSD at order 30, with C pinned as
  in ``tests/test_ipm.py::psd_trace_one``: Optimal;
- the QP min 0.5 x2^2 - x1 s.t. x >= 0, which is unbounded below:
  DualInfeasible;
- the log-sum-exp problem of ``tests/test_ipm.py::log_sum_exp`` (k
  variables, p exponential blocks) at (k, p) = (3, 8), (5, 20), (2, 4)
  and (8, 40): Optimal;
- HMCR, ``gen_hmcr(synth_returns(20, 43, 0).window(0, 40), 5e-4, p,
  alpha)``, the benchmark's hmcr-pow instance size, at p = 1.5, 3, 5
  and alpha = 0.8, 0.95: Optimal.

A row that ends in another status gets ``expected <status>`` at the end
of its line, and the script exits 1 after the last row; otherwise it
exits 0.  Iteration counts are printed, not checked: the regression
tests in ``tests/test_ipm.py`` bound them.

With --psd-sweep, the rows are followed by the PSD sweep of ROADMAP.md's
Open repros: one line per cold solve of the SDP above at orders 26 to
34, in the same format.  The order-30 row's family changes status when
the last bits of a solve change, so the sweep shows which orders fail at
this checkout.  It is informational: its statuses never change the exit
code.

With --warm-override, they are followed by Open repros' warm row: the
rebalance-soc reference chain (perfbench/workloads.py, seed 1, built
and read back as the benchmark builds it), member 2 (counted from 0)
cold, then warm-started from member 1's cold optimum with every barrier
block's mu0 from ``warmstart`` scaled by each of WARM_OVERRIDE_FACTORS
through ``overrides``, lambda kept.  Its lines are informational too.

With --warm-pairs, they are followed by Open repros' two warm pairs at
the default mu0, each as one line for the member's cold solve and one
for its warm start from the cold optimum of the member before:

- SVM-L2, ``gen_svm_l2(synth_samples(480, 10, seed=2), lam)`` at
  lam = ``np.linspace(0.01, 0.2, 28)[7]``, warm from ``[6]``;
- frontier, ``gen_portfolio(synth_returns(50, 191, 2).window(0, 191),
  f * max(mean))`` at f = ``np.linspace(0.05, 0.95, 12)[6]``, warm from
  ``[5]``.

Their lines are informational as well.

conepath is imported from ``src/`` of this checkout with one BLAS thread,
as perfbench/run.py imports it.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PSD_SWEEP_ORDERS = range(26, 35)
WARM_OVERRIDE_FACTORS = (1.0, 0.3, 0.1, 0.03, 0.01, 0.001)
LOG_SUM_EXP_SIZES = ((3, 8), (5, 20), (2, 4), (8, 40))
HMCR_ROWS = tuple((p, alpha) for p in (1.5, 3.0, 5.0) for alpha in (0.8, 0.95))


def psd_trace_one(order):
    """min <C, X> s.t. tr X = 1, X PSD; C is tests/test_ipm.py::psd_trace_one's."""
    import numpy as np
    import scipy.sparse as sp
    from conepath.cones import ConeProduct, ConeSpec, svec
    from conepath.ipm import ConicProblem

    rng = np.random.default_rng(0)
    C = rng.standard_normal((order, order))
    dim = order * (order + 1) // 2
    A = sp.vstack([sp.csc_matrix(svec(np.eye(order))[None, :]), -sp.eye(dim)])
    return ConicProblem(
        P=sp.csc_matrix((dim, dim)),
        q=svec(C + C.T),
        A=A,
        b=np.r_[1.0, np.zeros(dim)],
        cones=ConeProduct((ConeSpec.zero(1), ConeSpec.psd_triangle(order))),
    )


def log_sum_exp(k, p):
    """min t s.t. sum u <= 1, u_i >= exp(a_i'w + c_i - t), |w| <= 1; tests/test_ipm.py's."""
    import numpy as np
    import scipy.sparse as sp
    from conepath.cones import ConeProduct, ConeSpec
    from conepath.ipm import ConicProblem

    rng = np.random.default_rng(0)
    a, c = rng.standard_normal((p, k)), rng.standard_normal(p)
    n = k + 1 + p
    rows = [np.r_[np.zeros(k + 1), np.ones(p)][None, :]]
    rows += [np.c_[np.eye(k), np.zeros((k, 1 + p))], np.c_[-np.eye(k), np.zeros((k, 1 + p))]]
    b = [1.0] * (1 + 2 * k)
    for i in range(p):
        # the block (u_i, 1, a_i'w + c_i - t), x >= y exp(z / y)
        r = np.zeros((3, n))
        r[0, k + 1 + i] = -1.0
        r[2, :k] = -a[i]
        r[2, k] = 1.0
        rows.append(r)
        b += [0.0, 1.0, c[i]]
    return ConicProblem(
        P=sp.csc_matrix((n, n)),
        q=np.r_[np.zeros(k), 1.0, np.zeros(p)],
        A=sp.csc_matrix(np.vstack(rows)),
        b=np.array(b),
        cones=ConeProduct((ConeSpec.nonnegative(1 + 2 * k),) + (ConeSpec.exponential(),) * p),
    )


def unbounded_qp():
    """min 0.5 x2^2 - x1 s.t. x >= 0."""
    import numpy as np
    import scipy.sparse as sp
    from conepath.cones import ConeProduct, ConeSpec
    from conepath.ipm import ConicProblem

    return ConicProblem(
        P=sp.diags([0.0, 1.0], format="csc"),
        q=np.array([-1.0, 0.0]),
        A=-sp.eye(2, format="csc"),
        b=np.zeros(2),
        cones=ConeProduct((ConeSpec.nonnegative(2),)),
    )


def rows(api):
    """(label, expected status, builder) per row, in the order of the table."""
    import numpy as np

    gen = api.problems
    samples = lambda: gen.synth_samples(480, 10, seed=0)
    for N in (40, 160):
        yield (
            f"mpc N={N}", "Optimal",
            lambda N=N: gen.gen_mpc((4, 2), N, seed=0, x0=np.full(4, 0.5)),
        )
    for lam in (0.02, 0.03, 0.04, 0.05):
        yield f"svm-l2 lam={lam}", "Optimal", lambda lam=lam: gen.gen_svm_l2(samples(), lam)
    for lam in (0.04, 0.12, 0.175):
        yield f"svm-l1 lam={lam}", "Optimal", lambda lam=lam: gen.gen_svm_l1(samples(), lam)
    yield "sdp order=30", "Optimal", lambda: psd_trace_one(30)
    yield "qp unbounded", "DualInfeasible", unbounded_qp
    for k, p in LOG_SUM_EXP_SIZES:
        yield f"log-sum-exp k={k} p={p}", "Optimal", lambda k=k, p=p: log_sum_exp(k, p)
    returns = lambda: gen.synth_returns(20, 43, 0).window(0, 40)
    for p, alpha in HMCR_ROWS:
        yield (
            f"hmcr p={p:g} alpha={alpha}", "Optimal",
            lambda p=p, alpha=alpha: gen.gen_hmcr(returns(), 5e-4, p, alpha),
        )


def cold_line(api, label, problem):
    """(the row's line, its status) for one cold solve of problem."""
    return solve_line(label, lambda: api.ipm.solve(problem, api.ipm.cold_start(problem)))


def solve_line(label, solve):
    """The row's line for solve(), a call that returns a SolveReport."""
    t0 = time.perf_counter()
    report = solve()
    seconds = time.perf_counter() - t0
    status = report.status.value
    line = f"{label}: {status} it={report.iterations} reason={report.reason or '-'} {seconds:.2f}s"
    return line, status


def warm_override_lines(api):
    """Open repros' warm row: one line for the cold solve, one per mu0 factor."""
    import tempfile

    from perfbench import run
    from perfbench.workloads import WORKLOADS

    ipm, ws_mod = api.ipm, api.warmstart
    with tempfile.TemporaryDirectory() as tmp:
        chain = run.setup(api, WORKLOADS["rebalance-soc"], 1, {}, Path(tmp))[0]
    previous, problem = chain[1], chain[2]
    yield cold_line(api, "rebalance member 2 cold", problem)[0]
    report = ipm.solve(previous, ipm.cold_start(previous))
    prev = ws_mod.PreviousSolution(*report.solution, problem=problem)
    default = ws_mod.warmstart(prev, problem.cones).per_block
    for factor in WARM_OVERRIDE_FACTORS:
        overrides = {k: {"mu0": factor * default[k].mu0} for k, _, _ in problem.cones.barrier_blocks}
        ws = ws_mod.warmstart(prev, problem.cones, overrides=overrides)
        label = f"rebalance member 2 warm mu0 x{factor:g}"
        yield solve_line(label, lambda: ipm.solve(problem, ipm.warm_start(problem, ws)))[0]


def warm_pairs(api):
    """(label, build) per warm pair of Open repros: build(i) is member i of its sweep."""
    import numpy as np

    gen = api.problems
    samples = gen.synth_samples(480, 10, seed=2)
    lams = np.linspace(0.01, 0.2, 28)
    yield "svm-l2 seed=2 lam[7]", lambda i: gen.gen_svm_l2(samples, lams[i])
    returns = gen.synth_returns(50, 191, 2).window(0, 191)
    targets = np.linspace(0.05, 0.95, 12) * np.max(returns.mean)
    yield "frontier seed=2 f[6]", lambda i: gen.gen_portfolio(returns, targets[i])


def warm_pair_lines(api):
    """Per warm pair: one line for member 7 resp. 6 cold, one for it warm from the member before."""
    ipm, ws_mod = api.ipm, api.warmstart
    for (label, build), member in zip(warm_pairs(api), (7, 6)):
        previous, problem = build(member - 1), build(member)
        yield cold_line(api, f"{label} cold", problem)[0]
        report = ipm.solve(previous, ipm.cold_start(previous))
        prev = ws_mod.PreviousSolution(*report.solution, problem=problem)
        ws = ws_mod.warmstart(prev, problem.cones)
        label = f"{label} warm from [{member - 1}]"
        yield solve_line(label, lambda: ipm.solve(problem, ipm.warm_start(problem, ws)))[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--psd-sweep", action="store_true",
        help="also solve the SDP at orders 26-34; informational, never fails",
    )
    parser.add_argument(
        "--warm-override", action="store_true",
        help="also solve the rebalance warm row at each mu0 factor; informational, never fails",
    )
    parser.add_argument(
        "--warm-pairs", action="store_true",
        help="also solve the svm-l2 and frontier warm pairs; informational, never fails",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    api = run.import_conepath()  # sets one BLAS thread before numpy loads
    lost = 0
    for label, expected, build in rows(api):
        line, status = cold_line(api, label, build())
        lost += status != expected
        print(line + ("" if status == expected else f" expected {expected}"), flush=True)
    if args.psd_sweep:
        for order in PSD_SWEEP_ORDERS:
            print(cold_line(api, f"psd sweep order={order}", psd_trace_one(order))[0], flush=True)
    if args.warm_override:
        for line in warm_override_lines(api):
            print(line, flush=True)
    if args.warm_pairs:
        for line in warm_pair_lines(api):
            print(line, flush=True)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
