"""Cold-solve every cold-solve row of ROADMAP.md's repro table, one line per row.

    python3 .github/repro_rows.py

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
  DualInfeasible.

A row that ends in another status gets ``expected <status>`` at the end
of its line, and the script exits 1 after the last row; otherwise it
exits 0.  Iteration counts are printed, not checked: the regression
tests in ``tests/test_ipm.py`` bound them.

conepath is imported from ``src/`` of this checkout with one BLAS thread,
as perfbench/run.py imports it.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main():
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    api = run.import_conepath()  # sets one BLAS thread before numpy loads
    lost = 0
    for label, expected, build in rows(api):
        problem = build()
        t0 = time.perf_counter()
        report = api.ipm.solve(problem, api.ipm.cold_start(problem))
        seconds = time.perf_counter() - t0
        status = report.status.value
        lost += status != expected
        print(
            f"{label}: {status} it={report.iterations} "
            f"reason={report.reason or '-'} {seconds:.2f}s"
            + ("" if status == expected else f" expected {expected}"),
            flush=True,
        )
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
