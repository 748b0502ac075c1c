"""Print how accurately the solver's KKT systems are solved on the benchmark's workloads.

    python3 .github/kkt_residuals.py --seeds 1 2 3
    python3 .github/kkt_residuals.py --seeds 1 --extra 2

Every system ``_KKT.solve`` takes goes through the solver's own
``_KKT._refined``: one solve with the static-pivot factor, then
``ipm.REFINEMENT_STEPS`` refinement steps against K without
regularization.  The script records, per right-hand column and after
each of those steps, the relative residual max|rhs - Kx sol| / max|rhs|.
Each ``_KKT._solve`` call after the first of a refinement takes
rhs - Kx sol, the residual after the step before it, so the script keeps
those arguments and computes only the residual after the last step.
With --extra k it also records k further steps, taken on a copy that the
solver never sees.

One line per workload gives, per step, the 50th, 90th and 99th
percentiles and the largest residual over every column of every system
of every solve at the given seeds.

The solves are the benchmark's own, as in iterate_digest.py:
perfbench/run.py imports conepath from ``src/`` of this checkout and
builds each workload's chains (``import_conepath``, ``setup``), and
``perfbench.driver.run_pass`` solves them.  The solver's arithmetic is
kept, so every iterate is the one an unrecorded run computes; the script
only records data.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUANTILES = (50, 90, 99)


def recording(ipm, extra):
    """Wrap ipm._KKT._refined and _KKT._solve to record residuals; returns the per-step lists."""
    import numpy as np

    steps = [[] for _ in range(ipm.REFINEMENT_STEPS + 1 + extra)]
    solve, refined = ipm._KKT._solve, ipm._KKT._refined
    arguments = []  # of the _solve calls of the current refinement

    def recorded_solve(kkt, rhs):
        arguments.append(rhs)
        return solve(kkt, rhs)

    def recorded_refined(kkt, rhs):
        arguments.clear()
        sol = refined(kkt, rhs)
        residuals = arguments[1:] + [rhs - kkt.Kx @ sol]
        more = sol.copy()
        for _ in range(extra):
            more += solve(kkt, residuals[-1])
            residuals.append(rhs - kkt.Kx @ more)
        scale = np.abs(rhs).max(axis=0)
        for values, res in zip(steps, residuals):
            values.extend(np.atleast_1d(np.abs(res).max(axis=0) / scale).tolist())
        return sol

    ipm._KKT._solve, ipm._KKT._refined = recorded_solve, recorded_refined
    return steps


def summary(name, steps, used):
    import numpy as np

    parts = [f"{name}: columns={len(steps[0])}"]
    for k, values in enumerate(steps):
        q = np.percentile(values, QUANTILES)
        label = f"step{k}" + ("" if k <= used else "*")
        parts.append(
            f"{label} " + " ".join(f"p{p}={v:.1e}" for p, v in zip(QUANTILES, q))
            + f" max={max(values):.1e}"
        )
    return " | ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--extra",
        type=int,
        default=0,
        help="refinement steps past ipm.REFINEMENT_STEPS to record (marked *), not used",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    api = run.import_conepath()  # sets one BLAS thread before numpy loads
    from perfbench import driver
    from perfbench.workloads import WORKLOADS

    steps = recording(api.ipm, args.extra)
    for name, workload in WORKLOADS.items():
        for values in steps:
            values.clear()
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                chains = run.setup(api, workload, seed, {}, Path(tmp))
            driver.run_pass(api, chains, lambda: 1.0)
        print(summary(name, steps, api.ipm.REFINEMENT_STEPS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
