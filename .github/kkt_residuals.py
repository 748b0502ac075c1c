"""Print how accurately the solver's KKT systems are solved on the benchmark's workloads.

    python3 .github/kkt_residuals.py --seeds 1 2 3

Every column ``_KKT.solve`` takes goes through the solver's own
``_KKT._refined``: one solve with the static-pivot factor, in K's order,
then refinement steps against K without regularization until the
residual is at rounding level (``ipm.REFINEMENT_TOLERANCE``), at most
``ipm.REFINEMENT_STEPS`` of them.  The script wraps ``ipm.splu`` so that
each factor records what its ``solve`` returns, and ``_KKT._refined`` so
that, after the solver's call, it solves each column again alone; that
column must equal its part of the solver's result, bit for bit.  From
the alone solve's returns it rebuilds the column's solution after each
step taken, with the solver's own additions, and checks that the last
one is the solution that call returned.  It then records, per step taken, the relative residual
max|rhs - Kx sol| / max|rhs|, where Kx is K minus its regularization in
the original order, built from ``kkt.K``, ``kkt.q`` and ``kkt.signs``.

One line per workload gives how many columns stopped after 0, 1, 2, ...
steps, then, per step, the number of columns that took it and the 50th,
90th and 99th percentiles and the largest of their residuals, and last
the same over every column's final residual, after its last step, over
every column of every solve at the given seeds.

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


class _RecordingFactor:
    """A SuperLU factor whose solve appends each return to returns; everything else delegates."""

    def __init__(self, factor, returns):
        self._factor = factor
        self._returns = returns

    def solve(self, rhs):
        out = self._factor.solve(rhs)
        self._returns.append(out.copy())
        return out

    def __getattr__(self, name):
        return getattr(self._factor, name)


def recording(ipm):
    """Wrap ipm.splu and ipm._KKT._refined; returns (residuals per step, then final residuals,
    and stop counts per step)."""
    import numpy as np
    import scipy.sparse as sp

    steps = [[] for _ in range(ipm.REFINEMENT_STEPS + 2)]  # the last list: final residuals
    stops = [0] * (ipm.REFINEMENT_STEPS + 1)
    returns = []  # of the factor's solves in the current _refined call
    splu, refined = ipm.splu, ipm._KKT._refined
    last = {}  # the last factor seen, held so that it stays that object, and its Kx

    def recorded_splu(*args, **kwargs):
        return _RecordingFactor(splu(*args, **kwargs), returns)

    def recorded_refined(kkt, rhs):
        sol = refined(kkt, rhs)
        if last.get("factor") is not kkt.lu:
            qi = np.argsort(kkt.q)
            K = kkt.K[qi][:, qi] - sp.diags(ipm.REGULARIZATION * kkt.signs)
            last.update(factor=kkt.lu, Kx=K.tocsr())
        Kx = last["Kx"]
        # each column again on its own, which must give the same bits
        for j, column in enumerate([rhs] if rhs.ndim == 1 else [c.copy() for c in rhs.T]):
            returns.clear()
            alone = refined(kkt, column)
            if alone.tobytes() != (sol if rhs.ndim == 1 else sol[:, j]).tobytes():
                raise AssertionError("a column refined alone differs from its solve with the others")
            x = returns[0].copy()
            scale = np.abs(column).max()
            for k, step in enumerate(returns):
                if k:
                    x += step
                at = np.empty_like(x)
                at[kkt.q] = x
                steps[k].append(float(np.abs(column - Kx @ at).max() / scale))
            if at.tobytes() != alone.tobytes():
                raise AssertionError("the rebuilt steps do not give _refined's solution")
            steps[-1].append(steps[len(returns) - 1][-1])
            stops[len(returns) - 1] += 1
        return sol

    ipm.splu, ipm._KKT._refined = recorded_splu, recorded_refined
    return steps, stops


def summary(name, steps, stops):
    import numpy as np

    parts = [f"{name}: columns={len(steps[0])}"]
    parts.append("stopped after " + " ".join(f"{k}={n}" for k, n in enumerate(stops)))
    for k, values in enumerate(steps):
        label = f"step{k}" if k < len(steps) - 1 else "final"
        if not values:
            parts.append(f"{label} n=0")
            continue
        q = np.percentile(values, QUANTILES)
        parts.append(
            f"{label} n={len(values)} " + " ".join(f"p{p}={v:.1e}" for p, v in zip(QUANTILES, q))
            + f" max={max(values):.1e}"
        )
    return " | ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    api = run.import_conepath()  # sets one BLAS thread before numpy loads
    from perfbench import driver
    from perfbench.workloads import WORKLOADS

    steps, stops = recording(api.ipm)
    for name, workload in WORKLOADS.items():
        for values in steps:
            values.clear()
        stops[:] = [0] * len(stops)
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                chains = run.setup(api, workload, seed, {}, Path(tmp))
            driver.run_pass(api, chains, lambda: 1.0)
        print(summary(name, steps, stops), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
