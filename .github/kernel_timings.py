"""Time the cone kernels, untraced, on stacks from the benchmark's workloads.

    python3 .github/kernel_timings.py --repeat 30

For each workload, one cold solve of the first member of its reference
chain (perfbench/workloads.py, seed 1) records every stack of s rows
that ``ipm`` passes to ``barrier_hessian_inverse`` and every stack of z
rows that it passes to ``conjugate_gradient`` and that call accepts.
Each kernel of the cone class of each barrier kind then runs once on
every recorded stack of its side, and that loop is timed with ``timeit``
in each of ``--repeat`` rounds, every kernel once per round.  One line
per workload and kind gives the best loop's microseconds per call:

- on the s stacks: ``gradient``, ``hessian_inverse``, ``interior`` and
  ``step_bound``, the last along the step to the next recorded stack;
- on the z stacks: ``conjugate_gradient`` and ``interior_dual``.

The kernels are the class methods (``cones.CONES[kind]``), which assume
tested rows; the module functions ``ipm`` calls add one interior test.
The perfbench tracer inflates calls this short, so these numbers, not
its self times, say what one kernel call costs.  Nothing is checked:
the script exits 0 whatever the times.

conepath is imported from ``src/`` of this checkout with one BLAS thread,
as perfbench/run.py imports it.
"""

import argparse
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
S_KERNELS = ("gradient", "hessian_inverse", "interior")  # and step_bound, which takes two stacks
Z_KERNELS = ("conjugate_gradient", "interior_dual")


def recorded_stacks(api, problem):
    """{kind value: (spec, s stacks, z stacks)} from one cold solve of problem."""
    ipm = api.ipm
    stacks = {}
    hinv, conj = ipm.barrier_hessian_inverse, ipm.conjugate_gradient

    def entry(spec):
        return stacks.setdefault(spec.kind.value, (spec, [], []))

    def recorded_hinv(spec, S):
        out = hinv(spec, S)
        entry(spec)[1].append(S.copy())
        return out

    def recorded_conj(spec, Y):
        out = conj(spec, Y)
        entry(spec)[2].append(Y.copy())
        return out

    ipm.barrier_hessian_inverse, ipm.conjugate_gradient = recorded_hinv, recorded_conj
    try:
        report = ipm.solve(problem, ipm.cold_start(problem))
    finally:
        ipm.barrier_hessian_inverse, ipm.conjugate_gradient = hinv, conj
    return report, stacks


def per_call_us(calls, repeat):
    """{name: best microseconds per call} over ``repeat`` rounds.

    calls maps each kernel's name to its list of calls.  Every round
    times each kernel's whole list once, so a stretch of host noise
    falls on every kernel alike rather than on all runs of one.
    """
    loops = {name: (lambda fs=fs: [f() for f in fs]) for name, fs in calls.items() if fs}
    best = dict.fromkeys(loops, float("inf"))
    for _ in range(repeat):
        for name, loop in loops.items():
            best[name] = min(best[name], timeit.timeit(loop, number=1))
    return {name: 1e6 * best[name] / len(calls[name]) for name in loops}


def kernel_lines(label, stacks, cones, repeat):
    for kind, (spec, S_list, Z_list) in stacks.items():
        cone = cones.CONES[spec.kind]
        calls = {
            name: [lambda f=getattr(cone, name), S=S: f(spec, S) for S in S_list]
            for name in S_KERNELS
        }
        calls["step_bound"] = [
            lambda V=V, D=W - V: cone.step_bound(spec, V, D) for V, W in zip(S_list, S_list[1:])
        ]
        for name in Z_KERNELS:
            calls[name] = [lambda f=getattr(cone, name), Y=Y: f(spec, Y) for Y in Z_list]
        times = " ".join(f"{name}={us:.1f}" for name, us in per_call_us(calls, repeat).items())
        yield (
            f"{label} {kind} dim={spec.dim} rows={len(S_list[0])} "
            f"s_stacks={len(S_list)} z_stacks={len(Z_list)} us_per_call: {times}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30, help="timed rounds (best kept)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    api = run.import_conepath()  # sets one BLAS thread before numpy loads
    from conepath import cones
    from perfbench.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            chains = run.setup(api, workload, 1, {}, Path(tmp))
        report, stacks = recorded_stacks(api, chains[0][0])
        label = f"{name} {report.status.value} it={report.iterations}"
        for line in kernel_lines(label, stacks, cones, args.repeat):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
