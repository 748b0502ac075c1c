"""Time the cone kernels, untraced, on stacks from the benchmark's workloads.

    python3 .github/kernel_timings.py --repeat 30

For each workload, one cold solve of the first member of its reference
chain (perfbench/workloads.py, seed 1) records every call ``ipm`` makes
to its kernels ``barrier_gradient``, ``barrier_hessian_inverse`` and
``conjugate_gradient``, to ``block_proximity``, and to the methods
``is_interior``, ``is_interior_dual`` and ``step_bound`` of its
``ConeProduct``, with copies of the arguments, for the calls that
return.  Each timed loop runs once on every recorded call or stack of
its kind, timed with ``timeit`` in each of ``--repeat`` rounds, every
loop once per round, and the best loop gives the microseconds per call.

One line per workload and kind times the cone class's kernels
(``cones.CONES[kind]``), which assume tested rows, on the s stacks that
``ipm`` passed to ``barrier_hessian_inverse`` and the z stacks that it
passed to ``conjugate_gradient``:

- on the s stacks: ``gradient``, ``hessian_inverse``, ``interior`` and
  ``step_bound``, the last along the step to the next recorded stack;
- on the z stacks: ``conjugate_gradient`` and ``interior_dual``.

One more line per workload, ``product``, replays the recorded calls as
``ipm`` made them: the three kernels per kind (``barrier_gradient.soc``
and so on), ``block_proximity`` and the three ``ConeProduct`` methods.
These include whatever the names add to the class formulas, such as an
interior test.  The perfbench tracer inflates calls this short, so these
numbers, not its self times, say what one call costs.  Nothing is
checked: the script exits 0 whatever the times.

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
IPM_KERNELS = ("barrier_gradient", "barrier_hessian_inverse", "conjugate_gradient")
PRODUCT_METHODS = ("is_interior", "is_interior_dual", "step_bound")


def recorded_calls(api, cones, problem):
    """(report, {name: [(function, args)]}) from one cold solve of problem.

    Each name of IPM_KERNELS, block_proximity and PRODUCT_METHODS maps
    to the calls of it that returned, with copies of their array
    arguments; a kernel's name gains its kind, as barrier_gradient.soc.
    """
    import numpy as np

    ipm = api.ipm
    calls = {}

    def recording(owner, name):
        fn = getattr(owner, name)

        def recorded(*args):
            out = fn(*args)
            key = f"{name}.{args[0].kind.value}" if name in IPM_KERNELS else name
            copied = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            calls.setdefault(key, []).append((fn, copied))
            return out

        setattr(owner, name, recorded)
        return owner, name, fn

    patched = [recording(ipm, name) for name in (*IPM_KERNELS, "block_proximity")]
    patched += [recording(cones.ConeProduct, name) for name in PRODUCT_METHODS]
    try:
        report = ipm.solve(problem, ipm.cold_start(problem))
    finally:
        for owner, name, fn in patched:
            setattr(owner, name, fn)
    return report, calls


def kind_stacks(calls):
    """{kind value: (spec, s stacks, z stacks)}: the rows ipm passed to the
    barrier Hessian inverse and to the conjugate gradient."""
    stacks = {}
    for side, kernel in ((1, "barrier_hessian_inverse"), (2, "conjugate_gradient")):
        for name, recorded in calls.items():
            if name.startswith(kernel + "."):
                for _, (spec, S, *_) in recorded:
                    stacks.setdefault(spec.kind.value, (spec, [], []))[side].append(S)
    return stacks


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


def product_line(label, calls, repeat):
    """The line timing the recorded calls as ipm made them."""
    replays = {name: [lambda f=f, a=a: f(*a) for f, a in recorded] for name, recorded in calls.items()}
    order = sorted(replays, key=lambda name: (name.split(".")[0] in IPM_KERNELS, name))
    times = per_call_us({name: replays[name] for name in order}, repeat)
    counts = " ".join(f"{name}={len(replays[name])}" for name in order)
    us = " ".join(f"{name}={times[name]:.1f}" for name in order)
    return f"{label} product calls: {counts} us_per_call: {us}"


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
        report, calls = recorded_calls(api, cones, chains[0][0])
        label = f"{name} {report.status.value} it={report.iterations}"
        for line in kernel_lines(label, kind_stacks(calls), cones, args.repeat):
            print(line, flush=True)
        print(product_line(label, calls, args.repeat), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
