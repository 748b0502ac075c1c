"""Benchmark of conepath's warm chains, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload svm-l1-lp --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``correct`` is false when a result the solver called Optimal fails a
correctness check.  ``failed`` also counts solves that end in another
status or raise, which are known defects of the solver, not of the
benchmark.  ``attempted`` and ``failed`` count each distinct operation of
the workload once, however many times the run repeats it; an operation
fails if it failed in any repeat.  So they do not depend on how many
repeats fit in ``--seconds``.

The program is imported from ``src/`` of the checkout that holds this
file, never from an installed copy; without that source the run exits
with a non-zero status before printing a result.
"""

import argparse
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: every run measures a single-threaded solver.  Set
# before numpy is imported, which happens when conepath is; so the
# benchmark's own modules, which use numpy, are imported inside the
# functions that need them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
LAYER_MODULES = ("ipm", "warmstart", "problems", "fileio", "errors")


def import_conepath():
    """Import conepath's layers from ``src/``; returns them as a namespace."""
    if not (SRC / "conepath" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no conepath sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"conepath.{name}") for name in LAYER_MODULES}
    return types.SimpleNamespace(**modules, ConepathError=modules["errors"].ConepathError)


def time_import():
    """Seconds a fresh interpreter takes to import conepath's layers.

    A process imports a module once, so each set-up repeat measures the
    import in a new interpreter; it starts after the previous one ended.
    """
    modules = ", ".join(f"conepath.{name}" for name in LAYER_MODULES)
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout)


def setup(api, workload, seed, sizes, workdir):
    """Generate every instance, then write and read it back as users do."""
    import numpy as np

    chains = workload.build(api.problems, np.random.default_rng(seed), **sizes)
    loaded = []
    for ci, chain in enumerate(chains):
        row = []
        for k, problem in enumerate(chain):
            path = workdir / f"chain{ci}-member{k}.txt"
            api.fileio.write_problem(problem, path)
            row.append(api.fileio.read_problem(path))
        loaded.append(row)
    return loaded


def timed_setups(api, workload, seed, sizes, calibrate, repeats=SETUP_REPEATS):
    """Set up ``repeats`` times; returns (chains, per-repeat seconds).

    A repeat's time is an import of conepath plus one set-up.  The times
    are scaled to the reference host speed by the median of the
    calibration runs between the repeats: one kernel run is too short to
    tell the host's speed from its own noise.
    """
    from perfbench import calibration

    times, kernels = [], [calibrate()]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        for _ in range(repeats):
            import_s = time_import()
            t0 = time.perf_counter()
            chains = setup(api, workload, seed, sizes, Path(tmp))
            times.append(import_s + time.perf_counter() - t0)
            kernels.append(calibrate())
    factor = calibration.REFERENCE_S / statistics.median(kernels)
    return chains, [t * factor for t in times]


def timed_passes(api, chains, seconds, calibrate, tracer=None):
    """Timed passes until another one would overrun ``seconds``.

    Untraced, a pass is one chain: every chain runs once, in order, then
    they run in turn again while the next one still fits, so a run whose
    whole workload takes most of ``seconds`` still fills it.  With a
    tracer, a pass is the whole workload, run untraced and then traced,
    so per-layer counts are per whole pass.  Returns (untraced passes,
    their walls, traced passes, their walls).
    """
    from perfbench import driver, tracer as tracing

    if tracer is None:
        modes, units = [False], [[ci] for ci in range(len(chains))]
    else:
        modes, units = [False, True], [None]
    out = {False: ([], []), True: ([], [])}
    last = [0.0] * len(units)  # each unit's latest wall, all modes
    start = time.perf_counter()
    for n in itertools.count():
        u = n % len(units)
        unit_start = time.perf_counter()
        for traced in modes:
            t0 = time.perf_counter()
            if traced:
                with tracing.install_layers(tracer):
                    ops = driver.run_pass(api, chains, calibrate, units[u])
            else:
                ops = driver.run_pass(api, chains, calibrate, units[u])
            out[traced][0].append(ops)
            out[traced][1].append(time.perf_counter() - t0)
        now = time.perf_counter()
        last[u] = now - unit_start
        following = last[(n + 1) % len(units)]
        if n + 1 >= len(units) and now - start + following > seconds:
            return (*out[False], *out[True])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(api, name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result dict, human-readable lines)."""
    from perfbench import calibration, driver, tracer as tracing
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    sizes = sizes or {}
    calibrate = calibration.Calibration()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        with tracing.install_layers(tracer):
            chains, setup_times = timed_setups(api, workload, seed, sizes, calibrate)
        setup_layers = dict(tracer.self_s)
        tracer.reset()
    else:
        chains, setup_times = timed_setups(api, workload, seed, sizes, calibrate)
    untraced, untraced_walls, traced, traced_walls = timed_passes(
        api, chains, seconds, calibrate, tracer
    )

    lp = driver.lp_reference(chains) if workload.lp_reference else None
    for ops in untraced + traced:
        driver.check_pass(ops, chains, lp)
    all_ops = [op for ops in untraced + traced for op in ops]
    correct = not any(op.status == driver.OPTIMAL and op.failures for op in all_ops)

    lines = [
        f"workload {name}: seed={seed} chains={len(chains)} "
        f"members={sum(map(len, chains))} passes={len(untraced)} untraced+{len(traced)} traced",
        f"correctness check: {'PASS' if correct else 'FAIL'}",
        f"host speed: {statistics.median(op.scale for op in all_ops):.3f} x reference "
        "(end-to-end times are scaled by it)",
    ]
    distinct = driver.distinct_ops(all_ops)
    failed = [op for op in distinct if not op.ok]
    for op in failed:
        why = "; ".join(op.failures) or op.status
        lines.append(f"  failed: chain {op.chain} member {op.member} {op.mode}: {why}")
    if tracer is None:
        metrics = driver.end_to_end(untraced, statistics.median(setup_times), peak_rss_mb())
    else:
        metrics = driver.per_layer(
            setup_layers, SETUP_REPEATS, tracer, traced, traced_walls, untraced, untraced_walls
        )
        if tracer.absent:
            lines.append("absent trace targets: " + ", ".join(tracer.absent))
    for key, (value, unit, *count) in metrics.items():
        samples = f"  (n={count[0]})" if count and count[0] is not None else ""
        lines.append(f"  {key:34s} {value:14.6g} {unit}{samples}")
    result = {
        "correct": correct,
        "attempted": len(distinct),
        "failed": len(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    return result, lines


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args, list(WORKLOADS) if args.workload == "all" else [args.workload]


def main(argv=None):
    sys.path.insert(0, str(ROOT))
    args, names = parse_args(argv)
    api = import_conepath()
    from perfbench import meta

    print(meta.describe(SRC))
    for name in names:
        result, lines = run_workload(api, name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
