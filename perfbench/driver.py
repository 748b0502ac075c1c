"""Warm chains, their timed passes, and the end-to-end metrics.

An operation is one cold solve, or one warm solve (warmstart
construction, the ``warm_start`` embedding and ``solve`` together).  It
fails when it raises a ``ConepathError``, ends in a status other than
Optimal, or its result fails a correctness check.

Each member of a chain is solved cold; each member after the first is
also solved warm from the previous member's optimum (the warm one if it
was Optimal, else the cold one), the chaining rule of
``conepath.bench.run_sequence``.

A failed warm solve is charged its own time (and iterations) plus the
member's cold solve, which is what a user falls back to; a failed cold
solve counts as +inf.  Fixing a jammed warm start therefore always
improves ``warm_s.p50``, ``r_iter`` and ``r_t``.

End-to-end times are scaled to the reference host speed
(``calibration.py``); per-layer times are raw.
"""

import math
import statistics
import time
from dataclasses import dataclass, field, replace

from . import calibration, checker

OPTIMAL = "Optimal"


@dataclass
class Op:
    chain: int
    member: int
    mode: str  # "cold" or "warm"
    status: str  # a SolveStatus value, or the name of the exception raised
    iterations: int
    seconds: float  # wall time of the whole operation
    scale: float = 1.0  # host-speed factor from the calibration kernel around it
    solve_s: float = 0.0  # time inside ipm.solve, as the solver reports it
    fallback_blocks: int = 0
    solution: tuple | None = None  # (x, s, z) of an Optimal result
    objective: float = math.nan
    failures: list = field(default_factory=list)  # failed correctness checks

    @property
    def ok(self):
        return self.status == OPTIMAL and not self.failures

    @property
    def scaled_s(self):
        return self.seconds * self.scale


def _finish(op, report):
    op.status = report.status.value
    op.iterations = report.iterations
    op.solve_s = report.solve_time
    if op.status == OPTIMAL:
        op.solution = report.solution
    return op


def cold_op(api, ci, k, problem):
    ipm = api.ipm
    t0 = time.perf_counter()
    try:
        report = ipm.solve(problem, ipm.cold_start(problem))
    except api.ConepathError as exc:
        return Op(ci, k, "cold", type(exc).__name__, 0, time.perf_counter() - t0)
    seconds = time.perf_counter() - t0
    return _finish(Op(ci, k, "cold", "", 0, seconds), report)


def warm_op(api, ci, k, problem, prev):
    ipm, ws_mod = api.ipm, api.warmstart
    t0 = time.perf_counter()
    try:
        ws = ws_mod.warmstart(ws_mod.PreviousSolution(*prev, problem=problem), problem.cones)
        report = ipm.solve(problem, ipm.warm_start(problem, ws))
    except api.ConepathError as exc:
        return Op(ci, k, "warm", type(exc).__name__, 0, time.perf_counter() - t0)
    seconds = time.perf_counter() - t0
    op = Op(ci, k, "warm", "", 0, seconds, fallback_blocks=len(ws.fallback_blocks))
    return _finish(op, report)


def run_pass(api, chains, calibrate, indices=None):
    """Solve every chain once (or the chains at ``indices``); returns the operations in order.

    ``calibrate`` runs the host-speed kernel before the first operation
    and after each one; an operation is scaled by the runs on either side.
    """
    ops = []
    last = [calibrate()]

    def record(op):
        now = calibrate()
        op.scale = calibration.scale(last[0], now)
        last[0] = now
        ops.append(op)
        return op

    for ci in range(len(chains)) if indices is None else indices:
        chain = chains[ci]
        prev = None
        for k, problem in enumerate(chain):
            cold = record(cold_op(api, ci, k, problem))
            warm = None
            if k > 0 and prev is not None:
                warm = record(warm_op(api, ci, k, problem, prev))
            if warm is not None and warm.status == OPTIMAL:
                prev = warm.solution
            elif cold.status == OPTIMAL:
                prev = cold.solution
            else:
                prev = None
    return ops


def check_pass(ops, chains, lp_objectives=None):
    """Attach correctness failures to the Optimal operations of one pass."""
    by_member = {}
    for op in ops:
        if op.status != OPTIMAL:
            continue
        problem = chains[op.chain][op.member]
        op.failures = checker.check_solution(problem, *op.solution)
        op.objective = checker.objective(problem, op.solution[0])
        if lp_objectives is not None:
            ref = lp_objectives[op.chain][op.member]
            if not checker.objectives_agree(op.objective, ref):
                op.failures.append(f"objective {op.objective!r} vs HiGHS {ref!r}")
        by_member.setdefault((op.chain, op.member), []).append(op)
    for pair in by_member.values():
        if len(pair) == 2 and not checker.objectives_agree(pair[0].objective, pair[1].objective):
            for op in pair:
                op.failures.append("cold and warm objectives disagree")


def distinct_ops(ops):
    """One operation per (chain, member, mode), merging its repeats in a run.

    A run repeats some chains more often than others, so every metric
    takes each distinct operation once.  The merged operation takes the
    median of its repeats' scaled times; it failed if any repeat failed,
    and then carries that repeat's status and failures.
    """
    repeats = {}
    for op in ops:
        repeats.setdefault((op.chain, op.member, op.mode), []).append(op)
    merged = []
    for reps in repeats.values():
        shown = next((op for op in reps if not op.ok), reps[0])
        seconds = statistics.median(op.scaled_s for op in reps)
        merged.append(replace(shown, seconds=seconds, scale=1.0))
    return merged


def pairs(ops):
    """(cold, warm) operations of the same member, from one pass or ``distinct_ops``."""
    cold = {(op.chain, op.member): op for op in ops if op.mode == "cold"}
    return [(cold[(op.chain, op.member)], op) for op in ops if op.mode == "warm"]


def charged(cold, warm, attr):
    """Warm cost in ``attr``; a failed warm solve also pays for the cold one."""
    own = getattr(warm, attr)
    if warm.ok:
        return own
    return own + (getattr(cold, attr) if cold.ok else math.inf)


def geometric_mean(values):
    values = list(values)
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(passes, setup_s, peak_rss_mb):
    """End-to-end metrics: name -> (value, unit, sample count).

    Each distinct operation counts once, timed by the median of its
    repeats (``distinct_ops``), so the metrics do not depend on how many
    times the run repeated each chain.
    """
    ops = distinct_ops(op for ops_ in passes for op in ops_)
    cold_t = [op.seconds if op.ok else math.inf for op in ops if op.mode == "cold"]
    member_pairs = pairs(ops)
    warm_t = [charged(c, w, "seconds") for c, w in member_pairs]
    ratio_pairs = [(c, w) for c, w in member_pairs if c.ok]
    solved = sum(op.ok for op in ops)
    return {
        "setup_s": (setup_s, "s", None),
        "cold_s.p50": (statistics.median(cold_t), "s", len(cold_t)),
        "warm_s.p50": (statistics.median(warm_t), "s", len(warm_t)),
        "r_iter": (
            geometric_mean(charged(c, w, "iterations") / c.iterations for c, w in ratio_pairs),
            "ratio",
            len(ratio_pairs),
        ),
        "r_t": (
            geometric_mean(charged(c, w, "seconds") / c.seconds for c, w in ratio_pairs),
            "ratio",
            len(ratio_pairs),
        ),
        "optimal_share": (solved / len(ops), "fraction", len(ops)),
        "solved_per_s": (solved / sum(op.seconds for op in ops), "1/s", len(ops)),
        "peak_rss_mb": (peak_rss_mb, "MB", None),
    }


KINDS = ("nonneg", "soc", "pow")


def per_layer(setup_self_s, setups, tracer, traced, traced_walls, untraced, untraced_walls):
    """Per-layer metrics: name -> (value, unit).

    Times are self times and counts are calls, per traced pass; the
    set-up layers are per set-up, from ``setup_self_s`` over ``setups``
    traced set-ups.  ``ipm.ms_per_iter`` comes from the untraced passes.
    """
    n = len(traced)
    s, c = tracer.self_s, tracer.calls
    ops = traced[0]
    iters = sum(op.iterations for op in ops)

    def per_pass(total):
        return total / n

    def kinds_s(label):
        return sum(v for k, v in s.items() if k.startswith("cones.") and k.endswith("." + label))

    untraced_ops = [op for ops_ in untraced for op in ops_]
    out = {
        "problems.generate_s": (setup_self_s.get("problems.generate", 0.0) / setups, "s"),
        "fileio.write_s": (setup_self_s.get("fileio.write", 0.0) / setups, "s"),
        "fileio.read_s": (setup_self_s.get("fileio.read", 0.0) / setups, "s"),
        "ipm.kkt_assembly_s": (per_pass(s["ipm.kkt_assembly"]), "s"),
        "ipm.kkt_factor_s": (per_pass(s["ipm.kkt_factor"]), "s"),
        "ipm.kkt_factor_calls": (per_pass(c["ipm.kkt_factor"]), "count"),
        "ipm.kkt_solve_s": (per_pass(s["ipm.kkt_solve"]), "s"),
        "ipm.kkt_solve_calls": (per_pass(c["ipm.kkt_solve"]), "count"),
        "ipm.solve_self_s": (per_pass(s["ipm.solve"]), "s"),
        "ipm.ms_per_iter": (
            1000.0
            * sum(op.solve_s for op in untraced_ops)
            / max(1, sum(op.iterations for op in untraced_ops)),
            "ms",
        ),
        "ipm.termination_s": (per_pass(s["ipm.termination"]), "s"),
        "ipm.termination_calls": (per_pass(c["ipm.termination"]), "count"),
        "ipm.iterations.cold": (sum(op.iterations for op in ops if op.mode == "cold"), "count"),
        "ipm.iterations.warm": (sum(op.iterations for op in ops if op.mode == "warm"), "count"),
        "ipm.numerical_errors": (sum(op.status == "NumericalError" for op in ops), "count"),
        "ipm.trials_per_iter": (per_pass(c["cones.interior_test.primal"]) / max(1, iters), "ratio"),
        "cones.interior_test_s": (
            per_pass(s["cones.interior_test.primal"] + s["cones.interior_test.dual"]),
            "s",
        ),
        "cones.interior_test_calls": (
            per_pass(c["cones.interior_test.primal"] + c["cones.interior_test.dual"]),
            "count",
        ),
    }
    for label in ("gradient", "hessian_inverse", "conjugate_gradient"):
        out[f"cones.{label}_s"] = (per_pass(kinds_s(label)), "s")
        for kind in KINDS:
            out[f"cones.{kind}.{label}_calls"] = (per_pass(c[f"cones.{kind}.{label}"]), "count")
    out["warmstart.construct_s"] = (per_pass(s["warmstart.construct"]), "s")
    out["warmstart.fallback_blocks"] = (sum(op.fallback_blocks for op in ops), "count")
    out["smoothing.smooth_s"] = (
        per_pass(sum(v for k, v in s.items() if k.startswith("smoothing."))),
        "s",
    )
    for kind in KINDS:
        out[f"smoothing.{kind}.calls"] = (per_pass(c[f"smoothing.{kind}.smooth"]), "count")
    out["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls),
        "s",
    )
    return out


def lp_reference(chains):
    return [[checker.highs_objective(p) for p in chain] for chain in chains]
