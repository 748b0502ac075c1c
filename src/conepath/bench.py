"""Warm-versus-cold benchmark harness.

Runs parametric sequences twice per instance (cold start and a warm
start built from the previous optimum), aggregates reduction ratios by
geometric mean, and writes CSV/table artifacts.  Timing fields are
wall-clock and therefore the only nondeterministic report content.
"""

import csv
import logging
import math
import os
import time
from dataclasses import dataclass, field

from scipy.stats import spearmanr

from .errors import ConepathError, EmptyInput, Unsupported
from .ipm import (
    Settings, SolveStatus, cold_start, optimal_objective, solve, warm_start,
)
from .problems import Family, SequenceSpec, build_sequence
from .warmstart import PreviousSolution, warmstart

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    family: str
    param: object
    mode: str  # "cold" | "warm"
    status: str
    iterations: int
    solve_time: float
    phi0: float
    objective: float = float("nan")
    ws_time: float = 0.0


@dataclass(frozen=True)
class RatioRow:
    problem_id: str
    param: object
    ratio_iter: float
    ratio_time: float


@dataclass
class BenchReport:
    family: str
    records: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    r_iter: float = float("nan")
    r_t: float = float("nan")
    excluded: int = 0
    curves: list = field(default_factory=list)  # (delta, mean ratio) pairs


def geometric_mean(values):
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyInput("no values to aggregate")
    if any(v <= 0 for v in vals):
        raise Unsupported("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def reduction_metrics(records):
    """Per-problem warm/cold ratios and their geometric means.

    Problems participate only when both modes finished Optimal; the
    count of excluded problems is reported alongside.
    """
    if not records:
        raise EmptyInput("no run records")
    by_id = {}
    for rec in records:
        by_id.setdefault(rec.problem_id, {})[rec.mode] = rec
    ratios = []
    excluded = 0
    for pid in sorted(by_id):
        pair = by_id[pid]
        cold = pair.get("cold")
        warm = pair.get("warm")
        if warm is None:
            continue  # cold-only entries (sequence heads) are not pairs
        if (
            cold is None
            or cold.status != SolveStatus.OPTIMAL.value
            or warm.status != SolveStatus.OPTIMAL.value
        ):
            excluded += 1
            log.warning("excluding %s from means (cold=%s warm=%s)", pid,
                        getattr(cold, "status", None), warm.status)
            continue
        ratios.append(
            RatioRow(
                problem_id=pid,
                param=warm.param,
                ratio_iter=warm.iterations / cold.iterations,
                ratio_time=warm.solve_time / cold.solve_time,
            )
        )
    if not ratios:
        raise EmptyInput("no warm/cold pairs with both modes Optimal")
    r_iter = geometric_mean([r.ratio_iter for r in ratios])
    r_t = geometric_mean([r.ratio_time for r in ratios])
    return r_iter, r_t, ratios, excluded


def _schedule_labels(seq, count):
    if isinstance(seq, SequenceSpec):
        labels = list(seq.schedule)
        if seq.family is Family.MPC_PERTURB:
            labels = ["base"] + labels
        if len(labels) == count:
            return labels
    return list(range(count))


def _record(problem, pid, family, param, mode, v0, settings, ws_time=0.0):
    """Solve from v0; the record's solve_time adds ws_time, the warmstart construction time."""
    rep = solve(problem, v0, settings)
    first = rep.trace[0]  # at v0: its mu and the residual norms check_termination reports
    rec = RunRecord(
        problem_id=pid,
        family=family,
        param=param,
        mode=mode,
        status=rep.status.value,
        iterations=rep.iterations,
        solve_time=ws_time + rep.solve_time,
        phi0=max(first.mu, first.r_p, first.r_d),
        objective=optimal_objective(problem, rep),
        ws_time=ws_time,
    )
    return rec, rep


def _warm_record(problem, pid, family, param, prev, settings):
    """Warm solve from a previous optimum; failures become records."""
    t0 = time.perf_counter()
    try:
        ws = warmstart(PreviousSolution(*prev, problem=problem), problem.cones)
        v0 = warm_start(problem, ws)
    except ConepathError as exc:
        log.warning("warmstart of %s failed: %s", pid, exc)
        rec = RunRecord(
            problem_id=pid, family=family, param=param, mode="warm",
            status=type(exc).__name__, iterations=0,
            solve_time=time.perf_counter() - t0, phi0=float("nan"),
        )
        return rec, None
    ws_time = time.perf_counter() - t0
    return _record(problem, pid, family, param, "warm", v0, settings, ws_time)


def run_sequence(seq, settings=None):
    """Cold-solve every member; warm-solve members 2..N from the
    previous member's optimum (the warm chain reuses its own solutions,
    falling back to the cold one when a warm solve fails)."""
    problems = build_sequence(seq) if isinstance(seq, SequenceSpec) else list(seq)
    family = seq.family.value if isinstance(seq, SequenceSpec) else "custom"
    labels = _schedule_labels(seq, len(problems))
    settings = settings or Settings()

    records = []
    prev = None  # chained (x, s, z) for the next warm start
    for k, problem in enumerate(problems):
        pid = f"{family}-{k:03d}"
        v0 = cold_start(problem)
        cold_rec, cold_rep = _record(problem, pid, family, labels[k], "cold", v0, settings)
        records.append(cold_rec)
        warm_rep = None
        if k > 0 and prev is not None:
            warm_rec, warm_rep = _warm_record(
                problem, pid, family, labels[k], prev, settings
            )
            records.append(warm_rec)
        if warm_rep is not None and warm_rep.status is SolveStatus.OPTIMAL:
            prev = warm_rep.solution
        elif cold_rep.status is SolveStatus.OPTIMAL:
            prev = cold_rep.solution
        else:
            log.warning("no usable optimum at %s; next warm start unavailable", pid)
            prev = None

    report = BenchReport(family=family, records=records)
    try:
        report.r_iter, report.r_t, report.ratios, report.excluded = reduction_metrics(
            records
        )
    except EmptyInput:
        report.excluded = sum(1 for r in records if r.mode == "warm")
    return report


def perturbation_study(delta_grid, seeds, dims=(4, 2), horizon=10, base_seed=0,
                       x0=None, settings=None, targets=("b", "q", "A")):
    """Warm-vs-cold ratio as a function of perturbation size.

    One base MPC instance; for each (delta, seed) the base is perturbed,
    solved cold and warm (from the base optimum), and per-delta ratios
    are aggregated by geometric mean across seeds.
    """
    deltas = [float(d) for d in delta_grid]
    if deltas != sorted(deltas):
        raise Unsupported("delta grid must be sorted ascending")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else [int(s) for s in seeds]
    if not deltas or not seed_list:
        raise EmptyInput("empty delta grid or seed list")
    settings = settings or Settings()

    params = {"dims": dims, "horizon": horizon, "seed": base_seed, "x0": x0, "targets": targets}
    chains = [
        build_sequence(
            SequenceSpec(Family.MPC_PERTURB, tuple(seed_list), params={**params, "delta": delta})
        )
        for delta in deltas
    ]
    base = chains[0][0]
    base_rep = solve(base, cold_start(base), settings)
    if base_rep.status is not SolveStatus.OPTIMAL:
        raise Unsupported("base instance did not solve to Optimal")
    prev = base_rep.solution

    records = []
    for delta, (_, *perturbed) in zip(deltas, chains):
        for seed, problem in zip(seed_list, perturbed):
            pid = f"mpc-d{delta:g}-s{seed}"
            v0 = cold_start(problem)
            records.append(_record(problem, pid, "mpc", delta, "cold", v0, settings)[0])
            records.append(_warm_record(problem, pid, "mpc", delta, prev, settings)[0])

    report = BenchReport(family="mpc", records=records)
    report.r_iter, report.r_t, report.ratios, report.excluded = reduction_metrics(records)
    by_delta = {}
    for row in report.ratios:
        by_delta.setdefault(float(row.param), []).append(row.ratio_iter)
    report.curves = [
        (d, geometric_mean(by_delta[d])) for d in deltas if by_delta.get(d)
    ]
    return report


def trend_statistic(curves):
    """Spearman rank correlation between delta and the mean ratio."""
    if len(curves) < 2:
        raise EmptyInput("need at least two curve points")
    rho = spearmanr([c[0] for c in curves], [c[1] for c in curves]).statistic
    return float(rho)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report, out_dir, prefix=None):
    """Write runs CSV, an aligned text table, and curve data if present.

    Returns the list of written paths.  Content is deterministic for a
    fixed report except the timing-derived columns.
    """
    os.makedirs(out_dir, exist_ok=True)
    prefix = prefix or report.family
    paths = []

    ratio_by_id = {row.problem_id: row for row in report.ratios}
    runs_path = os.path.join(out_dir, f"{prefix}_runs.csv")
    with open(runs_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["problem_id", "family", "param", "mode", "status", "iterations",
             "solve_time_s", "phi0", "ratio_iter", "ratio_time"]
        )
        for rec in report.records:
            row = ratio_by_id.get(rec.problem_id) if rec.mode == "warm" else None
            writer.writerow(
                [rec.problem_id, rec.family, _fmt(rec.param), rec.mode, rec.status,
                 rec.iterations, _fmt(rec.solve_time), _fmt(rec.phi0),
                 _fmt(row.ratio_iter if row else None),
                 _fmt(row.ratio_time if row else None)]
            )
    paths.append(runs_path)

    table_path = os.path.join(out_dir, f"{prefix}_table.txt")
    pairs = {}
    for rec in report.records:
        pairs.setdefault(rec.problem_id, {})[rec.mode] = rec
    headers = ["param", "objective", "iter_cold", "iter_warm", "time_cold",
               "time_warm", "ratio_iter", "ratio_time"]
    rows = []
    for pid in sorted(pairs):
        pair = pairs[pid]
        cold = pair.get("cold")
        warm = pair.get("warm")
        ratio = ratio_by_id.get(pid)
        rows.append(
            [
                _fmt(cold.param if cold else warm.param),
                f"{(cold.objective if cold else float('nan')):.6g}",
                str(cold.iterations) if cold else "",
                str(warm.iterations) if warm else "",
                f"{cold.solve_time:.4f}" if cold else "",
                f"{warm.solve_time:.4f}" if warm else "",
                f"{ratio.ratio_iter:.4f}" if ratio else "",
                f"{ratio.ratio_time:.4f}" if ratio else "",
            ]
        )
    widths = [
        max(len(headers[j]), max((len(r[j]) for r in rows), default=0))
        for j in range(len(headers))
    ]
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
        for r in rows:
            fh.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")
        fh.write(
            f"\ngeometric means: R_iter={report.r_iter:.4f} R_t={report.r_t:.4f}"
            f"  pairs={len(report.ratios)} excluded={report.excluded}\n"
        )
        warm_recs = [r for r in report.records if r.mode == "warm" and r.ws_time > 0]
        if warm_recs:
            mean_ws = sum(r.ws_time for r in warm_recs) / len(warm_recs)
            fh.write(f"mean warmstart construction time: {mean_ws:.6f}s\n")
    paths.append(table_path)

    if report.curves:
        curve_path = os.path.join(out_dir, f"{prefix}_curve.csv")
        with open(curve_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["delta", "mean_ratio_iter"])
            for delta, mean_r in report.curves:
                writer.writerow([_fmt(delta), _fmt(mean_r)])
        paths.append(curve_path)
    return paths
