"""Command-line interface.

Subcommands: solve a problem file (cold or warm), run benchmark
studies, and check a problem file's invariants.  Exit codes: 0 Optimal
(or successful bench/check), 2 input error, 3 PrimalInfeasible,
4 DualInfeasible, 5 MaxIters, 6 NumericalError.
"""

import argparse
import csv
import sys

import numpy as np

from . import bench as bench_mod
from . import fileio
from .errors import ConepathError, ParseError
from .ipm import Settings, SolveStatus, cold_start, optimal_objective, solve, warm_start
from .problems import Family, SequenceSpec
from .warmstart import PreviousSolution, warmstart

EXIT_CODES = {
    SolveStatus.OPTIMAL: 0,
    SolveStatus.PRIMAL_INFEASIBLE: 3,
    SolveStatus.DUAL_INFEASIBLE: 4,
    SolveStatus.MAX_ITERS: 5,
    SolveStatus.NUMERICAL_ERROR: 6,
}


def _arith_grid(text):
    """lo:step:hi inclusive, e.g. 0.02:0.01:0.11."""
    try:
        lo, step, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:step:hi, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("need step > 0 and hi >= lo")
    count = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + k * step, 12) for k in range(count))


def _geom_grid(text):
    """lo:factor:hi inclusive geometric, e.g. 1e-6:10:1e-1."""
    try:
        lo, factor, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:factor:hi, got {text!r}")
    if lo <= 0 or factor <= 1 or hi < lo:
        raise argparse.ArgumentTypeError("need lo > 0, factor > 1, hi >= lo")
    grid = []
    v = lo
    while v <= hi * (1 + 1e-9):
        grid.append(v)
        v *= factor
    return tuple(grid)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conepath",
        description="Conic optimization with central-path warmstarting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a problem file")
    p_solve.add_argument("--eps", type=float, default=1e-8)
    p_solve.add_argument("--max-iters", type=int, default=200)
    p_solve.add_argument("--warm", metavar="SOLUTION",
                         help="previous solution file used to build a warm start")
    p_solve.add_argument("--trace", metavar="CSV",
                         help="write the per-iteration trace to this CSV")
    p_solve.add_argument("--out", metavar="SOLUTION",
                         help="solution output path (default: <problem>.sol.json)")

    p_bench = sub.add_parser("bench", help="run a warm-vs-cold study")
    p_bench.add_argument("family",
                         choices=[f.value for f in Family],
                         help="problem family")
    p_bench.add_argument("--schedule", type=_arith_grid,
                         help="parameter grid lo:step:hi")
    p_bench.add_argument("--delta-grid", type=_geom_grid,
                         help="perturbation grid lo:factor:hi (mpc only)")
    p_bench.add_argument("--seeds", type=int, default=20,
                         help="seed count for perturbation studies")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="data-generation seed")
    p_bench.add_argument("--eps", type=float, default=1e-8)
    p_bench.add_argument("--out", default="bench_out", help="output directory")

    p_check = sub.add_parser("check", help="validate a problem file")
    p_check.add_argument("problem", help="path to a problem file")
    return parser


def _cmd_solve(args):
    try:
        problem = fileio.read_problem(args.problem)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    warm = None
    if args.warm:
        try:
            sol = fileio.read_solution(args.warm)
        except (OSError, ParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if (sol["n"], sol["m"]) != (problem.n, problem.m):
            print(
                f"error: solution dimensions ({sol['n']}, {sol['m']}) do not "
                f"match problem ({problem.n}, {problem.m})",
                file=sys.stderr,
            )
            return 2
        if sol["status"] != "Optimal":
            print(f"error: cannot warm-start from status {sol['status']}",
                  file=sys.stderr)
            return 2
        if sol.get("problem_hash") != fileio.problem_hash(problem):
            print("note: solution comes from a different problem instance",
                  file=sys.stderr)
        try:
            warm = warmstart(
                PreviousSolution(x_star=sol["x"], s_star=sol["s"], z_star=sol["z"],
                                 problem=problem),
                problem.cones,
            )
            start = warm_start(problem, warm)
        except ConepathError as exc:
            print(f"error: warm start rejected: {exc}", file=sys.stderr)
            return 2
    else:
        start = cold_start(problem)

    settings = Settings(eps=args.eps, max_iters=args.max_iters)
    try:
        report = solve(problem, start, settings)
    except ConepathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6

    objective = optimal_objective(problem, report)
    out_path = args.out or args.problem + ".sol.json"
    fileio.write_solution(out_path, problem, report, objective, warm=warm)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iteration", "mu", "r_p", "r_d", "step"])
            for k, row in enumerate(report.trace):
                writer.writerow([k, repr(row.mu), repr(row.r_p), repr(row.r_d),
                                 repr(row.step)])

    print(f"status: {report.status.value}")
    if report.status is SolveStatus.NUMERICAL_ERROR:
        print(f"reason: {report.reason}")
    print(f"iterations: {report.iterations}")
    if report.status is SolveStatus.OPTIMAL:
        print(f"objective: {objective!r}")
    print(f"solution written to {out_path}")
    return EXIT_CODES[report.status]


_DEFAULT_SCHEDULES = {
    Family.SVM_L1: tuple(round(0.01 + 0.01 * k, 12) for k in range(11)),
    Family.SVM_L2: tuple(round(0.01 + 0.01 * k, 12) for k in range(11)),
    Family.EFFICIENT_FRONTIER: tuple(round(1e-3 + 1e-4 * k, 12) for k in range(11)),
    Family.PORTFOLIO_REBALANCE: tuple(range(10)),
    Family.HMCR: tuple(range(10)),
}


def _cmd_bench(args):
    family = Family(args.family)
    settings = Settings(eps=args.eps)
    if family is Family.MPC_PERTURB:
        grid = args.delta_grid or _geom_grid("1e-6:10:1e-1")
        report = bench_mod.perturbation_study(
            grid, seeds=args.seeds, base_seed=args.seed, settings=settings
        )
        rho = bench_mod.trend_statistic(report.curves)
        extra = f" spearman={rho:.4f}"
    else:
        schedule = args.schedule
        if schedule is None:
            schedule = _DEFAULT_SCHEDULES[family]
        if family in (Family.PORTFOLIO_REBALANCE, Family.HMCR):
            schedule = tuple(int(v) for v in schedule)
        seq = SequenceSpec(family, schedule, params={"seed": args.seed})
        report = bench_mod.run_sequence(seq, settings)
        extra = ""
    paths = bench_mod.emit_report(report, args.out)
    print(
        f"family={report.family} pairs={len(report.ratios)} "
        f"excluded={report.excluded} R_iter={report.r_iter:.4f} "
        f"R_t={report.r_t:.4f}{extra}"
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _min_eigenvalue(P):
    """Smallest eigenvalue of a symmetric CSC P with a stored entry, from its stored rows.

    The other rows and columns are zero, so each adds an eigenvalue 0.
    """
    rows = np.unique(P.indices)
    wmin = float(np.linalg.eigvalsh(P[rows][:, rows].toarray()).min())
    return min(wmin, 0.0) if len(rows) < P.shape[0] else wmin


def _cmd_check(args):
    lines = []
    ok = True

    def item(label, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        suffix = f": {detail}" if detail else ""
        lines.append(f"{'PASS' if passed else 'FAIL'}  {label}{suffix}")

    problem = None
    try:
        problem = fileio.read_problem(args.problem)
        item("parse", True)
    except OSError as exc:
        item("parse", False, str(exc))
    except ParseError as exc:
        item("parse", False, str(exc))

    if problem is not None:
        finite = all(
            np.all(np.isfinite(arr))
            for arr in (problem.q, problem.b, problem.P.data, problem.A.data)
        )
        item("finite entries", finite)
        item("cone dimensions sum to m", problem.cones.dim == problem.m,
             f"{problem.cones.dim} vs {problem.m}")
        sym_gap = abs(problem.P - problem.P.T).max() if problem.P.nnz else 0.0
        item("P symmetric", sym_gap == 0.0)
        if problem.P.nnz and finite:
            wmin = _min_eigenvalue(problem.P)
            item("P positive semidefinite", wmin >= -1e-8,
                 f"min eigenvalue {wmin:.3e}")
        else:
            item("P positive semidefinite", finite, "no quadratic term" if finite else "")
    print("\n".join(lines))
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
