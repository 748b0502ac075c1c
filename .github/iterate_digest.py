"""Print one line per cold and warm solve of the benchmark's workloads.

    python3 .github/iterate_digest.py --seeds 1 2 3
    python3 .github/iterate_digest.py --seeds 1 2 3 --summary

Each line names the workload, seed, chain, member and mode, then the
status, the iteration count and a SHA-256 prefix of the final x, s, z
and the mu trace.  Two commits whose outputs are equal ran every solve
to the same bits, so a change meant to keep every iterate is checked by
a diff of the two outputs.

With --summary, each line names the workload, seed and mode, then the
count of each status and the total iteration count.  A change that moves
iterates on purpose is compared with its parent by a diff of summaries:
a status that appears, or a count that rises, is a failure gained.

The solves are the benchmark's own, imported read only: perfbench/run.py
imports conepath from ``src/`` of this checkout and builds, writes and
reads back each workload's chains (``import_conepath``, ``setup``), and
``perfbench.driver.run_pass`` solves them by its chaining rule.  This
script only records the report of each ``ipm.solve`` call.
"""

import argparse
import hashlib
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(report):
    import numpy as np

    h = hashlib.sha256()
    for part in (report.x, report.s, report.z, [row.mu for row in report.trace]):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()[:16]


def recording(api):
    """(api with ipm.solve recording each report it returns, the list it records into)."""
    reports = []
    ipm = api.ipm

    def solve(*args, **kwargs):
        report = ipm.solve(*args, **kwargs)
        reports.append(report)
        return report

    recorded_ipm = types.SimpleNamespace(
        solve=solve, cold_start=ipm.cold_start, warm_start=ipm.warm_start
    )
    return types.SimpleNamespace(**{**vars(api), "ipm": recorded_ipm}), reports


def pass_lines(label, ops, reports, statuses):
    """One line per operation of a pass, given the reports its solves returned in order.

    An operation whose status is one of statuses (the SolveStatus
    values) took the next report; one that raised shows the exception's
    name and took none.
    """
    reports = iter(reports)
    for op in ops:
        line = f"{label} chain={op.chain} member={op.member} {op.mode} {op.status}"
        if op.status in statuses:
            report = next(reports)
            line += f" it={report.iterations} {digest(report)}"
        yield line


def summary_lines(label, ops):
    """One line per mode: the count of each status, then the total iterations."""
    for mode in ("cold", "warm"):
        done = [op for op in ops if op.mode == mode]
        counts = Counter(op.status for op in done)
        statuses = " ".join(f"{status}={counts[status]}" for status in sorted(counts))
        yield f"{label} {mode} {statuses} it={sum(op.iterations for op in done)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--summary", action="store_true", help="status counts and iterations per mode"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    api = run.import_conepath()  # sets one BLAS thread before numpy loads
    from perfbench import driver
    from perfbench.workloads import WORKLOADS

    statuses = {status.value for status in api.ipm.SolveStatus}
    recorded_api, reports = recording(api)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                chains = run.setup(api, workload, seed, {}, Path(tmp))
            reports.clear()
            ops = driver.run_pass(recorded_api, chains, lambda: 1.0)
            label = f"{name} seed={seed}"
            if args.summary:
                lines = summary_lines(label, ops)
            else:
                lines = pass_lines(label, ops, reports, statuses)
            for line in lines:
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
