"""Run perfbench/run.py, check its output and save it as BENCH_<label>.json.

    python3 .github/bench_record.py --label LABEL -- --workload all --seed 1 --seconds 30

Everything after ``--`` goes to perfbench/run.py, whose output is echoed
as it arrives.  The output must pass the checks of check_bench_output.py
(three result lines, each correct, no absent trace targets), so the
arguments must name ``--workload all``.  Then BENCH_<label>.json, at the
repository root, holds the run's arguments, its meta line, its result
lines and the git commit it ran on; ``dirty`` is true when the tracked
files differed from that commit.  Exits 1, and writes nothing, when the
run fails or its output does not pass.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from check_bench_output import problems

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run(args):
    """perfbench/run.py's output lines, echoed as they arrive, and its exit status."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = []
    for line in proc.stdout:
        print(line, end="", flush=True)
        lines.append(line.rstrip("\n"))
    return lines, proc.wait()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    lines, status = run(args)
    found = problems(lines)
    if status:
        found.append(f"perfbench/run.py exited with status {status}")
    for line in found:
        print(f"bench_record: {line}", file=sys.stderr)
    if found:
        return 1
    record = {
        "label": opts.label,
        "args": args,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "meta": next(line for line in lines if line.startswith("meta:")),
        "results": [json.loads(line) for line in lines if line.startswith("{")],
    }
    path = ROOT / f"BENCH_{opts.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench_record: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
