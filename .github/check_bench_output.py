"""Check the saved standard output of a perfbench/run.py --workload all run.

    python3 .github/check_bench_output.py OUTPUT

Exits non-zero unless OUTPUT holds one JSON result line per workload
(three), each with "correct": true, and no "absent trace targets" line.
A truncated output fails: a cut result line does not parse, and a
missing one leaves fewer than three.
"""

import json
import sys

WORKLOADS = 3


def problems(lines):
    """What is wrong with the run's output lines; empty if nothing is."""
    found = [line for line in lines if "absent trace targets" in line]
    results = []
    for number, line in enumerate(lines, 1):
        if line.startswith("{"):
            try:
                results.append(json.loads(line))
            except json.JSONDecodeError as exc:
                found.append(f"line {number} is not a JSON result: {exc}")
    if len(results) != WORKLOADS:
        found.append(f"{len(results)} result lines, expected {WORKLOADS}")
    found += [f"result {i + 1} is not correct" for i, r in enumerate(results)
              if r.get("correct") is not True]
    return found


def main(path):
    with open(path, encoding="utf-8") as f:
        found = problems(f.read().splitlines())
    for line in found:
        print(f"{path}: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
