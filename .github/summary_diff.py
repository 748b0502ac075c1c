"""Compare two iterate_digest.py --summary outputs, parent first.

    python3 .github/iterate_digest.py --seeds 1 2 3 4 5 6 7 --summary > parent.txt
    (the same on the change) > change.txt
    python3 .github/summary_diff.py parent.txt change.txt

Prints each workload/seed/mode line whose status counts or iteration
total differ, with the iteration delta, then one line per failure
gained.  Exits 1 on a failure gained: a line of the parent that the
change lacks, a count of a status other than Optimal that appears or
rises, or an Optimal count that falls.  Otherwise exits 0, also when
iterations move, since a change may move them on purpose.
"""

import argparse
import sys
from pathlib import Path

OPTIMAL = "Optimal"


def parse(path):
    """{"workload seed=N mode": ({status: count}, iterations)} for each line of a summary."""
    lines = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        *head, total = line.split()
        key = " ".join(head[:3])
        counts = {status: int(n) for status, n in (word.split("=") for word in head[3:])}
        lines[key] = (counts, int(total.removeprefix("it=")))
    return lines


def show(counts, iterations):
    return " ".join(f"{status}={counts[status]}" for status in sorted(counts)) + f" it={iterations}"


def failures(key, before, after):
    """Why the change's counts for key lose against the parent's, one string per reason."""
    out = []
    for status in sorted(before.keys() | after.keys()):
        old, new = before.get(status, 0), after.get(status, 0)
        if status == OPTIMAL and new < old:
            out.append(f"{key}: {OPTIMAL} fell {old} -> {new}")
        elif status != OPTIMAL and new > old:
            out.append(f"{key}: {status} rose {old} -> {new}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit's --summary output")
    parser.add_argument("change", help="the change's --summary output")
    args = parser.parse_args(argv)
    parent, change = parse(args.parent), parse(args.change)

    lost = [f"{key}: missing from the change" for key in parent if key not in change]
    for key, (counts, iterations) in change.items():
        if key not in parent:
            print(f"{key}: new line, {show(counts, iterations)}")
            continue
        before, it_before = parent[key]
        if (counts, iterations) != (before, it_before):
            delta = iterations - it_before
            print(f"{key}: {show(before, it_before)} -> {show(counts, iterations)} ({delta:+d} it)")
        lost += failures(key, before, counts)
    for reason in lost:
        print(f"FAILURE GAINED {reason}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
