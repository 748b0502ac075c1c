"""Measure the benchmark's baseline: every workload over ten seeds.

Run from the repository root:

    python3 perfbench/baseline.py

It runs ``perfbench/run.py --trace 0`` once per workload and seed, one
run at a time, and writes ``perfbench/BASELINE.json``.  That file holds
the median and quartiles of each end-to-end metric, the fail share, the
git commit and src/ tree measured, and the run metadata.
"""

import json
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    """One benchmark run; returns (metadata line, result)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def parse_meta(line):
    """``meta: key=value ...`` (values may be quoted) as a dict."""
    return dict(token.split("=", 1) for token in shlex.split(line.removeprefix("meta:")))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def summarize(results, meta, bench, seconds):
    """BASELINE.json content from ``{workload: [result, ...]}``."""
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    doc = {
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> --seconds {seconds} --trace 0",
        "git_commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "cpu": cpu_model(),
        "meta": meta,
        "workloads": {},
    }
    for name, runs in results.items():
        entry = {
            "why": why[name],
            "seeds": len(runs),
            "fail_share": statistics.median(r["failed"] / r["attempted"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][metric["name"]] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "unit": metric["unit"],
                "better": metric["better"],
            }
        doc["workloads"][name] = entry
    return doc


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    results, meta = {}, None
    for workload in bench["workloads"]:
        for seed in SEEDS:
            meta_line, result = run_once(workload["name"], seed, seconds)
            meta = parse_meta(meta_line)
            results.setdefault(workload["name"], []).append(result)
            print(workload["name"], seed, result["failed"], "/", result["attempted"], flush=True)
    doc = summarize(results, meta, bench, seconds)
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
