"""Repeat run.py over seeds and summarize every metric per workload.

    python3 perfbench/repeat.py [--runs 11] [--workloads sweep-q7,report-q5,report-q3]
                                [--seed0 1]

Every run measures for ``run_seconds`` from BENCHMARK.json, the run length
the bounds were set for, and prints the end-to-end metrics (``--trace 0``).
Eleven runs are the fewest that give a tail percentile.

Runs go one after another, cycling through the workloads so that slow
phases of the machine spread over all of them.  For each metric it prints
the median, the quartiles, the highest percentile with at least ten runs
above it, the sample count, and the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json.  The last line of stdout is the JSON
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import fmt_summary, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bounds() -> dict:
    return {m["name"]: m["bound"] for m in spec()["end_to_end"]}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    seconds = spec()["run_seconds"]
    names = args.workloads.split(",")
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    limit = bounds()

    results: dict = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            res = one_run(name, args.seed0 + i, seconds)
            results[name].append(res)
            print(f"{name} seed={args.seed0 + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    summary: dict = {}
    all_correct = True
    for name in names:
        runs = results[name]
        all_correct &= all(r["correct"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        summary[name] = {}
        metric_names = {m: r["metrics"][m]["unit"] for r in runs for m in r["metrics"]}
        for metric, unit in metric_names.items():
            vals = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            s = summarize(vals)
            s["values"] = vals
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            s["spread"] = spread
            bound = limit.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER BOUND")
                flag = f"spread {spread:.4f} vs bound {bound} {flag}"
            print(f"  {metric:<44} {unit:<10} {fmt_summary(s)} {flag}")
            summary[name][metric] = s
    print(json.dumps({"all_correct": all_correct, "summary": summary}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
