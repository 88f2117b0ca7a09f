#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload sweep --seeds 101-110 --seconds 30

Runs ``run.py --trace 0`` once per seed, one after another, and prints
each run's wall time and metrics.  Then, for every metric, it prints the
median of the runs and the spread ``(q3 - q1) / median``, with the
quartiles of ``statistics.quantiles(values, n=4)``.  The bounds in
``BENCHMARK.json`` apply to that spread.  ``--json FILE`` also writes the runs and the
summary there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 101-110")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        began = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        wall_s = time.perf_counter() - began
        result = json.loads(done.stdout.splitlines()[-1]) if done.stdout.strip() else {}
        if done.returncode or not result.get("correct"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        runs.append({"seed": seed, "wall_s": wall_s, **result})
        print(f"seed {seed}: wall {wall_s:.1f} s  " + "  ".join(
            f"{key}={m['value']:.5g}" for key, m in result["metrics"].items()), flush=True)

    table = {}
    for key in runs[0]["metrics"]:
        table[key] = {**summary([run["metrics"][key]["value"] for run in runs]),
                      "unit": runs[0]["metrics"][key]["unit"]}
        row = table[key]
        bound = bounds.get(key)
        flag = "" if bound is None or row["spread"] < bound / 3 else "  (over a third of the bound)"
        print(f"{key:14s} median {row['median']:12.6g} {row['unit']:4s} spread {row['spread']:.3f}"
              f" bound {bound}{flag}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                         "runs": runs, "summary": table}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
