"""Steadiness check: repeat every workload in fresh processes and report the spread.

Usage:
    python3 bench/steady.py [--runs 10]

Every workload of BENCHMARK.json runs for its run_seconds. Run r (0-based)
uses seed 1 + r for every workload and runs the workloads forward on even r
and in reverse on odd r. For each workload and end-to-end metric it prints
the median, first and third quartile (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median, against the metric's bound in
BENCHMARK.json. ``FLAG`` marks a spread above its bound, ``warn`` one above
a third of it. The summary is also written to
bench/_work/steady-<time>.json. The exit code is 1 if any run was incorrect
or any metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    incorrect = []
    for r in range(args.runs):
        seed = 1 + r
        for w in (workloads if r % 2 == 0 else workloads[::-1]):
            cmd = [sys.executable, *spec["command"][1:], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - start
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            if proc.returncode != 0 or not result["correct"]:
                incorrect.append({"workload": w, "seed": seed, "exit": proc.returncode,
                                  "stderr": proc.stderr.strip()[-500:]})
            for m, v in result["metrics"].items():
                values[w][m].append(v["value"])
            shown = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"run {r} seed {seed} {w}: {wall:.1f}s correct={result['correct']} {shown}", flush=True)

    summary, flagged = {}, False
    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for m, bound in bounds.items():
            vals = values[w][m]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if spread > bound:
                mark, flagged = "FLAG", True
            elif spread > bound / 3:
                mark = "warn"
            summary.setdefault(w, {})[m] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                            "spread": spread, "bound": bound}
            print(f"{w:14} {m:12} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {bound:6.2f} {mark}")
    out = HERE / "_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "seconds": spec["run_seconds"], "incorrect": incorrect,
                               "metrics": summary}, indent=1) + "\n", encoding="utf-8")
    print(f"\nincorrect runs: {len(incorrect)}; summary in {out}")
    return 1 if incorrect or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
