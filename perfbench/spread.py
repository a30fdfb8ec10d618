#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out .perfbench/spread.json

For every workload and metric: the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  Runs go one at a time,
in fresh processes, with the settings from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": spec["run_seconds"], "trace": args.trace, "machine": None,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            report["machine"] = report["machine"] or next(
                json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            if bounds.get(name) is not None and metrics[name]["spread"] is not None:
                metrics[name]["spread_over_bound"] = metrics[name]["spread"] / bounds[name]
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, rep in report["workloads"].items():
        for name, m in rep["metrics"].items():
            print(f"{workload:15s} {name:40s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread'] if m['spread'] is None else round(m['spread'], 4)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
