#!/usr/bin/env python3
"""Record ``reference.json``: the outputs every benchmark check compares to.

    python3 perfbench/record.py

Runs every pool input once (each eta step with every level, every series
variant, every study cell with every master seed) through
``changepoint.cli.main`` and stores the values ``workloads.py`` extracts.
Null series are re-drawn with a new salt until detection finds nothing
at the CLI's 0.05 threshold; the salt is stored.  Study cells run with
the benchmark's two-worker setting.  Re-record only when a change to the
program's output is intended, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # sets the thread environment before numpy loads
from envinfo import source_digest

sys.path.insert(0, str(run.SRC))

from changepoint import cli  # noqa: E402

import workloads as wl  # noqa: E402


def _values(runner, op) -> dict:
    res = runner.run(op)
    if res.errors or res.refused:
        raise RuntimeError(f"{op.argv}: {res.errors or 'refused'}")
    return res.values


def offset_law(work) -> dict:
    runner = run.Runner(wl.WORKLOADS["offset_law"], None, cli.main)
    refs = {}
    for i, eta in enumerate(wl.ETA_GRID):
        out = work / f"dist{i}.csv"
        op = wl.Op("dist", eta, ["dist", "--eta", eta, "--out", str(out), "--verify"],
                   (out, out.with_suffix(".json")), {"eta": eta})
        refs[eta] = _values(runner, op)
        for level in wl.LEVELS:
            out = work / "ci.json"
            argv = ["ci", "--eta", eta, "--level", level, "--tau", "50000", "--n", "100000",
                    "--out", str(out)]
            op = wl.Op("ci", "", argv, (out,),
                       {"eta": eta, "level": level, "tau": 50000, "n": 100000, "origin": None})
            refs[f"{eta}|{level}"] = _values(runner, op)
    return refs


def analyze_series(work) -> dict:
    workload = wl.WORKLOADS["analyze_series"]
    runner = run.Runner(workload, None, cli.main)
    refs = {}
    for d, i, null in workload.cells(smoke=False):
        for v in range(wl.SERIES_VARIANTS):
            salt = 0
            while True:
                ops = workload.series_ops(work, d, i, v, null, salt)
                values = [_values(runner, op) for op in ops]
                if values[0]["significant"] != null:
                    break
                if not null:
                    raise RuntimeError(f"{ops[0].key}: no significant change detected")
                salt += 1
            for op, val in zip(ops, values):
                refs[op.key] = val | ({"salt": salt} if null else {})
    return refs


def simulate_study(work) -> dict:
    workload = wl.WORKLOADS["simulate_study"]
    runner = run.Runner(workload, None, cli.main)
    refs = {}
    for c in range(len(wl.SIM_CELLS)):
        for j in range(wl.SEEDS_PER_CELL):
            op = workload.cell_op(work, c, j)
            refs[op.key] = _values(runner, op)
    return refs


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    work = run.STATE / "record"
    work.mkdir(parents=True, exist_ok=True)
    refs = {"meta": {"source_sha256": source_digest(run.ROOT),
                     "float_rtol": wl.FLOAT_RTOL, "float_atol": wl.FLOAT_ATOL,
                     "threads": run.THREAD_ENV}}
    try:
        for name, fn in (("offset_law", offset_law), ("analyze_series", analyze_series),
                         ("simulate_study", simulate_study)):
            refs[name] = fn(work)
            print(f"{name}: {len(refs[name])} references", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
