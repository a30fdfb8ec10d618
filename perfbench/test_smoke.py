"""Smoke tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench

Each workload runs once per mode at minimal size through the same code
as a full run; the tests check the result line's shape, that every
metric named in BENCHMARK.json is emitted with its unit, and that every
output was checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_and_checks_every_output(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" / "runs" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] == record["attempted"] >= 1
    refused = sum(f["refused"] for f in record["failures"])
    assert record["checked"] == result["attempted"] - refused
    # the one failure expected at this commit is the refusal at the eta guard
    assert all(f["refused"] and f["argv"][:3] == ["dist", "--eta", "0.05"]
               for f in record["failures"])
    assert result["failed"] == refused
    if trace:
        extra = record["extra"]
        assert extra["self_time_sum_s"] == pytest.approx(extra["traced_root_s"], rel=1e-9)
        assert result["metrics"]["trace.spans"]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "offset_law", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
