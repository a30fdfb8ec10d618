#!/usr/bin/env python3
"""Benchmark of the changepoint command line, one workload per run.

    python3 perfbench/run.py --workload offset_law --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``
and driven in-process through ``changepoint.cli.main(argv)``: a closed
loop issues the next command when the previous one returns.  Inputs are
generated from ``--seed`` before any timing.  Every command's output
is checked (see ``workloads.py``); the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` repeats the workload's cycle for about ``--seconds`` of
command time (whole cycles) and reports the end-to-end metrics.
``--trace 1`` runs one untraced cycle, then one cycle with spans at
every layer boundary (``tracing.py``), and reports the per-layer
metrics and the tracing overhead.  ``--smoke`` runs a minimal cycle of
the same workload through the same code.  Details of each run, with the
machine record, go to ``.perfbench/runs/``.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS/OpenMP pools before numpy loads; the program's own
# simulation pool gets two workers.  Children inherit the settings.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CHANGEPOINT_THREADS": "2",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from envinfo import machine_info  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import COBB_RTOL, WORKLOADS, Outcome, check  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_RUNS = 7

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s", "cli.bytes_out": "count",
    "model.self_s": "s", "model.read_csv_s": "s", "model.rows_read": "count",
    "detect.self_s": "s", "detect.mean_change_s": "s", "detect.covariance_change_s": "s",
    "detect.diagnostics_s": "s", "detect.to_json_s": "s",
    "estimators.self_s": "s", "estimators.profile_s": "s", "estimators.split_scatters_s": "s",
    "estimators.split_scatters_calls": "count", "estimators.cobb_conditional_s": "s",
    "estimators.interval_s": "s", "estimators.to_json_s": "s",
    "estimators.known_walk_us_per_call": "us", "estimators.profile_us_per_call": "us",
    "exactdist.self_s": "s", "exactdist.build_pmf_s": "s", "exactdist.variance_s": "s",
    "exactdist.write_s": "s", "exactdist.ladder_builds": "count", "exactdist.ladder_mults": "count",
    "numerics.self_s": "s", "numerics.survival_s": "s", "numerics.calls": "count",
    "montecarlo.self_s": "s", "montecarlo.run_study_s": "s", "montecarlo.reps": "count",
    "montecarlo.self_us_per_rep": "us", "montecarlo.pool_speedup": "x",
    "montecarlo.rep_failures": "count", "montecarlo.cross_worker_mismatch": "count",
    "montecarlo.to_json_s": "s",
    "trace.op_s": "s", "trace.untraced_op_s": "s", "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}

# setup_s: import plus a first warm-up command, timed inside a fresh interpreter.
SETUP_CODE = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from changepoint import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
print(time.perf_counter() - t0 if rc == 0 else "failed")
"""


@dataclass
class Result:
    op: object
    latency: float
    errors: list
    values: dict
    refused: bool
    work: int
    bytes_out: int

    @property
    def failed(self) -> bool:
        return self.refused or bool(self.errors)


class Runner:
    """Issues commands one at a time and checks each output."""

    def __init__(self, workload, refs, cli_main):
        self.workload = workload
        self.refs = refs
        self.cli_main = cli_main

    def run(self, op, tracer=None) -> Result:
        for path in op.outputs:  # a failed command must not leave a stale output behind
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        root = tracer.begin("cli.main") if tracer else -1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli_main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # noqa: BLE001 - keep looping; the op counts as failed and wrong
            rc = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
        latency = perf_counter() - t0
        if tracer:
            tracer.end(root)
        res = Outcome(rc, out.getvalue(), err.getvalue())
        bytes_out = len(res.stdout.encode()) + sum(p.stat().st_size for p in op.outputs if p.exists())
        values, errors, work, refused = {}, [], 0, False
        if rc == 0:
            try:
                values, errors, work = check(self.workload, op, res, self.refs)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"output unreadable: {exc!r}"]
        elif rc == 2 and op.refusal_ok and res.stderr.startswith("error:"):
            refused = True
        else:
            errors = [f"exit {rc}: {res.stderr.strip()[-500:]}"]
        return Result(op, latency, errors, values, refused, work, bytes_out)

    def cycle(self, ops, tracer=None) -> list[Result]:
        os.sync()  # write back earlier outputs now rather than during a timed op
        return [self.run(op, tracer) for op in ops]


def percentile(samples: list[tuple[bool, float]], q: float) -> float:
    """Linear-interpolated percentile of (failed, latency) pairs.

    A failed op ranks after every success; where the percentile reaches
    the failed ops it reports the slowest latency, a finite stand-in for
    "missed".
    """
    keys = sorted(samples)
    h = q * (len(keys) - 1)
    lo = int(h)
    hi = min(lo + 1, len(keys) - 1)
    if keys[hi][0]:
        return max(lat for _, lat in keys)
    return keys[lo][1] + (h - lo) * (keys[hi][1] - keys[lo][1])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure_setup(argv: list[str], runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(argv)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        last = done.stdout.strip().splitlines()[-1:] or ["failed"]
        if done.returncode != 0 or last[0] == "failed":
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()[-500:]}")
        times.append(float(last[0]))
    return times


def timed_run(runner, ops, args, warmup) -> tuple[dict, dict, list[Result]]:
    """Repeat the cycle and report medians, so a stall during one cycle moves no metric.

    Latency percentiles are taken over each op's median across cycles;
    throughputs are the median of the per-cycle throughputs.
    """
    results, busy, cycles = [], 0.0, 0
    while True:  # whole cycles, stopping at the cycle boundary nearest to --seconds
        results += runner.cycle(ops)
        busy = sum(r.latency for r in results)
        cycles += 1
        if args.smoke or busy + 0.5 * busy / cycles >= args.seconds:
            break
    peak = peak_rss_mb()  # before the set-up interpreters become children too
    setups = measure_setup(warmup, 1 if args.smoke else SETUP_RUNS)
    per_op = [results[i::len(ops)] for i in range(len(ops))]
    per_cycle = [results[c * len(ops):(c + 1) * len(ops)] for c in range(cycles)]
    op_medians = [(any(r.failed for r in rs), statistics.median(r.latency for r in rs))
                  for rs in per_op]

    def cycle_rate(amount) -> float:
        return statistics.median(
            sum(amount(r) for r in rs if not r.failed) / sum(r.latency for r in rs)
            for rs in per_cycle
        )

    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * percentile(op_medians, 0.5),
        "op_p90_ms": 1e3 * percentile(op_medians, 0.9),
        "ops_per_s": cycle_rate(lambda r: 1),
        "work_per_s": cycle_rate(lambda r: r.work),
        "peak_rss_mb": peak,
    }
    extra = {"cycles": cycles, "ops_per_cycle": len(ops), "samples": len(results), "busy_s": busy,
             "setup_runs_s": setups, f"{runner.workload.work_unit}_per_s": metrics["work_per_s"],
             "op_latencies_s": {" ".join(op.argv[:3]): [r.latency for r in rs]
                                for op, rs in zip(ops, per_op)}}
    return metrics, extra, results


def traced_run(runner, ops, args) -> tuple[dict, dict, list[Result]]:
    simulate = runner.workload.name == "simulate_study"
    if simulate:  # spans recorded in forked workers would be lost
        os.environ["CHANGEPOINT_THREADS"] = "1"
    untraced = runner.cycle(ops)
    tracer = Tracer()
    with tracer.patched():
        traced = []
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(runner.run(op, tracer))
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_metrics(tracer))
    op_s = sum(r.latency for r in traced)
    base = sum(r.latency for r in untraced)
    self_sum = sum(tracer.self_times())
    root_sum = sum(s[2] - s[1] for s in tracer.spans if s[0] == "cli.main")
    errors = []
    if abs(self_sum - root_sum) > 1e-9 * max(1.0, root_sum):
        errors.append(f"self times add up to {self_sum!r} s, traced op time is {root_sum!r} s")
    metrics.update({
        "cli.bytes_out": sum(r.bytes_out for r in traced),
        "trace.op_s": op_s,
        "trace.untraced_op_s": base,
        "trace.overhead_s": op_s - base,
        "trace.overhead_frac": (op_s - base) / base,
    })
    STATE.joinpath("runs").mkdir(parents=True, exist_ok=True)
    tracer.write_csv(STATE / "runs" / f"spans-{runner.workload.name}.csv")
    results = untraced + traced
    extra = {"self_time_sum_s": self_sum, "traced_root_s": root_sum}
    if simulate:
        one = {op.key: op.outputs[1].read_text() for op in ops}
        metrics["montecarlo.rep_failures"] = sum(runner.workload.rep_failures(op) for op in ops)
        # the same cells with two workers; only run_study is traced in this pass
        os.environ["CHANGEPOINT_THREADS"] = THREAD_ENV["CHANGEPOINT_THREADS"]
        with Tracer().patched(only=("montecarlo.run_study",)) as t2:
            two = runner.cycle(ops, t2)
        results += two
        mismatch, probe = 0, {}
        for op, res in zip(ops, two):
            text = op.outputs[1].read_text()
            if text == one[op.key]:
                continue
            mismatch += 1
            probe[op.key] = _cross_worker_diff(one[op.key], text, COBB_RTOL)
            if probe[op.key]["errors"]:
                res.errors += probe[op.key]["errors"]
        pooled = [i for i, op in enumerate(ops) if op.pooled]
        metrics["montecarlo.cross_worker_mismatch"] = mismatch
        metrics["montecarlo.pool_speedup"] = (
            sum(untraced[i].latency for i in pooled) / sum(two[i].latency for i in pooled)
            if pooled else 0.0
        )
        extra["cross_worker_probe"] = probe
    return metrics, extra | {"errors": errors}, results


def _cross_worker_diff(one: str, two: str, rtol: float) -> dict:
    """known/profile rows must be identical; cobb masses agree within rtol."""
    rows1, rows2 = one.splitlines(), two.splitlines()
    errors, differ, worst = [], 0, 0.0
    if len(rows1) != len(rows2):
        return {"errors": ["1-worker and 2-worker outputs have different rows"], "rows_differ": None}
    for a, b in zip(rows1, rows2):
        if a == b:
            continue
        differ += 1
        ma, ka, va = a.split(",")
        mb, kb, vb = b.split(",")
        rel = abs(float(va) - float(vb)) / max(abs(float(vb)), 1e-300)
        worst = max(worst, abs(float(va) - float(vb)))
        if ma != "cobb" or (ma, ka) != (mb, kb) or rel > rtol:
            errors.append(f"1-worker and 2-worker rows differ: {a!r} vs {b!r}")
    return {"errors": errors, "rows_differ": differ, "max_abs_diff": worst}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal cycle, one set-up run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "changepoint" / "cli.py").is_file():
        print(f"error: no changepoint package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from changepoint import cli

    workload = WORKLOADS[args.workload]
    refs = json.loads((BENCH / "reference.json").read_text())[workload.name]
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.build(args.seed, work, args.smoke, refs)
        warmup = workload.warmup(work)
        runner = Runner(workload, refs, cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            warm_rc = runner.cli_main(warmup)
        if warm_rc != 0:
            raise RuntimeError(f"warm-up command failed: {warmup}")
        if args.trace:
            metrics, extra, results = traced_run(runner, ops, args)
        else:
            metrics, extra, results = timed_run(runner, ops, args, warmup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = [r for r in results if r.failed]
    wrong = [r for r in results if r.errors] or extra.get("errors")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine_info(ROOT),
        "metrics": metrics, "extra": extra,
        "attempted": len(results), "failed": len(failed),
        "failed_frac": len(failed) / len(results),
        "checked": sum(1 for r in results if r.values),
        "failures": [{"argv": r.op.argv, "refused": r.refused, "errors": r.errors} for r in failed],
    }
    STATE.joinpath("runs").mkdir(parents=True, exist_ok=True)
    (STATE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"ops attempted {len(results)} failed {len(failed)} "
          f"(failed_frac {record['failed_frac']:.4f}), outputs checked {record['checked']}")
    for r in failed:
        print(f"  failed: {' '.join(r.op.argv[:3])} ... "
              f"{'refused (exit 2)' if r.refused else '; '.join(r.errors)[:300]}")
    for key, val in extra.items():
        if key != "op_latencies_s":
            print(f"{key}: {val}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
