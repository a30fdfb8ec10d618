"""The three benchmark workloads: seeded inputs, operation lists, checks.

Every workload is a fixed *multiset* of operation shapes (eta levels,
series sizes, study cells) whose cost is known to dominate; the seed
draws everything else: the order of the cycle, the data series, change
positions, interval parameters and Monte Carlo master seeds.  A run
repeats the same cycle, so per-run medians and throughputs measure the
program rather than which heavy-tailed sizes a seed happened to draw.

Inputs that feed reference checks come from finite pools (eta grid,
series variants, master seeds) whose outputs ``record.py`` stored in
``reference.json``.  Each operation is checked twice: against
properties that any correct output has, and against that reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerance for floats read back from the program's 17-digit output.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-15
# Values the CLI only prints with six decimals (keys ending in "_printed").
PRINT_ATOL = 1.5e-6
# Highest super-unity excess of the closed-form law: README documents 2.1%
# at eta = 1; over eta in [0.1, 4] the excess peaks at 2.63% near eta = 0.56.
MAX_EXCESS = 0.03
# Monte Carlo cobb tallies across worker counts (test_study_parallel_matches_serial).
COBB_RTOL = 1e-9


@dataclass
class Op:
    """One CLI command of a workload cycle."""

    kind: str  # dist | ci | analyze | detect | simulate
    key: str  # reference key; "" when no reference applies
    argv: list[str]
    outputs: tuple[Path, ...]
    info: dict = field(default_factory=dict)
    refusal_ok: bool = False  # an exit-2 refusal counts as failed, not as wrong
    pooled: bool = False  # simulate cell large enough for the process pool


@dataclass
class Outcome:
    rc: object  # exit code, or a description of an uncaught exception
    stdout: str
    stderr: str


def _rng(tag: int, seed: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, *more])


def _close(got, want, atol: float) -> bool:
    return isinstance(got, (int, float)) and not isinstance(got, bool) and (
        abs(got - want) <= atol + FLOAT_RTOL * abs(want)
    )


def compare(values: dict, ref: dict) -> list[str]:
    """Integers, flags and strings must match exactly; floats within tolerance."""
    errs = []
    for name, want in ref.items():
        got = values.get(name, "<missing>")
        atol = PRINT_ATOL if name.endswith("_printed") else FLOAT_ATOL
        if isinstance(want, float):
            ok = _close(got, want, atol)
        elif isinstance(want, list):
            ok = isinstance(got, list) and len(got) == len(want) and all(
                _close(g, w, atol) if isinstance(w, float) else g == w and type(g) is type(w)
                for g, w in zip(got, want)
            )
        else:
            ok = got == want and type(got) is type(want)
        if not ok:
            errs.append(f"{name}: got {got!r}, reference {want!r}")
    return errs


def _printed(stdout: str, label: str) -> str | None:
    m = re.search(rf"^{re.escape(label)}: (\S+)", stdout, re.M)
    return m.group(1) if m else None


# --- offset_law ------------------------------------------------------------

ETA_STEPS = 16
# Midpoints of 16 equal log-steps over [0.1, 4]: one eta per step and op kind
# keeps each cycle's cost the same for every seed (cost grows like eta^-4).
ETA_GRID = tuple(f"{0.1 * 40 ** ((i + 0.5) / ETA_STEPS):.4g}" for i in range(ETA_STEPS))
LEVELS = ("0.8", "0.9", "0.95", "0.99")
GUARD_ETA = "0.05"  # the documented ETA_GUARD


class OffsetLaw:
    """``dist`` and ``ci`` over eta, plus the op at the eta guard."""

    name = "offset_law"
    work_unit = "points"  # support points 2K+1 of each computed law

    def warmup(self, work: Path) -> list[str]:
        return ["ci", "--eta", "1.0", "--level", "0.95", "--tau", "20", "--n", "40"]

    def build(self, seed: int, work: Path, smoke: bool, refs: dict | None) -> list[Op]:
        rng = _rng(1, seed)
        steps = range(ETA_STEPS - 4, ETA_STEPS) if smoke else range(ETA_STEPS)
        verify_parity = int(rng.integers(2))
        edge = set(rng.choice(list(steps), size=max(1, len(steps) // 4), replace=False).tolist())
        ops = []
        for i in steps:
            eta = ETA_GRID[i]
            out = work / f"dist{i}.csv"
            argv = ["dist", "--eta", eta, "--out", str(out)]
            if i % 2 == verify_parity:
                argv.append("--verify")
            ops.append(Op("dist", eta, argv, (out, out.with_suffix(".json")), {"eta": eta}))

            level = LEVELS[int(rng.integers(len(LEVELS)))]
            n = int(round(math.exp(rng.uniform(math.log(100), math.log(1e5)))))
            if i in edge:  # within three of an end, so the interval is clipped
                off = int(rng.integers(1, 4))
                tau = off if rng.integers(2) else n - off
            else:
                tau = int(rng.integers(1, n))
            out = work / f"ci{i}.json"
            argv = ["ci", "--eta", eta, "--level", level, "--tau", str(tau), "--n", str(n),
                    "--out", str(out)]
            origin = None
            if rng.integers(2):
                origin = int(rng.integers(1700, 2000))
                argv += ["--origin", str(origin)]
            ops.append(Op("ci", f"{eta}|{level}", argv, (out,),
                          {"eta": eta, "level": level, "tau": tau, "n": n, "origin": origin}))
        out = work / "guard.csv"
        ops.append(Op("dist", "", ["dist", "--eta", GUARD_ETA, "--out", str(out)],
                      (out, out.with_suffix(".json")), {"eta": GUARD_ETA}, refusal_ok=True))
        return [ops[i] for i in rng.permutation(len(ops))]

    def extract(self, op: Op, res: Outcome):
        return _extract_dist(op, res) if op.kind == "dist" else _extract_ci(op, res)


def _extract_dist(op: Op, res: Outcome):
    errs = []
    csv_path, json_path = op.outputs
    with open(csv_path, encoding="utf-8") as fh:
        if fh.readline().strip() != "k,prob":
            return {}, ["CSV header is not 'k,prob'"], 0
        ks, ps = [], []
        for line in fh:
            k, p = line.split(",")
            ks.append(int(k))
            ps.append(float(p))
    K = (len(ks) - 1) // 2
    if ks != list(range(-K, K + 1)):
        errs.append("CSV offsets are not -K..K in order")
    if ps != ps[::-1]:
        errs.append("CSV masses are not symmetric")
    with open(json_path, encoding="utf-8") as fh:
        sib = json.load(fh)
    if sib["K"] != K or sib["probs"] != ps or sib["eta"] != float(op.info["eta"]):
        errs.append("JSON sibling disagrees with the CSV")
    total = math.fsum(ps)
    tail = sib["tail_mass_bound"]
    if not (1.0 - tail - 1e-12 <= total <= 1.0 + MAX_EXCESS):
        errs.append(f"total mass {total!r} outside [1 - tail bound, 1 + {MAX_EXCESS}]")
    second = math.fsum(k * k * p for k, p in zip(ks, ps))
    printed_k = _printed(res.stdout, "support halfwidth K")
    variance = float(_printed(res.stdout, "variance") or "nan")
    if printed_k != str(K):
        errs.append(f"printed K {printed_k} differs from the CSV's {K}")
    if not abs(second - variance) <= 1e-6 * max(1.0, variance):
        errs.append(f"second moment {second!r} differs from printed variance {variance!r}")
    if "--verify" in op.argv and "round trip verified bit-exact" not in res.stdout:
        errs.append("--verify did not report a bit-exact round trip")
    values = {"K": K, "prob0": ps[K], "total": total, "tail": tail, "variance_printed": variance}
    return values, errs, 2 * K + 1


def _extract_ci(op: Op, res: Outcome):
    errs = []
    with open(op.outputs[0], encoding="utf-8") as fh:
        iv = json.load(fh)
    tau, n, origin = op.info["tau"], op.info["n"], op.info["origin"]
    m = iv["halfwidth"]
    lo, hi = iv["lo"], iv["hi"]
    if not (1 <= lo <= tau <= hi <= n - 1):
        errs.append(f"interval [{lo}, {hi}] not inside [1, {n - 1}] around tau={tau}")
    if (lo, hi) != (max(1, tau - m), min(n - 1, tau + m)):
        errs.append(f"interval [{lo}, {hi}] is not tau +- {m} clipped to the sample")
    if iv["clipped"] != (tau - m < 1 or tau + m > n - 1):
        errs.append("clipped flag is wrong")
    want_cal = None if origin is None else [origin + lo - 1, origin + hi - 1]
    if iv["calendar"] != want_cal or iv["level"] != float(op.info["level"]):
        errs.append("calendar labels or level echo are wrong")
    return {"halfwidth": m, "achieved": iv["achieved"]}, errs, 0


# --- analyze_series --------------------------------------------------------

N_STEPS = 5
# Midpoints of 5 log-steps over n in [1e3, 1e5] and over the shift in [0.4, 3];
# the pmf cost depends on the shift, so each (d, size) pairs with a fixed
# shift step: (2 * step + d) mod 5 permutes the steps for d = 1 and d = 3.
N_GRID = tuple(round(1e3 * 100 ** ((i + 0.5) / N_STEPS)) for i in range(N_STEPS))
SHIFT_GRID = tuple(0.4 * 7.5 ** ((j + 0.5) / N_STEPS) for j in range(N_STEPS))
DIMS = (1, 3)
DETECT_CELLS = ((1, 4), (3, 0), (3, 2))  # about one file in four
NULL_CELLS = ((1, 3), (3, 1))  # series without a change
SERIES_VARIANTS = 8


def series_key(d: int, step: int, variant: int, null: bool) -> str:
    return f"{'null-' if null else ''}d{d}n{step}v{variant}"


def series_csv(d: int, step: int, variant: int, null: bool, salt: int = 0) -> str:
    """CSV text of one pool series: header row, then one time point per row.

    Correlated Gaussian noise with covariance A A'; the shift after tau is
    A (s u) for a unit vector u, so its Mahalanobis size is exactly s.
    Univariate files carry a leading calendar ``time`` column.
    """
    rng = _rng(2, d, step, variant, int(null), salt)
    n = N_GRID[step]
    tau = int(rng.integers(int(0.15 * n), int(0.85 * n)))
    A = np.tril(rng.uniform(-0.5, 0.5, (d, d)), -1) + np.diag(np.exp(rng.uniform(-0.7, 1.1, d)))
    x = rng.uniform(-10, 10, d) + rng.standard_normal((n, d)) @ A.T
    if not null:
        u = rng.standard_normal(d)
        x[tau:] += A @ (SHIFT_GRID[(2 * step + d) % N_STEPS] * u / np.linalg.norm(u))
    cols = [f"y{j + 1}" for j in range(d)]
    rows = [",".join(format(v, ".10g") for v in row) for row in x.tolist()]
    if d == 1:
        origin = int(rng.integers(1000, 3000))
        cols.insert(0, "time")
        rows = [f"{origin + r},{row}" for r, row in enumerate(rows)]
    return ",".join(cols) + "\n" + "\n".join(rows) + "\n"


class AnalyzeSeries:
    """``analyze`` on synthetic CSVs, plus ``detect`` on about one in four."""

    name = "analyze_series"
    work_unit = "values"  # n * d input values

    def warmup(self, work: Path) -> list[str]:
        path = work / "warmup.csv"
        rng = _rng(3, 0)
        x = rng.standard_normal(200)
        x[80:] += 1.0
        path.write_text("y\n" + "\n".join(format(v, ".10g") for v in x) + "\n")
        return ["analyze", "--in", str(path), "--out", str(work / "warmup.json")]

    def cells(self, smoke: bool):
        if smoke:
            return [(1, 0, False), (3, 0, False), (3, 1, True)]
        return [(d, i, False) for d in DIMS for i in range(N_STEPS)] + [
            (d, i, True) for d, i in NULL_CELLS
        ]

    def build(self, seed: int, work: Path, smoke: bool, refs: dict | None) -> list[Op]:
        rng = _rng(4, seed)
        ops = []
        for d, i, null in self.cells(smoke):
            v = int(rng.integers(SERIES_VARIANTS))
            key = series_key(d, i, v, null)
            salt = refs[key]["salt"] if null and refs else 0
            ops += self.series_ops(work, d, i, v, null, salt)
        return [ops[i] for i in rng.permutation(len(ops))]

    def series_ops(self, work: Path, d: int, i: int, v: int, null: bool, salt: int) -> list[Op]:
        key = series_key(d, i, v, null)
        path = work / f"{key}.csv"
        path.write_text(series_csv(d, i, v, null, salt))
        info = {"n": N_GRID[i], "d": d, "path": str(path)}
        out = work / f"{key}.analyze.json"
        ops = [Op("analyze", key, ["analyze", "--in", str(path), "--out", str(out)], (out,), info)]
        if (d, i) in DETECT_CELLS and not null:
            out = work / f"{key}.detect.json"
            ops.append(Op("detect", "detect:" + key,
                          ["detect", "--in", str(path), "--out", str(out)], (out,), info))
        return ops

    def extract(self, op: Op, res: Outcome):
        with open(op.outputs[0], encoding="utf-8") as fh:
            rep = json.load(fh)
        work = op.info["n"] * op.info["d"]
        if op.kind == "detect":
            return _extract_detect(rep), [], work
        return (*_extract_analyze(op, rep), work)


def _trace_argmax(trace: list) -> int:
    return int(np.nanargmax(np.array(trace, dtype=float))) + 1  # None reads as nan


def _extract_detect(rep: dict) -> dict:
    mean, cov = rep["mean"], rep["covariance_on_deviations"]
    values = {"m_tau": mean["tau_hat"], "m_U": mean["U"], "m_p": mean["p_value"]}
    if cov is not None:
        values.update(c_tau=cov["tau_hat"], c_U=cov["U"], c_p=cov["p_value"])
    return values


def _extract_analyze(op: Op, rep: dict):
    errs = []
    n, d = op.info["n"], op.info["d"]
    if (rep["n"], rep["d"], rep["input"]) != (n, d, op.info["path"]):
        errs.append("report does not echo the input size and path")
    det = rep["detection"]
    if _trace_argmax(det["trace"]) != det["tau_hat"]:
        errs.append("detection tau_hat is not the argmax of its trace")
    values = {"significant": rep["significant"], "det_tau": det["tau_hat"], "U": det["U"],
              "p_value": det["p_value"]}
    if not rep["significant"]:
        return values, errs
    est, dist, ivs = rep["estimation"], rep["distribution"], rep["intervals"]
    tau_hat = est["tau_hat"]
    if _trace_argmax(est["criterion"]) != tau_hat:
        errs.append("tau_hat is not the argmax of the profile criterion")
    diag = rep["diagnostics"]
    mahal = math.fsum(diag["mahalanobis_sq"]) / n
    if abs(mahal - d * (n - 2) / n) > 1e-9 * d:
        errs.append(f"mean squared Mahalanobis norm {mahal!r} is not d(n-2)/n")
    dev = np.asarray(diag["deviations"])
    scale = np.sqrt(np.asarray(diag["sigma_pooled"]).diagonal())
    if np.abs(dev[:tau_hat].sum(axis=0)).max() > 1e-8 * n * scale.max() or (
        np.abs(dev[tau_hat:].sum(axis=0)).max() > 1e-8 * n * scale.max()
    ):
        errs.append("deviations do not sum to zero within each segment")
    unc, cond = ivs["unconditional"], ivs["conditional"]
    for name, iv in (("unconditional", unc), ("conditional", cond)):
        if iv is not None and not (1 <= iv["lo"] <= tau_hat <= iv["hi"] <= n - 1):
            errs.append(f"{name} interval [{iv['lo']}, {iv['hi']}] misses tau_hat={tau_hat}")
    values.update(
        tau_hat=tau_hat, eta_hat=rep["eta_hat"], K=dist["K"], prob0=dist["prob0"],
        variance=dist["variance"], delta=ivs["delta"], u_lo=unc["lo"], u_hi=unc["hi"],
        u_halfwidth=unc["halfwidth"], u_achieved=unc["achieved"], u_clipped=unc["clipped"],
        c_lo=None if cond is None else cond["lo"], c_hi=None if cond is None else cond["hi"],
        c_achieved=None if cond is None else cond["achieved"],
    )
    return values, errs


# --- simulate_study --------------------------------------------------------

POOL_THRESHOLD = 20_000  # montecarlo._worker_count pools at this many replications
# Fixed cells; the seed picks one master seed per cell from SEEDS_PER_CELL.
SIM_CELLS = (
    {"n": 100, "tau": 50, "eta": 1.0, "modes": "known", "reps": 20_000},
    {"n": 100, "tau": 40, "eta": 1.5, "modes": "known, cobb", "reps": 20_000},
    {"n": 40, "tau": 20, "eta": 1.5, "modes": "profile", "reps": 4_000},
    {"n": 100, "tau": 50, "eta": 1.5, "d": 3, "modes": "profile", "reps": 2_000},
    {"n": 100, "tau": 50, "eta": 1.0, "family": "student_t", "nu": 5,
     "modes": "known, profile", "reps": 2_000},
    {"n": 100, "tau": 60, "eta": 2.0, "modes": "cobb", "reps": 3_000},
    {"n": 40, "tau": 25, "eta": 1.0, "modes": "known, cobb", "delta": 5, "reps": 1_000},
    {"n": 60, "tau": 20, "eta": 1.2, "modes": "known", "reps": 1_000},
)
SMOKE_CELLS = (0, 7)
SEEDS_PER_CELL = 8


def master_seed(cell: int, j: int) -> int:
    return 7919 * (SEEDS_PER_CELL * cell + j) + 101


class SimulateStudy:
    """Seeded ``simulate`` cells across modes, families and both pool paths."""

    name = "simulate_study"
    work_unit = "reps"

    def warmup(self, work: Path) -> list[str]:
        conf = work / "warmup.conf"
        conf.write_text("n = 40\ntau = 20\neta = 1.0\nmodes = known\nreps = 200\n")
        return ["simulate", "--in", str(conf), "--seed", "1", "--out", str(work / "warmup.json")]

    def build(self, seed: int, work: Path, smoke: bool, refs: dict | None) -> list[Op]:
        rng = _rng(5, seed)
        ops = [self.cell_op(work, c, int(rng.integers(SEEDS_PER_CELL)))
               for c in (SMOKE_CELLS if smoke else range(len(SIM_CELLS)))]
        return [ops[i] for i in rng.permutation(len(ops))]

    def cell_op(self, work: Path, c: int, j: int) -> Op:
        cell = SIM_CELLS[c]
        conf = work / f"cell{c}.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in cell.items()))
        out = work / f"cell{c}.json"
        argv = ["simulate", "--in", str(conf), "--seed", str(master_seed(c, j)), "--out", str(out)]
        return Op("simulate", f"c{c}s{j}", argv, (out, out.with_suffix(".csv")),
                  {"reps": cell["reps"]}, pooled=cell["reps"] >= POOL_THRESHOLD)

    def extract(self, op: Op, res: Outcome):
        errs = []
        with open(op.outputs[0], encoding="utf-8") as fh:
            rep = json.load(fh)
        csv_text = op.outputs[1].read_text(encoding="utf-8")
        reps = op.info["reps"]
        cfg = rep["config"]
        if (cfg["replications"], cfg["master_seed"]) != (reps, int(op.argv[4])):
            errs.append("report does not echo the replication count and seed")
        exact, cobb_k, cobb_v = [], [], []
        tallies: dict[str, float] = {}
        for line in csv_text.splitlines()[1:]:
            mode, k, v = line.split(",")
            tallies[mode] = tallies.get(mode, 0.0) + float(v)
            if mode == "cobb":
                cobb_k.append(int(k))
                cobb_v.append(float(v))
            else:
                exact.append(line)
        for mode, total in tallies.items():
            want = reps - rep["failures"][mode]
            if abs(total - want) > 1e-6 * reps:
                errs.append(f"{mode} tallies sum to {total!r}, expected {want}")
        values = {
            "exact_sha256": hashlib.sha256("\n".join(exact).encode()).hexdigest(),
            "cobb_offsets": cobb_k,
            "cobb_counts": cobb_v,
            "tv": [rep["tv"][m] for m in sorted(rep["tv"])],
        }
        return values, errs, reps

    @staticmethod
    def rep_failures(op: Op) -> int:
        with open(op.outputs[0], encoding="utf-8") as fh:
            return sum(json.load(fh)["failures"].values())


WORKLOADS = {w.name: w for w in (OffsetLaw(), AnalyzeSeries(), SimulateStudy())}


def check(workload, op: Op, res: Outcome, refs: dict | None) -> tuple[dict, list[str], int]:
    """Extracted values, property errors plus reference mismatches, and the op's work."""
    values, errs, work = workload.extract(op, res)
    if refs is not None and op.key:
        ref = refs.get(op.key)
        if ref is None:
            errs.append(f"no reference recorded for {op.key}")
        else:
            errs += compare(values, {k: v for k, v in ref.items() if k != "salt"})
    if op.kind == "ci" and refs is not None:
        work = 2 * refs[op.info["eta"]]["K"] + 1
    return values, errs, work
