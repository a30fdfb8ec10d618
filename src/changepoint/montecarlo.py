"""Seeded simulation engine: study runner and brute-force oracles.

Reproducibility contract: replication ``rep_index`` draws from the
master-keyed Philox stream at counter block ``[0, 0, rep_index, 0]``,
the stream ``jumped(rep_index)`` defines ("philox-jumped").  Identical
(master_seed, rep_index) pairs therefore give bit-identical data no
matter how replications are batched, ordered, or spread across worker
processes.  Replications are tallied in fixed chunks of 10,000 whose
sums are added in chunk order, so reports are bit-identical for every
worker count.

The environment variable CHANGEPOINT_THREADS bounds process-level
parallelism of :func:`run_study` (unset or 0 means all available cores,
1 forces serial execution).
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DegenerateDataError
from .estimators import cobb_window, default_cobb_delta, known_walk, profile_criterion
from .exactdist import Pmf
from .model import Dataset, MultivariateOrigin, UnivariateOrigin
from . import errors as _errors

__all__ = [
    "SimConfig",
    "SimulationReport",
    "LadderOracleResult",
    "generate_sequence",
    "run_study",
    "tv_distance",
    "oracle_xi_infinity",
    "ladder_oracle",
    "default_horizon",
    "report_to_json",
    "report_to_csv",
]

_FAMILIES = ("gaussian", "student_t", "chi_square")
_MODES = ("known", "profile", "cobb")
_SEED_SCHEME = "philox-jumped"
_ORACLE_BATCH = 1 << 14  # fixed: changing it would change the oracle streams
# Fixed: the chunk bounds set the order of the floating-point partial sums.
_CHUNK_REPS = 10_000


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: sample geometry, change size, noise, modes."""

    n: int
    tau: int
    eta: float
    replications: int
    master_seed: int
    d: int = 1
    family: str = "gaussian"
    nu: float | None = None
    modes: tuple[str, ...] = ("known",)
    cobb_delta: int | None = None

    def __post_init__(self):
        if not (1 <= self.tau <= self.n - 1):
            raise ConfigurationError(f"tau must be in [1, n-1], got tau={self.tau}, n={self.n}")
        if self.n < 4:
            raise ConfigurationError(f"n must be >= 4, got {self.n}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ConfigurationError(f"eta must be positive, got {self.eta!r}")
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.nu is not None and not np.isfinite(self.nu):
            raise ConfigurationError(f"nu must be finite, got {self.nu!r}")
        if self.family == "student_t":
            if self.nu is None or self.nu <= 2:
                raise ConfigurationError(
                    f"student_t needs nu > 2 for unit-variance standardization, got {self.nu!r}"
                )
        if self.family == "chi_square" and (self.nu is None or self.nu <= 0):
            raise ConfigurationError(f"chi_square needs nu > 0, got {self.nu!r}")
        if self.replications < 1:
            raise ConfigurationError(f"replications must be >= 1, got {self.replications}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigurationError("master_seed must be a 64-bit unsigned integer")
        modes = tuple(self.modes)
        if not modes or any(m not in _MODES for m in modes):
            raise ConfigurationError(f"modes must be a non-empty subset of {_MODES}, got {modes}")
        if len(set(modes)) != len(modes):
            raise ConfigurationError(f"duplicate modes in {modes}")
        object.__setattr__(self, "modes", modes)
        if "profile" in modes and self.d > 1 and self.n < 2 * self.d + 2:
            # profile_criterion's admissible splits [d+1, n-d-1] are empty
            raise ConfigurationError(
                f"profile mode at d={self.d} needs n >= {2 * self.d + 2}, got n={self.n}"
            )
        if self.cobb_delta is not None and self.cobb_delta < 1:
            raise ConfigurationError(f"cobb_delta must be >= 1, got {self.cobb_delta}")


def _rep_rng(master_seed: int, rep_index: int) -> np.random.Generator:
    # counter block [0, 0, rep_index, 0], where jumped(rep_index) lands
    return np.random.Generator(np.random.Philox(key=master_seed, counter=rep_index << 128))


def _draw_series(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    shape = (config.n, config.d)
    if config.family == "gaussian":
        noise = rng.standard_normal(shape)
    elif config.family == "student_t":
        noise = rng.standard_t(config.nu, shape) * np.sqrt((config.nu - 2.0) / config.nu)
    else:  # chi_square, standardized to mean 0 variance 1
        noise = (rng.chisquare(config.nu, shape) - config.nu) / np.sqrt(2.0 * config.nu)
    noise[config.tau :, 0] += config.eta
    return noise


def generate_sequence(config: SimConfig, rep_index: int) -> Dataset:
    """Replication ``rep_index`` of the configured cell, as a Dataset.

    Rows 1..tau have mean zero; later rows are shifted by eta along the
    first coordinate (unit noise scale), so the standardized change is
    eta for every d.  Deterministic in (master_seed, rep_index).
    """
    if rep_index < 0:
        raise ConfigurationError(f"rep_index must be >= 0, got {rep_index}")
    return Dataset(_draw_series(config, _rep_rng(config.master_seed, rep_index)))


def _known_origin(config: SimConfig) -> UnivariateOrigin | MultivariateOrigin:
    """The generating parameters of a cell, for the known-parameter walk."""
    if config.d == 1:
        return UnivariateOrigin(0.0, config.eta, 1.0)
    mu2 = np.zeros(config.d)
    mu2[0] = config.eta
    return MultivariateOrigin(np.zeros(config.d), mu2, np.eye(config.d))


def tv_distance(p: Mapping[int, float], q: Mapping[int, float]) -> float:
    """Half the L1 distance between two integer-supported distributions."""
    keys = set(p) | set(q)
    return 0.5 * float(sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys))


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates of one cell; counts are per mode over offsets tau_hat - tau.

    For the cobb mode the "counts" are accumulated conditional masses
    (fractional), re-centered at the true change-point, and
    ``cobb_mass_at_center`` averages the conditional mass at the
    estimate itself (offset l = 0 of each window).
    """

    config: SimConfig
    empirical: dict[str, dict[int, float]]
    tv: dict[str, float]
    bias: dict[str, float]
    mse: dict[str, float]
    failures: dict[str, int]
    cobb_mass_at_center: float | None = None
    cobb_clamped: int = 0


def _accumulate_range(config: SimConfig, start: int, stop: int):
    """Partial sums over replications [start, stop)."""
    n, tau = config.n, config.tau
    width = n - 1  # offset index = tau_hat - 1
    counts = {m: np.zeros(width) for m in config.modes}
    failures = dict.fromkeys(config.modes, 0)
    cobb_center = 0.0
    cobb_clamped = 0
    need_known_walk = "known" in config.modes or "cobb" in config.modes
    origin = _known_origin(config) if need_known_walk else None
    delta = config.cobb_delta

    for i in range(start, stop):
        series = _draw_series(config, _rep_rng(config.master_seed, i))
        walk = known_walk(series, origin) if need_known_walk else None
        if "known" in config.modes:
            counts["known"][int(np.argmax(walk))] += 1.0
        if "profile" in config.modes:
            try:
                trace = profile_criterion(series)
                counts["profile"][int(np.nanargmax(trace))] += 1.0
            except _errors.ChangePointError:
                failures["profile"] += 1
        if "cobb" in config.modes:
            tau_hat = int(np.argmax(walk)) + 1
            d_r = delta if delta is not None else default_cobb_delta(tau_hat, n)
            d_eff = min(d_r, tau_hat - 1, n - 1 - tau_hat)
            if d_eff < d_r:
                cobb_clamped += 1
            w = cobb_window(walk, tau_hat, d_eff)
            counts["cobb"][tau_hat - d_eff - 1 : tau_hat + d_eff] += w
            cobb_center += float(w[d_eff])
    return counts, failures, cobb_center, cobb_clamped


def _worker_count(replications: int) -> int:
    raw = os.environ.get("CHANGEPOINT_THREADS", "").strip()
    if raw in ("", "0"):
        workers = os.cpu_count() or 1
    else:
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(f"CHANGEPOINT_THREADS must be an integer, got {raw!r}")
        if workers < 1:
            workers = os.cpu_count() or 1
    # below ~20k replications the fork overhead dominates
    return 1 if replications < 20_000 else workers


def run_study(config: SimConfig, theoretical: Pmf) -> SimulationReport:
    """Run every replication of a cell and compare against the exact law.

    Each requested mode re-estimates the change-point per replication;
    offsets tau_hat - tau are tallied, then total variation distance to
    ``theoretical``, bias, and mean squared error are computed from the
    tallies.  Replication failures (degenerate splits) are counted and
    reported; the run aborts only if they exceed 0.1% of replications.
    """
    if abs(theoretical.eta - config.eta) > 1e-12:
        raise ConfigurationError(
            f"theoretical pmf was built for eta={theoretical.eta}, cell has eta={config.eta}"
        )
    R = config.replications
    starts = list(range(0, R, _CHUNK_REPS))
    stops = starts[1:] + [R]
    workers = min(_worker_count(R), len(starts))
    if workers == 1:
        parts = [_accumulate_range(config, a, b) for a, b in zip(starts, stops)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_accumulate_range, [config] * len(starts), starts, stops))

    chunk_counts, chunk_failures, chunk_centers, chunk_clamped = zip(*parts)
    counts = {m: sum(c[m] for c in chunk_counts) for m in config.modes}
    failures = {m: sum(f[m] for f in chunk_failures) for m in config.modes}
    # plain left-to-right float additions: from Python 3.12 sum() compensates
    cobb_center = reduce(operator.add, chunk_centers)
    cobb_clamped = sum(chunk_clamped)

    for m, nfail in failures.items():
        if nfail > 0.001 * R:
            raise DegenerateDataError(
                f"{nfail} of {R} replications failed in mode {m!r} (> 0.1%)"
            )

    offsets = np.arange(1, config.n) - config.tau
    theo = theoretical.as_mapping()
    empirical: dict[str, dict[int, float]] = {}
    tv: dict[str, float] = {}
    bias: dict[str, float] = {}
    mse: dict[str, float] = {}
    for m in config.modes:
        total = counts[m].sum()
        emp = {int(o): float(c) for o, c in zip(offsets, counts[m]) if c != 0.0}
        empirical[m] = emp
        freq = {k: v / total for k, v in emp.items()}
        tv[m] = tv_distance(freq, theo)
        bias[m] = float(np.dot(offsets, counts[m]) / total)
        mse[m] = float(np.dot(offsets * offsets, counts[m]) / total)
    return SimulationReport(
        config=config,
        empirical=empirical,
        tv=tv,
        bias=bias,
        mse=mse,
        failures=failures,
        cobb_mass_at_center=(cobb_center / R if "cobb" in config.modes else None),
        cobb_clamped=cobb_clamped,
    )


def default_horizon(eta: float, bound: float = 1e-6) -> int:
    """Smallest horizon h with 4 exp(-eta^2 h / 8) below ``bound``."""
    return int(np.ceil(8.0 * np.log(4.0 / bound) / (eta * eta)))


def _walk_batches(eta: float, arms: int, length: int, replications: int, seed: int):
    """``arms`` limiting walks (drift -eta^2/2, step sd eta) per replication, in
    batches of _ORACLE_BATCH; each batch is one draw, filled first arm first."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for done in range(0, replications, _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, replications - done)
        steps = rng.normal(-eta * eta / 2.0, eta, (arms, m, length))
        yield np.cumsum(steps, axis=2, out=steps)


def oracle_xi_infinity(
    eta: float, horizon: int, replications: int, seed: int
) -> dict[int, float]:
    """Brute-force law of the two-sided argmax, as offset -> frequency.

    Simulates both arms of the limiting walk (drift -eta^2/2, variance
    eta^2 per step) out to ``horizon`` and takes the smallest-|k| argmax
    with the origin's value fixed at 0.  The horizon must make the
    beyond-horizon argmax probability bound 4 exp(-eta^2 h / 8) smaller
    than 1e-6.
    """
    if 4.0 * np.exp(-eta * eta * horizon / 8.0) >= 1e-6:
        raise ConfigurationError(
            f"horizon {horizon} leaves argmax-beyond-horizon bound above 1e-6 "
            f"(need >= {default_horizon(eta)})"
        )
    counts = np.zeros(2 * horizon + 1, dtype=np.int64)
    for pos, neg in _walk_batches(eta, 2, horizon, replications, seed):
        max_p = pos.max(axis=1)
        max_n = neg.max(axis=1)
        arg_p = pos.argmax(axis=1) + 1
        arg_n = neg.argmax(axis=1) + 1
        k = np.where(
            (max_p <= 0.0) & (max_n <= 0.0),
            0,
            np.where(max_p > max_n, arg_p, -arg_n),
        )
        np.add.at(counts, k + horizon, 1)
    return {
        int(k): float(c) / replications
        for k, c in zip(range(-horizon, horizon + 1), counts)
        if c
    }


@dataclass(frozen=True)
class LadderOracleResult:
    """MC estimates of the descent-survival sequences with standard errors."""

    eta: float
    replications: int
    q_hat: np.ndarray
    q_se: np.ndarray
    q_tilde_hat: np.ndarray
    q_tilde_se: np.ndarray


def ladder_oracle(eta: float, nmax: int, replications: int, seed: int) -> LadderOracleResult:
    """Estimate q_k = P(T- > k) and q~_k = E[e^{-S_k} 1{T- > k}] for k <= nmax."""
    if nmax < 1:
        raise ConfigurationError(f"nmax must be >= 1, got {nmax}")
    sum_q = np.zeros(nmax)
    sum_w = np.zeros(nmax)
    sum_w2 = np.zeros(nmax)
    for (S,) in _walk_batches(eta, 1, nmax, replications, seed):
        alive = np.minimum.accumulate(S > 0.0, axis=1)
        sum_q += alive.sum(axis=0)
        w = np.exp(-S, where=alive, out=np.zeros_like(S)) * alive
        sum_w += w.sum(axis=0)
        sum_w2 += (w * w).sum(axis=0)
    R = replications
    q_hat = np.concatenate([[1.0], sum_q / R])
    q_se = np.concatenate([[0.0], np.sqrt(np.clip(q_hat[1:] * (1 - q_hat[1:]), 0, None) / R)])
    qt_hat = np.concatenate([[1.0], sum_w / R])
    var_w = np.clip(sum_w2 / R - (sum_w / R) ** 2, 0.0, None)
    qt_se = np.concatenate([[0.0], np.sqrt(var_w / R)])
    return LadderOracleResult(
        eta=eta, replications=R, q_hat=q_hat, q_se=q_se, q_tilde_hat=qt_hat, q_tilde_se=qt_se
    )


# --- serialization -------------------------------------------------------

def report_to_json(report: SimulationReport) -> dict:
    """The study cell as a JSON-ready record."""
    return {
        "config": {**asdict(report.config), "seed_scheme": _SEED_SCHEME},
        "empirical": {m: {str(k): v for k, v in sorted(emp.items())} for m, emp in report.empirical.items()},
        "tv": report.tv,
        "bias": report.bias,
        "mse": report.mse,
        "failures": report.failures,
        "cobb_mass_at_center": report.cobb_mass_at_center,
        "cobb_clamped": report.cobb_clamped,
    }


def report_to_csv(report: SimulationReport, path) -> None:
    """Flat `mode,offset,count` rows, offsets ascending within each mode."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,offset,count\n")
        for m in report.config.modes:
            for k in sorted(report.empirical[m]):
                fh.write(f"{m},{k},{format(report.empirical[m][k], '.17g')}\n")
