"""Seeded simulation engine: study runner and brute-force oracles.

Reproducibility contract: replication ``rep_index`` draws from the
master-keyed Philox stream at counter block ``[0, 0, rep_index, 0]``,
the stream ``jumped(rep_index)`` defines ("philox-jumped").  Identical
(master_seed, rep_index) pairs therefore give bit-identical data no
matter how replications are batched, ordered, or spread across worker
processes.  Replications are tallied in fixed chunks of 10,000 whose
sums are added in chunk order, so reports are bit-identical for every
worker count.

Within a chunk, replications are evaluated in blocks.  One Philox
generator per chunk is re-seeked to each replication's counter block
(its state reset, the buffer empty, exactly as a fresh
``Philox(key, counter)`` starts), and the replication's draws fill its
row of a (B, n, d) buffer in replication order; the state is set from
plain Python ints, which the setter converts faster than numpy scalars.
The stream is the per-replication one, so the data are unchanged.  Each
block then makes one ``known_walk`` and one ``profile_criterion`` call,
whose stacked kernels give every row the bits a call on it alone would,
and tallies by row-wise argmax.  Integer tallies are exact.  Replication
j's Cobb window fills row 1 + j of a (B + 1, n - 1) array under the
running counts, whose cumsum down the rows, a left fold, adds the
fractional masses in replication order (0.0 off a window changes no
bit), so every report byte is what one-replication-at-a-time
evaluation gives.  B keeps the profile kernel's (B, n, d, d) prefix
sums at about 2**14 float64 elements: in one 20 s simulate_study
benchmark run on 2 vCPU, a budget of 2**20 gave about 14% more
replications per second but nearly doubled the peak resident memory
(195 MB against 105 MB).

The environment variable CHANGEPOINT_THREADS bounds process-level
parallelism of :func:`run_study` (unset or 0 means all available cores,
1 forces serial execution; a negative or non-integer value is refused).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DegenerateDataError
from .estimators import check_cobb_delta, cobb_window, default_cobb_delta, known_walk, profile_criterion
from .model import Dataset, MultivariateOrigin, UnivariateOrigin
from .numerics import check_eta, check_split, left_sum
from . import errors as _errors, exactdist

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
# float64 elements per block of replications; the block size sets no result bit
_BLOCK_ELEMENTS = 2**14
# Largest relative rounding of the profile kernel's within-segment scatter that
# a profile cell accepts, and the eta where about eps eta^2 / 4 reaches it
_PROFILE_ROUNDING = 1e-4
_EPS = float(np.finfo(float).eps)
_PROFILE_ETA_MAX = 2.0 * float(np.sqrt(_PROFILE_ROUNDING / _EPS))


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: sample geometry, change size, noise, modes.

    A profile cell with eta in (_PROFILE_ETA_MAX, 2**52), about
    (1.342e6, 4.5e15), is refused.  ``estimators.split_scatters`` centers
    the rows, which then sit about eta / 2 from the mean, so its prefix
    sums carry about (eta / 2)^2 per row, while the within-segment
    scatter they must give by difference is about 1 per row (unit
    noise).  That scatter is off by about eps eta^2 / 4 of itself (eps
    = 2**-52; measured up to about 30 times that for n up to 4000, the
    factor growing about like sqrt(n)), and the refusal keeps it at most
    1e-4.  At eta = 1e8 it is 0.55, and at n = 40, tau = 20 the profile
    TV read 0.045 where the law gives 0.
    From 2**52 on, eta + noise already rounds the unit noise to whole
    units when the rows are drawn, so the kernel is not the limit there.
    """

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
        check_split("tau", self.tau, self.n)
        if self.n < 4:
            raise ConfigurationError(f"n must be >= 4, got {self.n}")
        check_eta(self.eta)
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
        if not np.isfinite((self.n * self.eta) * (self.n * self.eta)):
            # the known walk's partial sums reach about n eta^2 / 2 and the profile
            # kernel's prefix products about (n eta / 2)^2; past that TV reads 1 or nan
            raise ConfigurationError(
                f"eta={self.eta!r} at n={self.n} overflows the simulated walks: "
                "(n * eta)^2 must be finite"
            )
        if "profile" in modes and _PROFILE_ETA_MAX < self.eta < 2.0**52:
            rounding = _EPS * self.eta**2 / 4
            raise ConfigurationError(
                f"profile mode at eta={self.eta!r} loses the noise to rounding: the split "
                "kernel's prefix sums carry about (eta/2)^2 per row against a scatter of "
                f"about 1, an error of about eps*eta^2/4 = {rounding:.2g} of it; profile "
                f"cells need at most {_PROFILE_ROUNDING:g}, so eta <= {_PROFILE_ETA_MAX:.4g}"
            )
        if self.cobb_delta is not None:
            check_cobb_delta(self.cobb_delta)


class _Substreams:
    """One Philox generator that seeks to any replication's substream."""

    def __init__(self, master_seed: int):
        self._bitgen = np.random.Philox(key=master_seed)
        fresh = self._bitgen.state  # counter 0, buffer empty
        # plain ints: the state setter converts them faster than numpy scalars
        self._state = {**fresh, "buffer": fresh["buffer"].tolist(),
                       "state": {"counter": [0] * 4, "key": fresh["state"]["key"].tolist()}}
        self._counter = self._state["state"]["counter"]
        self.rng = np.random.Generator(self._bitgen)

    def seek(self, rep_index: int) -> np.random.Generator:
        # counter block [0, 0, rep_index, 0], where jumped(rep_index) lands
        self._counter[3], self._counter[2] = divmod(rep_index, 2**64)
        self._bitgen.state = self._state
        return self.rng


def _draw_block(config: SimConfig, streams: _Substreams, start: int, out: np.ndarray) -> None:
    """Fill out[j], shape (n, d), with replication start + j's series."""
    seek, rng, shape = streams.seek, streams.rng, out.shape[1:]
    if config.family == "gaussian":
        normal = rng.standard_normal
        for j, row in enumerate(out):
            seek(start + j)
            normal(out=row)
    else:
        draw = rng.standard_t if config.family == "student_t" else rng.chisquare
        for j, row in enumerate(out):
            seek(start + j)
            row[...] = draw(config.nu, shape)
    if config.family == "student_t":
        out *= np.sqrt((config.nu - 2.0) / config.nu)
    elif config.family == "chi_square":  # standardized to mean 0 variance 1
        out -= config.nu
        out /= np.sqrt(2.0 * config.nu)
    out[:, config.tau :, 0] += config.eta


def generate_sequence(config: SimConfig, rep_index: int) -> Dataset:
    """Replication ``rep_index`` of the configured cell, as a Dataset.

    Rows 1..tau have mean zero; later rows are shifted by eta along the
    first coordinate (unit noise scale), so the standardized change is
    eta for every d.  Deterministic in (master_seed, rep_index).
    """
    if rep_index < 0:
        raise ConfigurationError(f"rep_index must be >= 0, got {rep_index}")
    series = np.empty((1, config.n, config.d))
    _draw_block(config, _Substreams(config.master_seed), rep_index, series)
    return Dataset(series[0])


def _known_origin(config: SimConfig) -> UnivariateOrigin | MultivariateOrigin:
    """The generating parameters of a cell, for the known-parameter walk."""
    if config.d == 1:
        return UnivariateOrigin(0.0, config.eta, 1.0)
    mu2 = np.zeros(config.d)
    mu2[0] = config.eta
    return MultivariateOrigin(np.zeros(config.d), mu2, np.eye(config.d))


def tv_distance(p: Mapping[int, float], q: Mapping[int, float]) -> float:
    """Half the L1 distance between two integer-supported distributions."""
    terms = (abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
    return 0.5 * left_sum(terms)


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


def _profile_argmax(series: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise profile argmax over a block, and how many rows failed."""
    try:
        return np.nanargmax(profile_criterion(series), axis=-1), 0
    except _errors.ChangePointError:
        pass
    # rare: some row is degenerate, so find which, one row at a time
    best = []
    for row in series:
        try:
            best.append(int(np.nanargmax(profile_criterion(row))))
        except _errors.ChangePointError:
            pass
    return np.array(best, dtype=np.intp), len(series) - len(best)


def _tally_cobb(config: SimConfig, walk: np.ndarray, tau_hat: np.ndarray, counts: np.ndarray):
    """Add each row's clamped Cobb window to ``counts``, rows in order.

    Returns each row's mass at its estimate and how many windows were clamped.
    """
    want = config.cobb_delta
    if want is None:
        want = default_cobb_delta(tau_hat, config.n)
    delta = np.minimum(want, np.minimum(tau_hat - 1, config.n - 1 - tau_hat))
    # row 0 holds the running counts, row 1 + j replication j's window at its splits
    rows = np.zeros((len(delta) + 1, len(counts)))
    rows[0] = counts
    for dd in np.unique(delta).tolist():  # one batched call per window width
        sel = np.flatnonzero(delta == dd)
        splits = (tau_hat[sel] - dd - 1)[:, None] + np.arange(2 * dd + 1)
        rows[1 + sel[:, None], splits] = cobb_window(walk[sel], tau_hat[sel], dd)
    # accumulate is a left fold down the rows, so each count adds its
    # replications in order; the 0.0 entries off a window change no bit
    counts[:] = np.cumsum(rows, axis=0)[-1]
    return rows[1:][np.arange(len(delta)), tau_hat - 1], int(np.count_nonzero(delta < want))


def _accumulate_range(config: SimConfig, start: int, stop: int):
    """Partial sums over replications [start, stop), evaluated in blocks."""
    n, d, modes = config.n, config.d, config.modes
    width = n - 1  # offset index = tau_hat - 1
    counts = {m: np.zeros(width) for m in modes}
    failures = dict.fromkeys(modes, 0)
    cobb_center = 0.0
    cobb_clamped = 0
    need_known_walk = "known" in modes or "cobb" in modes
    origin = _known_origin(config) if need_known_walk else None
    streams = _Substreams(config.master_seed)
    block = max(1, _BLOCK_ELEMENTS // (n * d * d))
    buf = np.empty((min(block, stop - start), n, d))

    for lo in range(start, stop, block):
        series = buf[: min(block, stop - lo)]
        _draw_block(config, streams, lo, series)
        if need_known_walk:
            walk = known_walk(series, origin)
            best = np.argmax(walk, axis=-1)
        if "known" in modes:
            counts["known"] += np.bincount(best, minlength=width)
        if "profile" in modes:
            best_profile, nfail = _profile_argmax(series)
            counts["profile"] += np.bincount(best_profile, minlength=width)
            failures["profile"] += nfail
        if "cobb" in modes:
            centers, clamped = _tally_cobb(config, walk, best + 1, counts["cobb"])
            cobb_center = left_sum(centers.tolist(), cobb_center)
            cobb_clamped += clamped
    return counts, failures, cobb_center, cobb_clamped


def _worker_count(replications: int) -> int:
    raw = os.environ.get("CHANGEPOINT_THREADS", "").strip()
    try:
        workers = int(raw or 0)
    except ValueError:
        raise ConfigurationError(f"CHANGEPOINT_THREADS must be an integer, got {raw!r}")
    if workers < 0:
        raise ConfigurationError(f"CHANGEPOINT_THREADS must be >= 0, got {raw!r}")
    workers = workers or os.cpu_count() or 1
    # below ~20k replications the fork overhead dominates
    return 1 if replications < 20_000 else workers


def run_study(config: SimConfig) -> SimulationReport:
    """Run every replication of a cell and compare against the exact law.

    Each requested mode re-estimates the change-point per replication;
    offsets tau_hat - tau are tallied, then total variation distance to
    the law ``exactdist.build_pmf(config.eta)`` (built first, so a too
    small eta is refused before any replication), bias, and mean squared
    error are computed from the tallies.  Replication failures (degenerate
    splits) are counted; the run aborts only if they exceed 0.1% of them.
    """
    theo = exactdist.build_pmf(config.eta).as_mapping()
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
    cobb_center = left_sum(chunk_centers)
    cobb_clamped = sum(chunk_clamped)

    for m, nfail in failures.items():
        if nfail > 0.001 * R:
            raise DegenerateDataError(
                f"{nfail} of {R} replications failed in mode {m!r} (> 0.1%)"
            )

    offsets = np.arange(1, config.n) - config.tau
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


def default_horizon(eta: float) -> int:
    """Smallest horizon h with 4 exp(-eta^2 h / 8) below 1e-6."""
    check_eta(eta)
    return int(np.ceil(8.0 * np.log(4.0 / 1e-6) / (eta * eta)))


def _walk_batches(eta: float, arms: int, length: int, replications: int, seed: int):
    """``arms`` limiting walks (drift -eta^2/2, step sd eta) per replication, in
    batches of _ORACLE_BATCH; each batch is one draw, filled first arm first."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for done in range(0, replications, _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, replications - done)
        steps = rng.normal(-eta * eta / 2.0, eta, (arms, m, length))
        yield np.cumsum(steps, axis=2, out=steps)


def oracle_xi_infinity(eta: float, replications: int, seed: int) -> dict[int, float]:
    """Brute-force law of the two-sided argmax, as offset -> frequency.

    Simulates both arms of the limiting walk (drift -eta^2/2, variance
    eta^2 per step) out to ``default_horizon(eta)`` and takes the
    smallest-|k| argmax with the origin's value fixed at 0.
    """
    horizon = default_horizon(eta)
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
    check_eta(eta)
    if nmax < 1:
        raise ConfigurationError(f"nmax must be >= 1, got {nmax}")
    sum_q = np.zeros(nmax)
    sum_w = np.zeros(nmax)
    sum_w2 = np.zeros(nmax)
    for (S,) in _walk_batches(eta, 1, nmax, replications, seed):
        alive = np.minimum.accumulate(S > 0.0, axis=1)
        sum_q += alive.sum(axis=0)
        w = np.exp(np.negative(S, out=S), where=alive, out=np.zeros_like(S))
        sum_w += w.sum(axis=0)
        sum_w2 += np.square(w, out=w).sum(axis=0)
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
