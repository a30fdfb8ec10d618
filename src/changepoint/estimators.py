"""Change-point estimation: MLE walks, profile criteria, conditional law.

Two estimation regimes share one geometry.  With known pre/post
parameters the estimate is the argmax of the cumulative per-observation
log-likelihood-ratio walk; with unknown parameters each candidate split
re-estimates the segment means (and pooled covariance), and the
criterion becomes the determinant ratio

    n log(|Sigma_hat_n| / |Sigma_hat_t|)

whose univariate case is n log(sigma_hat_n^2 / sigma_hat_t^2).  One
kernel, ``profile_criterion``, evaluates it: over [1, n-1] at d = 1
and over ``admissible_splits`` [d+1, n-d-1] otherwise.  Detection reads
the same criterion over ``admissible_splits`` at every d.  Ties are
always resolved to the smallest index, so repeated runs are bit
identical.

The walk and criterion kernels (``loglik_ratio_terms``, ``known_walk``,
``split_scatters``, ``profile_criterion``) and
``cobb_window`` also take a stack of series, shape (..., n, d): each
series in the stack gets exactly the bits a call on it alone would.
``split_scatters`` centers in that layout, whose summation order sets
bits, then runs along n on a contiguous (d, ..., n) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, UnreachableLevelError
from .exactdist import Pmf, check_level, folded_mass, symmetric_interval
from .model import Dataset, MultivariateOrigin, UnivariateOrigin
from .numerics import check_split

__all__ = [
    "MleResult",
    "ConditionalPmf",
    "IndexInterval",
    "mle_known",
    "mle_profile",
    "cobb_conditional",
    "confidence_interval",
    "mle_result_to_json",
]


@dataclass(frozen=True)
class MleResult:
    tau_hat: int
    walk_trace: np.ndarray  # length n-1; profile mode: nan at inadmissible t
    # known mode: the given origin record; profile mode: the fitted one (pooled_estimates)
    params_used: UnivariateOrigin | MultivariateOrigin
    mode: str  # "known" | "profile"


@dataclass(frozen=True)
class ConditionalPmf:
    """Data-conditional split distribution over offsets l in [-delta, delta]."""

    delta: int
    probs: np.ndarray  # index l + delta


def loglik_ratio_terms(
    series: np.ndarray, origin: UnivariateOrigin | MultivariateOrigin
) -> np.ndarray:
    """Per-observation terms a(y) = log f1(y) - log f2(y) under known params."""
    if isinstance(origin, UnivariateOrigin):
        if series.shape[-1] != 1:
            raise DomainError(f"univariate parameters given for {series.shape[-1]}-column data")
        y = series[..., 0]
        s2 = origin.sigma * origin.sigma
        return ((y - origin.mu2) ** 2 - (y - origin.mu1) ** 2) / (2.0 * s2)
    assert isinstance(origin, MultivariateOrigin)
    d = origin.mu1.shape[0]
    if series.shape[-1] != d:
        raise DomainError(f"{d}-variate parameters given for {series.shape[-1]}-column data")
    z1 = np.swapaxes(series - origin.mu1, -1, -2)
    z2 = np.swapaxes(series - origin.mu2, -1, -2)
    if not np.array_equal(origin.sigma, np.eye(d)):  # against L = I, solve returns its input
        try:
            L = np.linalg.cholesky(origin.sigma)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(f"covariance parameter not positive definite: {exc}") from exc
        z1 = np.linalg.solve(L, z1)
        z2 = np.linalg.solve(L, z2)
    return 0.5 * (np.sum(z2 * z2, axis=-2) - np.sum(z1 * z1, axis=-2))


def known_walk(series: np.ndarray, origin: UnivariateOrigin | MultivariateOrigin) -> np.ndarray:
    """Cumulative log-likelihood-ratio walk over splits t = 1..n-1."""
    return np.cumsum(loglik_ratio_terms(series, origin), axis=-1)[..., :-1]


def mle_known(data: Dataset, origin: UnivariateOrigin | MultivariateOrigin) -> MleResult:
    """Known-parameter MLE: smallest argmax of the likelihood-ratio walk."""
    walk = known_walk(data.series, origin)
    tau_hat = int(np.argmax(walk)) + 1
    return MleResult(tau_hat=tau_hat, walk_trace=walk, params_used=origin, mode="known")


def pair_cumsums(x: np.ndarray):
    """Prefix sums along n of the products x[i] * x[j], i <= j, of a (d, ..., n) stack, n >= 2.

    Yields (i, j, prefix, total) for the d(d+1)/2 upper-triangle pairs
    in row order: prefix[..., t-1] sums the products of rows 1..t for
    t = 1..n-1, and total sums all n, the last step of the same cumsum
    taken apart so that the prefix is contiguous.  Each pair reuses the
    same buffers, so a caller holds one pair's sums, never d^2.  The
    product commutes, so pair (j, i) has the bits of pair (i, j).
    """
    prod = np.empty(x.shape[1:])
    prefix = np.empty(x.shape[1:-1] + (x.shape[-1] - 1,))
    for i in range(len(x)):
        for j in range(i, len(x)):
            np.multiply(x[i], x[j], out=prod)
            np.cumsum(prod[..., :-1], axis=-1, out=prefix)
            yield i, j, prefix, prefix[..., -1] + prod[..., -1]


def split_scatters(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within-segment scatter matrices about segment means, per split t.

    Returns (scatter_t, scatter_n): scatter_t[t-1] is the d x d summed
    scatter of rows 1..t about their mean plus rows t+1..n about theirs,
    for t = 1..n-1; scatter_n is the scatter about the global mean.
    Data are centered first, so the prefix-sum evaluation stays well
    conditioned at arbitrary location offsets.

    One pass over the upper-triangle pairs (``pair_cumsums``) fills a
    fresh (d, d, ..., n-1) array in place, each pair copied to its
    mirror; the results are (..., n-1, d, d) and (..., d, d) views of
    it, which the caller owns and may overwrite.
    """
    n, d = series.shape[-2:]
    k = series.ndim
    # centered in the input layout, where the sum's order sets bits; then
    # a (d, ..., n) stack, so every cumsum and product runs along n
    x = series - series.sum(axis=-2, keepdims=True) / n
    x = np.ascontiguousarray(x.transpose(-1, *range(k - 1)))
    t = np.arange(1, n, dtype=float)
    nt = n - t
    c1 = x.cumsum(axis=-1)
    tot1, left1 = c1[..., -1], c1[..., :-1]
    right1 = tot1[..., None] - left1
    scatter_t = np.empty((d,) + left1.shape)
    tot2 = np.empty((d,) + tot1.shape)
    right = np.empty(left1.shape[1:])
    for i, j, left2, total in pair_cumsums(x):
        tot2[i, j] = tot2[j, i] = total
        # left2 - left1_i left1_j / t + ((tot2 - left2) - right1_i right1_j / (n - t)),
        # evaluated in that order, in place
        out = scatter_t[i, j]
        np.multiply(left1[i], left1[j], out=out)
        out /= t
        np.subtract(left2, out, out=out)
        np.multiply(right1[i], right1[j], out=right)
        right /= nt
        np.subtract(tot2[i, j, ..., None], left2, out=left2)
        left2 -= right
        out += left2
        if i != j:
            scatter_t[j, i] = out
    scatter_n = tot2 - tot1[:, None] * tot1[None, :] / n
    return scatter_t.transpose(*range(2, k + 1), 0, 1), scatter_n.transpose(*range(2, k), 0, 1)


def admissible_splits(n: int, d: int) -> tuple[int, int]:
    """The splits [d+1, n-d-1], where each segment has more rows than columns.

    Raises if n < 2(d+1), which leaves none.
    """
    if n < 2 * (d + 1):
        raise DomainError(f"need n >= 2(d+1) = {2 * (d + 1)} rows, got {n}")
    return d + 1, n - d - 1


def profile_criterion(series: np.ndarray) -> np.ndarray:
    """Profile trace n log(|Sigma_hat_n| / |Sigma_hat_t|) over t = 1..n-1.

    Admissible splits are [1, n-1] at d = 1 and ``admissible_splits``
    otherwise (nan outside).  An exact fit, a segment scatter that is
    singular, scores +inf: at d = 1 a scatter <= 0, since rounding can
    take a zero scatter below 0, and at d > 1 a determinant of sign
    <= 0, since rounding leaves a singular scatter's sign at 0 or -1.
    Raises if, for any series in the stack, the no-change covariance
    estimate is singular or no split scores.

    The admissible slice of ``split_scatters``' result is divided by n
    in place and handed to ``slogdet`` (at d = 1, ``log``) as it is:
    the call holds one (d, d, ..., n-1) stack and no copy of it.
    """
    n, d = series.shape[-2:]
    lo, hi = (1, n - 1) if d == 1 else admissible_splits(n, d)
    scatter_t, scatter_n = split_scatters(series)
    sigma_t = scatter_t[..., lo - 1 : hi, :, :]
    sigma_t /= n
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 1:
            logdet_n = np.log(scatter_n[..., 0, 0] / n)
            sigma_t = sigma_t[..., 0, 0]
            logdet_t = np.log(np.maximum(sigma_t, 0.0, out=sigma_t), out=sigma_t)
        else:
            sign_n, logdet_n = np.linalg.slogdet(scatter_n / n)
            logdet_n = np.where(sign_n > 0, logdet_n, np.nan)
            sign_t, logdet_t = np.linalg.slogdet(sigma_t)
            logdet_t = np.where(sign_t > 0, logdet_t, -np.inf)
    if not np.all(np.isfinite(logdet_n)):
        raise DegenerateDataError("no-change covariance estimate is singular")
    trace = np.full(scatter_t.shape[:-2], np.nan)
    trace[..., lo - 1 : hi] = n * (np.expand_dims(logdet_n, -1) - logdet_t)
    if not np.all(np.any(np.isfinite(trace) | np.isposinf(trace), axis=-1)):
        raise DegenerateDataError("segment covariance estimate degenerate at every split")
    return trace


def segment_fit(series: np.ndarray, tau_hat: int):
    """(mu1, mu2, deviations, pooled covariance = within scatter / (n - 2)) at a split."""
    n = series.shape[0]
    left, right = series[:tau_hat], series[tau_hat:]
    mu1 = left.mean(axis=0)
    mu2 = right.mean(axis=0)
    dev = np.vstack([left - mu1, right - mu2])
    return mu1, mu2, dev, dev.T @ dev / (n - 2)


def pooled_estimates(series: np.ndarray, tau_hat: int) -> UnivariateOrigin | MultivariateOrigin:
    """Segment means and df-corrected pooled covariance at a split, as the origin record:
    a UnivariateOrigin whose sigma is the pooled standard deviation at d = 1, else a
    MultivariateOrigin whose sigma is the d x d pooled covariance."""
    mu1, mu2, _, pooled = segment_fit(series, tau_hat)
    if series.shape[1] == 1:
        return UnivariateOrigin(float(mu1[0]), float(mu2[0]), float(math.sqrt(pooled[0, 0])))
    return MultivariateOrigin(mu1, mu2, pooled)


def mle_profile(data: Dataset) -> MleResult:
    """Unknown-parameter MLE via the profile determinant-ratio criterion."""
    series = data.series
    trace = profile_criterion(series)
    tau_hat = int(np.nanargmax(trace)) + 1
    return MleResult(
        tau_hat=tau_hat,
        walk_trace=trace,
        params_used=pooled_estimates(series, tau_hat),
        mode="profile",
    )


def cobb_window(walk: np.ndarray, tau_hat: int | np.ndarray, delta: int) -> np.ndarray:
    """Normalized likelihoods of the splits tau_hat +- delta.

    ``walk`` may be a stack (..., n-1) with one ``tau_hat`` per walk.
    The walk spans hundreds of log units, so it is shifted by the window maximum first.
    """
    splits = np.expand_dims(tau_hat, -1) + np.arange(-delta - 1, delta)
    window = np.take_along_axis(walk, splits, axis=-1)
    w = np.exp(window - window.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def check_cobb_delta(delta: int) -> None:
    """Refuse a conditional window halfwidth below 1."""
    if delta < 1:
        raise DomainError(f"delta must be >= 1, got {delta}")


def cobb_conditional(
    data: Dataset, tau_hat: int, delta: int, origin: UnivariateOrigin | MultivariateOrigin
) -> ConditionalPmf:
    """Conditional split distribution on the window tau_hat +- delta.

    Mass at offset l is proportional to the full-data likelihood with
    the split at tau_hat + l, normalized over the window (``cobb_window``).
    """
    n = data.n
    check_cobb_delta(delta)
    if tau_hat - delta < 1 or tau_hat + delta > n - 1:
        raise DomainError(
            f"window tau_hat +- delta = [{tau_hat - delta}, {tau_hat + delta}] "
            f"exceeds the admissible splits [1, {n - 1}]"
        )
    walk = known_walk(data.series, origin)
    return ConditionalPmf(delta=delta, probs=cobb_window(walk, tau_hat, delta))


def default_cobb_delta(tau_hat: int | np.ndarray, n: int) -> np.integer | np.ndarray:
    """Widest window around tau_hat that stays inside the sample, at most 15, and at least 1.

    Elementwise over an array of estimates; a numpy integer for one estimate.
    """
    return np.clip(np.minimum(tau_hat - 1, n - 1 - tau_hat), 1, 15)


@dataclass(frozen=True)
class IndexInterval:
    """Confidence region for the split index, optionally in calendar units.

    ``lo``/``hi`` bound the split indices; for a conditional input that
    is not contiguous, ``indices`` carries the exact set and lo/hi its
    hull.  Calendar labels map index i to time_origin + i - 1.
    """

    lo: int
    hi: int
    level: float
    achieved: float
    clipped: bool = False
    halfwidth: int | None = None
    indices: tuple[int, ...] | None = None
    contiguous: bool = True
    calendar: tuple[int, int] | None = None


def confidence_interval(
    dist: Pmf | ConditionalPmf,
    level: float,
    tau_hat: int,
    n: int,
    time_origin: int | None = None,
) -> IndexInterval:
    """Confidence region around tau_hat at the given level.

    An unconditional (limiting) distribution yields the symmetric
    interval tau_hat +- m, clipped to the admissible splits [1, n-1]
    with the clipping flagged.  A conditional distribution yields the
    smallest highest-mass set of window offsets reaching the level.
    """
    check_level(level)
    check_split("tau_hat", tau_hat, n)
    if isinstance(dist, Pmf):
        m = symmetric_interval(dist, level)
        lo, hi = tau_hat - m, tau_hat + m
        clipped = lo < 1 or hi > n - 1
        lo, hi = max(1, lo), min(n - 1, hi)
        return IndexInterval(
            lo=lo, hi=hi, level=level, achieved=folded_mass(dist, m), clipped=clipped,
            halfwidth=m, calendar=_calendar(lo, hi, time_origin),
        )
    # conditional: greedy highest-mass set, deterministic tie order
    ls = np.arange(-dist.delta, dist.delta + 1)
    order = sorted(range(len(ls)), key=lambda i: (-dist.probs[i], abs(ls[i]), ls[i]))
    acc = 0.0
    chosen: list[int] = []
    for i in order:
        chosen.append(int(ls[i]))
        acc += float(dist.probs[i])
        if acc >= level - 1e-12:
            break
    else:
        raise UnreachableLevelError(
            f"level {level} unreachable within the delta={dist.delta} window (mass {acc:.6f})"
        )
    chosen.sort()
    indices = tuple(tau_hat + l for l in chosen)
    contiguous = all(b - a == 1 for a, b in zip(indices, indices[1:]))
    lo, hi = indices[0], indices[-1]
    return IndexInterval(
        lo=lo, hi=hi, level=level, achieved=acc, clipped=False,
        indices=indices, contiguous=contiguous, calendar=_calendar(lo, hi, time_origin),
    )


def _calendar(lo: int, hi: int, origin: int | None) -> tuple[int, int] | None:
    if origin is None:
        return None
    return (origin + lo - 1, origin + hi - 1)


# --- serialization -------------------------------------------------------

def _params_json(origin: UnivariateOrigin | MultivariateOrigin) -> dict:
    # key order mu1, mu2, sigma: the estimate report is written unsorted; a
    # scalar float field goes through .tolist() unchanged
    return {k: np.asarray(getattr(origin, k), float).tolist() for k in ("mu1", "mu2", "sigma")}


def finite_list(a: np.ndarray) -> list:
    """``a.tolist()`` of a 1-D array, every non-finite entry replaced by None (JSON null)."""
    out = a.tolist()
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        out[i] = None
    return out


def mle_result_to_json(result: MleResult, criterion=None) -> dict:
    """The fit as a JSON-ready record; inadmissible splits are None.

    ``criterion``, if given, is written for the walk trace: the JSON
    value a caller already built from the same numbers.
    """
    return {
        "tau_hat": result.tau_hat,
        "mode": result.mode,
        "criterion": finite_list(result.walk_trace) if criterion is None else criterion,
        "params": _params_json(result.params_used),
    }
