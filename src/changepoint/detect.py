"""Likelihood-ratio change detection with extreme-value p-values.

The mean-change statistic maximizes the determinant-ratio criterion

    U_n = max_t  n log(|Sigma_hat_n| / |Sigma_hat_t|)

of the profile MLE: it reads ``estimators.profile_criterion`` over
``estimators.admissible_splits`` [d+1, n-d-1].  A caller that holds the
profile fit passes its criterion to ``mean_change_from_criterion``, so
the criterion is evaluated once.  The covariance-change statistic
compares segmentwise covariance estimates of residual deviations.
Either max is normalized by the iterated-logarithm transform

    W = sqrt(2 loglog n * U) - (2 loglog n + (p/2) logloglog n - log Gamma(p/2))

whose limit law is the double exponential exp(-2 e^{-t}); p counts the
parameters free to change (d for the mean, d(d+1)/2 for the covariance).
Split candidates are trimmed so every segment covariance estimate has
more rows than columns; the trimmed range is recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError
from .estimators import admissible_splits, finite_list, profile_criterion, segment_fit
# unused here; kept importable because the benchmark tracer wraps ``detect.split_scatters``
from .estimators import split_scatters  # noqa: F401
from .model import Dataset

__all__ = [
    "DetectionReport",
    "DiagnosticsReport",
    "mean_change_statistic",
    "mean_change_from_criterion",
    "covariance_change_statistic",
    "darling_erdos_transform",
    "darling_erdos_inverse",
    "p_value",
    "residual_diagnostics",
    "detection_report_to_json",
]

# The triple logarithm needs log log n > 1, i.e. n > e^e ~ 15.15.
_MIN_N_FOR_W = 16


@dataclass(frozen=True)
class DetectionReport:
    statistic_kind: str  # "mean_change" | "covariance_change"
    U: float
    W: float | None
    p_value: float | None
    p: int  # parameters changing under the alternative
    tau_hat: int
    trace: np.ndarray  # length n-1, nan outside the admissible range
    admissible: tuple[int, int]


def _darling_erdos_terms(n: int, p: int) -> tuple[float, float]:
    """(log log n, c) with W = sqrt(2 log log n * U) - c."""
    if n < _MIN_N_FOR_W:
        raise DomainError(f"n must be >= {_MIN_N_FOR_W} for the normalization, got {n}")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    ll = math.log(math.log(n))
    return ll, 2.0 * ll + 0.5 * p * math.log(ll) - math.lgamma(p / 2.0)


def darling_erdos_transform(U: float, n: int, p: int) -> float:
    """Iterated-logarithm normalization of a max-type statistic."""
    ll, c = _darling_erdos_terms(n, p)
    if U < 0 or not np.isfinite(U):
        raise DomainError(f"U must be finite and >= 0, got {U!r}")
    return math.sqrt(2.0 * ll * U) - c


def darling_erdos_inverse(w: float, n: int, p: int) -> float:
    """Algebraic inverse: the U giving transform value w (w above the floor)."""
    ll, c = _darling_erdos_terms(n, p)
    if w + c < 0:
        raise DomainError(f"w={w} is below the U=0 floor of the transform")
    return (w + c) ** 2 / (2.0 * ll)


def p_value(W: float) -> float:
    """1 - exp(-2 e^{-W}), the upper tail of the double-exponential limit."""
    if not np.isfinite(W):
        raise DomainError(f"W must be finite, got {W!r}")
    with np.errstate(over="ignore"):
        t = np.exp(-float(W))
    val = -np.expm1(-2.0 * t)
    return float(min(1.0, max(0.0, val)))


def _report(kind: str, trace: np.ndarray, lo: int, hi: int, n: int, p: int) -> DetectionReport:
    exact = np.flatnonzero(np.isposinf(trace))
    if exact.size:
        # a segment fit with zero residual scatter: no finite statistic exists
        raise DegenerateDataError(f"exact fit at split {exact[0] + 1}: the statistic is infinite")
    finite = np.where(np.isfinite(trace), trace, -np.inf)
    if not np.any(finite > -np.inf):
        raise DegenerateDataError("statistic undefined at every admissible split")
    tau_hat = int(np.argmax(finite)) + 1
    U = max(float(finite[tau_hat - 1]), 0.0)  # clamp a tiny negative from rounding
    W = darling_erdos_transform(U, n, p) if n >= _MIN_N_FOR_W else None
    return DetectionReport(
        statistic_kind=kind, U=U, W=W, p_value=None if W is None else p_value(W), p=p,
        tau_hat=tau_hat, trace=trace, admissible=(lo, hi),
    )


def mean_change_statistic(data: Dataset) -> DetectionReport:
    """Detect a mean-vector change; p = d parameters move.

    The trace holds n log(|Sigma_hat_n| / |Sigma_hat_t|) for t in
    [d+1, n-d-1] (nan outside), where Sigma_hat_t pools the scatter
    about the two segment means and Sigma_hat_n is the no-change
    estimate.  An exact fit (+inf) is refused as degenerate data.
    """
    return mean_change_from_criterion(profile_criterion(data.series), data.d)


def mean_change_from_criterion(criterion: np.ndarray, d: int) -> DetectionReport:
    """The mean-change report of a d-column series, read off its profile criterion.

    ``criterion`` is ``estimators.profile_criterion`` of the series; the
    report's trace is a copy of it with the splits outside
    ``admissible_splits`` set to nan, which narrows it at d = 1 only.
    """
    n = criterion.shape[0] + 1
    lo, hi = admissible_splits(n, d)
    trace = np.full(n - 1, np.nan)
    trace[lo - 1 : hi] = criterion[lo - 1 : hi]
    return _report("mean_change", trace, lo, hi, n, p=d)


def covariance_change_statistic(deviations: Dataset) -> DetectionReport:
    """Detect a covariance change in deviations; p = d(d+1)/2.

    trace(t) = n log|S_{1:n}| - t log|S_{1:t}| - (n-t) log|S_{t+1:n}|
    where S are second-moment matrices about zero: the input is a
    deviation series whose mean structure has already been removed, and
    only this convention makes the null p-values track the double
    exponential limit at workable sample sizes.  Admissible t leaves at
    least d+1 rows per segment.
    """
    series = deviations.series
    n, d = series.shape
    lo, hi = admissible_splits(n, d)

    full = series.T @ series / n
    sign_f, logdet_f = np.linalg.slogdet(full)
    if sign_f <= 0 or not np.isfinite(logdet_f):
        raise DegenerateDataError("second-moment matrix of the deviations is singular")

    t = np.arange(lo, hi + 1, dtype=float)
    c2 = np.cumsum(series[:, :, None] * series[:, None, :], axis=0)
    tot2 = c2[-1]
    left2 = c2[lo - 1 : hi]
    nt = (n - t)[:, None, None]
    S_left = left2 / t[:, None, None]
    S_right = (tot2[None] - left2) / nt
    sign_l, logdet_l = np.linalg.slogdet(S_left)
    sign_r, logdet_r = np.linalg.slogdet(S_right)
    ok = (sign_l > 0) & (sign_r > 0)
    trace = np.full(n - 1, np.nan)
    with np.errstate(invalid="ignore"):
        trace[lo - 1 : hi] = np.where(
            ok, n * logdet_f - t * logdet_l - (n - t) * logdet_r, np.nan
        )
    return _report("covariance_change", trace, lo, hi, n, p=d * (d + 1) // 2)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Post-fit residual material for external goodness-of-fit tooling."""

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray  # pooled, scatter / (n - 2)
    deviations: np.ndarray
    mahalanobis_sq: np.ndarray


def residual_diagnostics(data: Dataset, tau_hat: int) -> DiagnosticsReport:
    """Deviations about the fitted segment means and their squared norms.

    The pooled covariance divides the within-segment scatter by n - 2
    (one estimated mean per segment), so the squared Mahalanobis norms
    average d (n - 2) / n exactly.  The deviations sum to zero within
    each segment by construction.
    """
    if not (1 <= tau_hat <= data.n - 1):
        raise DomainError(f"tau_hat must be in [1, n-1], got {tau_hat}")
    mu1, mu2, dev, pooled = segment_fit(data.series, tau_hat)
    try:
        L = np.linalg.cholesky(pooled)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"pooled covariance is singular: {exc}") from exc
    z = np.linalg.solve(L, dev.T)
    d2 = np.sum(z * z, axis=0)
    return DiagnosticsReport(mu1=mu1, mu2=mu2, sigma=pooled, deviations=dev, mahalanobis_sq=d2)


# --- serialization -------------------------------------------------------

def detection_report_to_json(report: DetectionReport, trace=None) -> dict:
    """The report as a JSON-ready record; inadmissible splits are None.

    ``trace``, if given, is written for the trace: the JSON value a
    caller already built from the same numbers.
    """
    return {
        "kind": report.statistic_kind,
        "U": report.U,
        "W": report.W,
        "p_value": report.p_value,
        "p": report.p,
        "tau_hat": report.tau_hat,
        "trace": finite_list(report.trace) if trace is None else trace,
        "admissible": list(report.admissible),
    }
