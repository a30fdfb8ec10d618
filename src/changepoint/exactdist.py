"""Asymptotic distribution of the centered change-point estimator.

For a mean shift of standardized magnitude ``eta`` in a Gaussian
sequence, the centered maximum-likelihood estimator ``xi = tau_hat - tau``
converges to a proper symmetric integer-valued limit.  Its distribution
is computed here from ladder quantities of the associated negative-drift
random walk:

    b_n  = sf(eta sqrt(n) / 2)                   positivity probability
    b~_n = exp(n eta^2) sf(3 eta sqrt(n) / 2)    tilted positivity weight
    n q_n  = sum_{j<n} b_{n-j}  q_j              survival of first descent
    n q~_n = sum_{j<n} b~_{n-j} q~_j             tilted survival
    1 - ||G+|| = exp(-sum_j b_j / j)             no-ascending-ladder mass

and the point masses

    P(xi = 0)    = (1 - ||G+||)^2
    P(xi = +-k)  = (1 - ||G+||) (q_k - ||G+|| q~_k),   k >= 1.

A caution that the code must live with: the closed form treats the
ultimate maximum of the opposing walk as exactly exponential beyond its
atom at zero, which holds for the continuous-path limit but only
approximately for the discrete walk.  The k >= 1 masses are therefore
slightly inflated and the total mass exceeds one by a small,
eta-dependent excess (about 2.1% at eta = 1, 0.6% at eta = 2, 0.3% at
eta = 2.5).  The excess satisfies the exact identity

    total - 1 = g^2 - 2 g (1 - g) sum_{k>=1} q~_k,     g = ||G+||,

which the test suite pins.  Interval and variance queries use the raw
(unnormalized) masses; the Monte Carlo oracle in ``montecarlo``
quantifies the gap to the true law.

Since q_m needs only q_<m, an interval at level L needs the recursion only
out to the halfwidth m that reaches L: ``build_pmf(eta, level=L)`` runs it
in growing blocks and stops there, returning the first m + 1 masses of
the full build bit for bit, with ``tail_mass_bound`` the certified bound
g0 r^(m+1) / (1 - r) on everything past m.  The full law and the prefix
come from one masses builder (``_ladder_masses``) over the one
implementation of the recursion (``_ladder_recursion``, which
``build_ladder_tables`` also runs), and the prefix stops by the same
fold (``_fold_to_level``) that ``symmetric_interval`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PrecisionError, UnreachableLevelError
from .numerics import log_b_tilde, std_normal_survival

__all__ = [
    "LadderTables",
    "Pmf",
    "build_ladder_tables",
    "build_pmf",
    "cdf",
    "symmetric_interval",
    "variance_for",
    "suggested_kmax",
    "tv_bound",
    "write_pmf_csv",
    "read_pmf_csv",
    "pmf_to_json",
]

# Below this eta the series length grows like 8 ln(1/tol) / eta^2 and the
# tables stop being worth building; reject instead of burning cycles.
ETA_GUARD = 0.05

_KMAX_CAP = 100_000

# Certified tolerance of the variance series and of the no-ladder mass.
_SERIES_TOL = 1e-12


def _check_eta_tol(eta: float, tol: float) -> None:
    if not np.isfinite(eta):
        raise ConfigurationError(f"eta must be finite, got {eta!r}")
    if eta < ETA_GUARD:
        raise ConfigurationError(
            f"eta must be >= {ETA_GUARD} (got {eta!r}); smaller changes make the "
            "ladder series impractically long"
        )
    if not (0.0 < tol <= 1e-6):
        raise ConfigurationError(f"tol must be in (0, 1e-6], got {tol!r}")


@dataclass(frozen=True)
class LadderTables:
    """Ladder sequences of the drift -eta^2/2, variance eta^2 walk.

    Index 0 of ``q``/``q_tilde`` holds the convention value 1; index n of
    ``b``/``b_tilde`` holds the n-th term (index 0 unused, set to nan).
    ``no_ladder`` is 1 - ||G+|| = P(the walk never enters (0, inf)),
    computed from a series truncated with certified error
    ``truncation_error`` < tol.
    """

    eta: float
    kmax: int
    tol: float
    b: np.ndarray
    b_tilde: np.ndarray
    q: np.ndarray
    q_tilde: np.ndarray
    no_ladder: float
    truncation_error: float


def build_ladder_tables(eta: float, kmax: int, tol: float = _SERIES_TOL) -> LadderTables:
    """Build b, b~, q, q~ up to index ``kmax`` plus the no-ladder mass.

    The convolution recursions are evaluated in the plain probability
    domain (every term is <= 1); only the b~ construction passes through
    logs.  The series for ``no_ladder`` is cut at the first J whose
    analytic tail bound, from sf(x) <= exp(-x^2/2)/2, drops below
    ``tol``.
    """
    _check_eta_tol(eta, tol)
    if kmax < 1:
        raise ConfigurationError(f"kmax must be >= 1, got {kmax}")
    if kmax > _KMAX_CAP:
        raise PrecisionError(f"kmax {kmax} exceeds the cap {_KMAX_CAP}")

    b, bt = _b_series(eta, kmax)
    rb, rbt, q, qt = _ladder_arrays(b, bt)
    _ladder_recursion(rb, rbt, q, qt, 1, kmax + 1)
    no_ladder, trunc = _no_ladder_mass(eta, tol)
    return LadderTables(
        eta=eta, kmax=kmax, tol=tol, b=b, b_tilde=bt,
        q=q, q_tilde=qt, no_ladder=no_ladder, truncation_error=trunc,
    )


def _ladder_arrays(b: np.ndarray, bt: np.ndarray):
    """Reversed b / b~ and q / q~ buffers (index 0 set to 1) for the recursion."""
    # b[m:0:-1] == rb[N-m:N]: the same values in the same order, but
    # contiguous, so np.dot hands them to BLAS without a per-call copy.
    rb = b[::-1].copy()
    rbt = bt[::-1].copy()
    q = np.empty(b.shape[0])
    qt = np.empty(b.shape[0])
    q[0] = qt[0] = 1.0
    return rb, rbt, q, qt


def _ladder_recursion(rb, rbt, q, qt, lo: int, hi: int) -> None:
    """Fill q[m] and q~[m] for m in [lo, hi) from the entries below m."""
    N = rb.shape[0] - 1
    for m in range(lo, hi):
        q[m] = np.dot(rb[N - m : N], q[:m]) / m
        qt[m] = np.dot(rbt[N - m : N], qt[:m]) / m


def _b_series(eta: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """b and b~ over indices 0..kmax (index 0 unused, set to nan); b~ via log b~."""
    n = np.arange(1, kmax + 1)
    b = std_normal_survival(eta * np.sqrt(n) / 2.0)
    bt = np.exp(log_b_tilde(n, eta))
    return np.concatenate(([np.nan], b)), np.concatenate(([np.nan], bt))


def _no_ladder_tail(r: float, J: int) -> float:
    # sum_{j>J} (1/j) sf(eta sqrt(j)/2) <= (1/(2(J+1))) r^(J+1) / (1-r), r = exp(-eta^2/8)
    return (0.5 / (J + 1)) * r ** (J + 1) / (1.0 - r)


def _no_ladder_cutoff(r: float, tol: float) -> int:
    """First J >= 1 with ``_no_ladder_tail(r, J) < tol``.

    The tail bound falls as J grows, so double past the cut-off, then
    bisect with tail(lo) >= tol > tail(hi): O(log J) evaluations of the
    same expression a linear scan would test.
    """
    lo, hi = 0, 1
    while _no_ladder_tail(r, hi) >= tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _no_ladder_tail(r, mid) >= tol:
            lo = mid
        else:
            hi = mid
    return hi


def _no_ladder_mass(eta: float, tol: float) -> tuple[float, float]:
    r = np.exp(-eta * eta / 8.0)
    J = _no_ladder_cutoff(r, tol)
    j = np.arange(1, J + 1, dtype=float)
    series = float(np.sum(std_normal_survival(eta * np.sqrt(j) / 2.0) / j))
    return float(np.exp(-series)), float(_no_ladder_tail(r, J))


@dataclass(frozen=True)
class Pmf:
    """Symmetric distribution of the centered estimator over k in [-K, K].

    ``probs_half[k]`` stores the mass at +k (= mass at -k); the total over
    both signs plus ``tail_mass_bound`` covers the whole series, up to
    the intrinsic super-unity excess described in the module docstring.
    """

    eta: float
    support_halfwidth: int
    probs_half: np.ndarray
    tail_mass_bound: float
    no_ladder: float
    tol: float

    def prob(self, k: int) -> float:
        """Mass at integer offset k (0 outside the stored support)."""
        k = abs(int(k))
        return float(self.probs_half[k]) if k <= self.support_halfwidth else 0.0

    def total_mass(self) -> float:
        return float(self.probs_half[0] + 2.0 * self.probs_half[1:].sum())

    def as_mapping(self) -> dict[int, float]:
        K = self.support_halfwidth
        return {k: float(self.probs_half[abs(k)]) for k in range(-K, K + 1)}


def build_pmf(eta: float, tol: float = 1e-10, level: float | None = None) -> Pmf:
    """Point masses of the limiting centered estimator.

    The support halfwidth K is the first index past which the certified
    series tail, via q_k <= exp(-eta^2 k / 8) / 2, is below ``tol``; the
    accumulated mass is then >= 1 - tol.  ``tail_mass_bound`` records
    that certified bound on the discarded terms, g0 r^(K+1) / (1-r) with
    g0 = 1 - ||G+|| and r = exp(-eta^2 / 8).

    With a ``level`` in (0, 1), the ladder recursion runs only until the
    masses reach it: the support is cut at the smallest halfwidth m with
    P(|xi| <= m) >= level, folded as ``symmetric_interval`` folds it, and
    ``tail_mass_bound`` is the same certified bound taken at K = m.  The
    kept masses are bit-identical to the full build's, so every interval
    query at that level gives the same answer, at the cost of the
    O(m^2) prefix instead of the O(K^2) support.  A K beyond the tables'
    cap is then no refusal: the cap bounds m instead, and a level still
    unreached at the cap is refused with the same message.  A level
    unreached within K gives the full build, trim and bound included.
    """
    _check_eta_tol(eta, tol)
    if level is not None and not (0.0 < level < 1.0):
        raise DomainError(f"level must be in (0, 1), got {level!r}")
    r = np.exp(-eta * eta / 8.0)
    # The discarded terms sum to at most g0 r^(kmax+1) / (1-r); this kmax
    # makes r^kmax <= tol (1-r) / 2, so that bound is below g0 r tol / 2 < tol.
    with np.errstate(divide="ignore", over="ignore"):  # tiny tol underflows to inf
        size = 8.0 / (eta * eta) * np.log(2.0 / (tol * (1.0 - r)))
    too_long = f"support for eta={eta} at tol={tol} exceeds the {_KMAX_CAP} cap"
    if not np.isfinite(size) or (size > _KMAX_CAP and level is None):
        raise PrecisionError(too_long)
    kmax = max(8, int(np.ceil(size)))
    g0, half, m = _ladder_masses(eta, min(kmax, _KMAX_CAP), min(tol, _SERIES_TOL), level)
    if m is not None:
        return _cut_pmf(eta, tol, r, g0, half, m)
    if kmax > _KMAX_CAP:
        raise PrecisionError(too_long)
    K = kmax
    # trim trailing entries that no longer contribute at the requested tol
    while K > 1 and half[K] <= 0.0:
        K -= 1
    return _cut_pmf(eta, tol, r, g0, half, K)


# First block of the ladder recursion; later blocks grow by 1/8.
_FIRST_BLOCK = 64


def _ladder_masses(eta: float, N: int, tol: float, level: float | None):
    """Masses over [0, N] from the ladder recursion, run in growing blocks.

    With a level they stop once ``half[0] + 2 half[1] + ... + 2 half[m]``
    reaches it.  Returns (g0, half, m); half is filled up to m, or to N
    with m None when no level is given or it is not reached.
    """
    g0, _ = _no_ladder_mass(eta, tol)
    g = 1.0 - g0
    rb, rbt, q, qt = _ladder_arrays(*_b_series(eta, N))
    half = np.empty(N + 1)
    half[0] = g0 * g0
    acc = float(half[0])
    if level is not None and acc >= level:
        return g0, half, 0
    lo = 1
    while lo <= N:
        hi = min(N + 1, lo + max(_FIRST_BLOCK, lo // 8))
        _ladder_recursion(rb, rbt, q, qt, lo, hi)
        half[lo:hi] = g0 * (q[lo:hi] - g * qt[lo:hi])
        if level is not None:
            acc, m = _fold_to_level(half, acc, lo, hi, level)
            if m is not None:
                return g0, half, m
        lo = hi
    return g0, half, None


def _fold_to_level(half: np.ndarray, acc: float, lo: int, hi: int, level: float):
    """Resume ``acc = half[0] + 2 half[1] + ...`` over m in [lo, hi), lo >= 1.

    Returns (acc, m) at the first m where acc reaches ``level``, else
    (acc, None) with acc summed through hi - 1.
    """
    for m in range(lo, hi):
        acc += 2.0 * float(half[m])
        if acc >= level:
            return acc, m
    return acc, None


def _cut_pmf(eta: float, tol: float, r: float, g0: float, half: np.ndarray, K: int) -> Pmf:
    half = half[: K + 1].copy()
    half.setflags(write=False)
    return Pmf(
        eta=eta, support_halfwidth=K, probs_half=half,
        tail_mass_bound=float(g0 * r ** (K + 1) / (1.0 - r)),
        no_ladder=g0, tol=tol,
    )


def cdf(pmf: Pmf, k: int) -> float:
    """P(xi <= k), clamped to [0, 1].

    Below the stored support this returns 0.0 (the true mass out there is
    within ``tail_mass_bound``); at or above the upper edge it returns at
    least 1 - tail_mass_bound.
    """
    K = pmf.support_halfwidth
    k = int(k)
    if k < -K:
        return 0.0
    half = pmf.probs_half
    if k >= K:
        val = half[0] + 2.0 * half[1:].sum()
    elif k < 0:
        val = half[-k:].sum()
    else:
        val = half[1:].sum() + half[0] + half[1 : k + 1].sum()
    return float(min(1.0, max(0.0, val)))


def symmetric_interval(pmf: Pmf, level: float) -> int:
    """Smallest halfwidth m with sum_{|k| <= m} P(xi = k) >= level."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must be in (0, 1), got {level!r}")
    acc = float(pmf.probs_half[0])
    if acc >= level:
        return 0
    acc, m = _fold_to_level(pmf.probs_half, acc, 1, pmf.support_halfwidth + 1, level)
    if m is not None:
        return m
    raise UnreachableLevelError(
        f"level {level} unreachable: accumulated {acc:.12f} with tail bound "
        f"{pmf.tail_mass_bound:.3e}"
    )


def suggested_kmax(eta: float) -> int:
    """Series length at which the n b_n tail is certifiably < 1e-12.

    This sizes the b / b~ series of ``variance_for``; the n b_n sum is
    the slowest-converging series built from b.  Only O(k) series are
    built at this length, so it is not held to the O(k^2) tables' cap
    (k <= 177,513 at eta = ETA_GUARD).
    """
    _check_eta_tol(eta, _SERIES_TOL)
    r = np.exp(-eta * eta / 8.0)
    k = 8
    while 0.5 * r ** (k + 1) * ((k + 1) * (1.0 - r) + r) / (1.0 - r) ** 2 >= _SERIES_TOL:
        k = k + max(8, k // 2)
    return k


def variance_for(eta: float) -> float:
    """Variance of the limiting offset from the generating-function series.

    Uses B(1) = sum b_n / n, B'(1) = sum b_n, B''(1) = sum n b_n and the
    tilde analogues:

        Var = 2 {B'' + B'^2} - 2 exp(-B + B~) (1 - exp(-B)) {B~'' + B~'^2}

    which equals the second moment of the masses of ``build_pmf`` exactly
    (same approximation, same total).  The series run to
    ``suggested_kmax``, where the n b_n tail is certifiably below 1e-12.
    O(K): only sums of b_n and b~_n enter, so no q / q~ recursion runs.
    """
    kmax = suggested_kmax(eta)
    b, bt = _b_series(eta, kmax)
    n = np.arange(1, kmax + 1, dtype=float)
    b = b[1:]
    bt = bt[1:]
    B = float(np.sum(b / n))
    Bp = float(np.sum(b))
    Bpp = float(np.sum(n * b))
    Bt = float(np.sum(bt / n))
    Btp = float(np.sum(bt))
    Btpp = float(np.sum(n * bt))
    var = 2.0 * (Bpp + Bp * Bp) - 2.0 * np.exp(-B + Bt) * (1.0 - np.exp(-B)) * (Btpp + Btp * Btp)
    return float(var)


def tv_bound(eta: float, n: int, tau: int) -> float:
    """Finite-sample total variation bound, capped at 1.

    4 max{exp(-eta^2 tau / 8), exp(-eta^2 (n - tau) / 8)}: the geometric
    convergence rate of the finite-sample offset law to its limit.
    """
    if not (1 <= tau <= n - 1):
        raise DomainError(f"tau must be in [1, n-1], got tau={tau}, n={n}")
    if not np.isfinite(eta) or eta <= 0:
        raise DomainError(f"eta must be positive, got {eta!r}")
    val = 4.0 * max(np.exp(-eta * eta * tau / 8.0), np.exp(-eta * eta * (n - tau) / 8.0))
    return float(min(1.0, val))


# --- serialization -------------------------------------------------------

def _fmt(x: float) -> str:
    # 17 significant digits: lossless float64 round trip
    return format(float(x), ".17g")


def _fmt_masses(pmf: Pmf) -> list[str]:
    # the K+1 distinct masses formatted once, mirrored to k = -K..K
    half = [_fmt(x) for x in pmf.probs_half.tolist()]
    return half[:0:-1] + half


def write_pmf_csv(pmf: Pmf, path) -> None:
    """Write `k,prob` rows with k ascending, 17 significant digits."""
    K = pmf.support_halfwidth
    rows = "".join(f"{k},{p}\n" for k, p in zip(range(-K, K + 1), _fmt_masses(pmf)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,prob\n" + rows)


def read_pmf_csv(path) -> dict[int, float]:
    """Read a `k,prob` file back into an offset -> mass mapping."""
    out: dict[int, float] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "k,prob":
            raise DomainError(f"expected header 'k,prob', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            kstr, pstr = line.split(",")
            out[int(kstr)] = float(pstr)
    return out


def pmf_to_json(pmf: Pmf) -> str:
    """JSON object {eta, K, tail_mass_bound, probs: [...]}, k ascending.

    Floats carry 17 significant digits, enough for a lossless round
    trip.
    """
    K = pmf.support_halfwidth
    probs = ", ".join(_fmt_masses(pmf))
    return (
        f'{{"eta": {_fmt(pmf.eta)}, "K": {K}, '
        f'"tail_mass_bound": {_fmt(pmf.tail_mass_bound)}, "probs": [{probs}]}}'
    )
