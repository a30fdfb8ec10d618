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

The support halfwidth K has one rule, ``support_halfwidth_for``.  As q_m
needs only q_<m, ``build_pmf(eta, level=L)`` stops the one recursion
(``_Ladder.fill``) at the halfwidth m that reaches L, by the fold
``symmetric_interval`` uses (``_fold_to_level``), keeping the full law's
first m + 1 masses bit for bit.

The recursion has two parts.  Below index 2048 each q_m is one dot
product over q_<m.  From 2048 on, rows come in tiles of 128 on the fixed
grid 2048 + 128 k: one matrix product per tile gives each row's sum over
the entries below the tile, and a 128-row triangular system the rest.
The product is summed in order over fixed slices of 384 history rows (32
indices each): with a longer inner dimension, OpenBLAS rounded
differently at 1 and 2 threads.  The first 2048 indices keep the bits of
the per-index loop; past them the sums round in another order (within
2e-15 relative).  As the grid and slices are fixed, q_m depends on
(eta, m) alone for one BLAS build, not on its thread count, so level
prefixes, full laws and ``build_ladder_tables`` (the recursion's
(q, q~) over [0, kmax]) agree bit for bit whatever index each one stops
at.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PrecisionError, UnreachableLevelError
from .numerics import check_eta, check_split, log_b_tilde, std_normal_survival

__all__ = [
    "Pmf",
    "build_ladder_tables",
    "build_pmf",
    "support_halfwidth_for",
    "full_support_halfwidth",
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
_TOO_LONG = "support for eta={} at tol={} exceeds the {} cap"

# Certified tolerance of the variance series and of the no-ladder mass.
_SERIES_TOL = 1e-12
# Default bound on the support's discarded tail mass (``--tol``'s default too).
DEFAULT_TOL = 1e-10


def _check_eta_tol(eta: float, tol: float) -> None:
    check_eta(eta)
    if eta < ETA_GUARD:
        raise ConfigurationError(
            f"eta must be >= {ETA_GUARD} (got {eta!r}); smaller changes make the "
            "ladder series impractically long"
        )
    if not (0.0 < tol <= 1e-6):
        raise ConfigurationError(f"tol must be in (0, 1e-6], got {tol!r}")


def check_level(level: float) -> None:
    """Refuse a coverage level outside the open unit interval."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must be in (0, 1), got {level!r}")


def build_ladder_tables(eta: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """``_Ladder``'s q and q~ over indices 0..kmax, index 0 holding the convention value 1."""
    _check_eta_tol(eta, _SERIES_TOL)
    if kmax < 1:
        raise ConfigurationError(f"kmax must be >= 1, got {kmax}")
    if kmax > _KMAX_CAP:
        raise PrecisionError(f"kmax {kmax} exceeds the cap {_KMAX_CAP}")
    ladder = _Ladder(eta, kmax)
    ladder.fill(1, kmax + 1)
    return ladder.q, ladder.q_tilde


# The recursion's tile grid, _TILE_START + _TILE k (module docstring).
_TILE_START = 2048
_TILE = 128
_CHUNK = 32  # rows of the history product: _TILE_START is a multiple of it
_SLICE = 384  # longest inner dimension of one BLAS call in the history product


class _Ladder:
    """q and q~ over [0, N], filled by ``fill``, which builds b / b~ only as far as it reaches.

    Past _TILE_START, a tile at t0 splits m q_m = sum_{j<m} b_{m-j} q_j
    into the history j < t0 and the in-tile part.  With j = C a + c and
    H[a, w] = b[1 + C a + w] (w < T + C - 1), the history of row t0 + r
    is sum_c P[c, C - 1 - c + r], P = Y^T H' for Y = q[:t0] as rows of C
    and H' the first t0 / C rows of H in reverse order: one matrix product
    for both sequences.  The in-tile rows then solve (diag(m) - L) x = h,
    L[r, u] = b[r - u] strictly lower triangular.
    """

    def __init__(self, eta: float, N: int):
        self.eta = eta
        # past _TILE_START, b runs to the end of the last tile; past N it is
        # zero, which only reaches tile rows past N
        self._last = N - (N - _TILE_START) % _TILE
        self.b = np.zeros((2, max(N + 1, self._last + _TILE)))
        # b[m:0:-1] == rb[N-m:N]: the same values in the same order, but
        # contiguous, so np.dot hands them to BLAS without a per-call copy
        self.rb = np.empty((2, N + 1))
        self.reach = 0  # b and rb hold b_1 .. b_reach
        self.qq = np.empty((2, N + 1))
        self.qq[:, 0] = 1.0
        self.q, self.q_tilde = self.qq
        self._H = None  # H with its rows reversed: row a at index A - 1 - a
        self._windows = None  # every row of H, as a view of b
        self._h_rows = 0  # rows of H built so far
        self._L = None

    def extend(self, reach: int) -> None:
        """Build b_m and b~_m for m <= reach, the full series' bits (``_b_terms``)."""
        old, N = self.reach, self.rb.shape[1] - 1
        if reach > old:
            self.b[:, old + 1 : reach + 1] = _b_terms(self.eta, np.arange(old + 1, reach + 1))
            self.rb[:, N - reach : N - old] = self.b[:, reach:old:-1]
            self.reach = reach

    def fill(self, lo: int, hi: int) -> None:
        """Fill q[m] and q~[m] for m in [lo, hi), given the entries below lo."""
        N = self.rb.shape[1] - 1
        # b through hi - 1, and past _TILE_START through the end of its tile,
        # which the tile's history reads
        end = hi - 1 if hi <= _TILE_START else hi - 1 + (_TILE_START - hi) % _TILE
        self.extend(min(N, end))
        (rb, rbt), (q, qt) = self.rb, self.qq
        for m in range(lo, min(hi, _TILE_START)):
            q[m] = np.dot(rb[N - m : N], q[:m]) / m
            qt[m] = np.dot(rbt[N - m : N], qt[:m]) / m
        first = max(lo, _TILE_START)
        for t0 in range(first - (first - _TILE_START) % _TILE, hi, _TILE):
            self._tile(t0, max(lo, t0), min(hi, t0 + _TILE))

    def _tile(self, t0: int, lo: int, hi: int) -> None:
        # rows [lo, hi) of the tile at t0; the whole tile is computed, so a
        # row's bits do not depend on where the fill stops
        a = t0 // _CHUNK
        H = self._history_operator(a)
        L, rows = self._in_tile_operator()
        Y = self.qq[:, :t0].reshape(2, a, _CHUNK).transpose(0, 2, 1)
        # summed in order over fixed slices of the history, so that no BLAS
        # call's rounding depends on its thread count (module docstring)
        P = np.matmul(Y[:, :, :_SLICE], H[:, :_SLICE])
        for s in range(_SLICE, a, _SLICE):
            P += np.matmul(Y[:, :, s : s + _SLICE], H[:, s : s + _SLICE])
        # h[r] = sum_c P[c, C - 1 - c + r]: that entry sits at flat offset
        # C - 1 + c (W - 1) + r, so a (C, W - 1) view from C - 1 on holds it at [c, r]
        W = P.shape[2]
        diagonals = P.reshape(2, -1)[:, _CHUNK - 1 : _CHUNK * W - 1].reshape(2, _CHUNK, W - 1)
        h = diagonals[:, :, :_TILE].sum(axis=1)[:, :, None]
        m = t0 + rows
        # x = (h + L x) / m: row r is final once the rows above it are, so
        # the iterates stop changing within _TILE steps
        x = h / m
        for _ in range(_TILE):
            nxt = (h + np.matmul(L, x)) / m
            if np.array_equal(nxt, x):
                break
            x = nxt
        self.qq[:, lo:hi] = x[:, lo - t0 : hi - t0, 0]

    def _history_operator(self, a: int) -> np.ndarray:
        """The first ``a`` rows of H in reverse order, for both sequences.

        Rows are added as tiles need them, at the tail of one reversed
        buffer sized for the last tile, so the slice handed to matmul is
        contiguous and no row is built twice.
        """
        if self._H is None:
            W = _TILE + _CHUNK - 1
            self._H = np.empty((2, self._last // _CHUNK, W))
            self._windows = np.lib.stride_tricks.sliding_window_view(self.b[:, 1:], W, axis=1)
        A, built = self._H.shape[1], self._h_rows
        if a > built:
            # row a - 1 reads b up to C a + T - 1, the end of the tile at C a, which
            # ``fill`` has built (zero past N)
            rows = self._windows[:, _CHUNK * built : _CHUNK * a : _CHUNK]
            self._H[:, A - a : A - built] = rows[:, ::-1]
            self._h_rows = a
        return self._H[:, A - a :]

    def _in_tile_operator(self):
        """L and the in-tile offsets, for both sequences."""
        if self._L is None:
            r = np.arange(_TILE)
            # contiguous: matmul runs about 3x slower on the strides the fancy index leaves
            L = np.ascontiguousarray(np.tril(self.b[:, np.abs(r[:, None] - r)], -1))
            self._L = L, r[:, None].astype(float)
        return self._L


def _b(eta: float, n: np.ndarray) -> np.ndarray:
    """b_n = sf(eta sqrt(n) / 2); 0 where the argument overflows (eta past about 4e307)."""
    with np.errstate(over="ignore"):
        x = eta * np.sqrt(n) / 2.0
    return std_normal_survival(np.minimum(x, np.finfo(float).max))


def _b_terms(eta: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b_n and b~_n at the indices n (b~ via log b~), elementwise: any index range
    gets the bits of the full series."""
    return _b(eta, n), np.exp(log_b_tilde(n, eta))


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
    """(1 - ||G+||, bound): exp(-sum_j b_j / j) cut at the first J whose analytic
    tail bound, from sf(x) <= exp(-x^2/2)/2, drops below ``tol``, and that bound."""
    r = np.exp(-eta * eta / 8.0)
    J = _no_ladder_cutoff(r, tol)
    j = np.arange(1, J + 1, dtype=float)
    series = float(np.sum(_b(eta, j) / j))
    return float(np.exp(-series)), float(_no_ladder_tail(r, J))


@dataclass(frozen=True)
class Pmf:
    """Symmetric distribution of the centered estimator over k in [-K, K].

    ``probs_half[k]`` stores the mass at +k (= mass at -k); the total over
    both signs plus ``tail_mass_bound`` covers the whole series, up to
    the intrinsic super-unity excess described in the module docstring.
    """

    eta: float
    probs_half: np.ndarray
    tail_mass_bound: float
    no_ladder: float

    @property
    def support_halfwidth(self) -> int:
        return len(self.probs_half) - 1

    def prob(self, k: int) -> float:
        """Mass at integer offset k (0 outside the stored support)."""
        k = abs(int(k))
        return float(self.probs_half[k]) if k <= self.support_halfwidth else 0.0

    def total_mass(self) -> float:
        return float(self.probs_half[0] + 2.0 * self.probs_half[1:].sum())

    def as_mapping(self) -> dict[int, float]:
        K = self.support_halfwidth
        half = self.probs_half.tolist()
        return dict(zip(range(-K, K + 1), half[:0:-1] + half))

    @functools.cached_property
    def _masses_text(self) -> list[str]:
        # the K+1 distinct masses formatted once for both writers, mirrored to k = -K..K;
        # "%.17g" % x gives the bytes of format(x, ".17g")
        half = ((" %.17g" * len(self.probs_half)) % tuple(self.probs_half.tolist())).split()
        return half[:0:-1] + half


def support_halfwidth_for(eta: float, tol: float = DEFAULT_TOL) -> int:
    """Support halfwidth K of ``build_pmf(eta, tol)``, which may exceed the cap.

    K >= 8 is the first index past which the certified tail, via
    q_k <= exp(-eta^2 k / 8) / 2, is below ``tol``; for eta >= 27.46 the
    masses underflow to exact 0.0 before K.
    """
    _check_eta_tol(eta, tol)
    r = np.exp(-eta * eta / 8.0)
    # The discarded terms sum to at most g0 r^(K+1) / (1-r); this K makes
    # r^K <= tol (1-r) / 2, so that bound is below g0 r tol / 2 < tol.
    with np.errstate(divide="ignore", over="ignore"):  # tiny tol underflows to inf
        size = 8.0 / (eta * eta) * np.log(2.0 / (tol * (1.0 - r)))
    if not np.isfinite(size):
        raise PrecisionError(_TOO_LONG.format(eta, tol, _KMAX_CAP))
    return max(8, int(np.ceil(size)))


def full_support_halfwidth(eta: float, tol: float = DEFAULT_TOL) -> int:
    """K of the full law, refused past the cap before ``build_pmf(eta, tol)`` would build it."""
    K = support_halfwidth_for(eta, tol)
    if K > _KMAX_CAP:
        raise PrecisionError(_TOO_LONG.format(eta, tol, _KMAX_CAP))
    return K


def build_pmf(eta: float, tol: float = DEFAULT_TOL, level: float | None = None) -> Pmf:
    """Point masses of the limiting centered estimator over [-K, K].

    K is ``support_halfwidth_for(eta, tol)``, and ``tail_mass_bound`` the
    certified bound g0 r^(K+1) / (1-r) on the masses past it, with
    g0 = 1 - ||G+|| and r = exp(-eta^2 / 8).  With a ``level`` in (0, 1),
    K is instead the smallest m with P(|xi| <= m) >= level, folded as
    ``symmetric_interval`` folds it: O(m^2) work for the same masses and
    interval, and a K past the cap bounds m instead of being refused.  A
    level unreached within min(K, cap) gives the full build or its refusal.
    """
    K = full_support_halfwidth(eta, tol) if level is None else support_halfwidth_for(eta, tol)
    if level is not None:
        check_level(level)
    g0, half, m = _ladder_masses(eta, min(K, _KMAX_CAP), min(tol, _SERIES_TOL), level)
    # m None: no level, or one unreached within min(K, cap), so the full law
    return _cut_pmf(eta, g0, half, full_support_halfwidth(eta, tol) if m is None else m)


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
    ladder = _Ladder(eta, N)
    if level is None:
        ladder.extend(N)  # the fill runs to N: b / b~ in one pass
    q, qt = ladder.q, ladder.q_tilde
    half = np.empty(N + 1)
    half[0] = g0 * g0
    acc = float(half[0])
    if level is not None and acc >= level:
        return g0, half, 0
    lo = 1
    while lo <= N:
        hi = lo + max(_FIRST_BLOCK, lo // 8)
        if hi > _TILE_START:  # end on the tile grid, so no tile is computed twice
            hi += -(hi - _TILE_START) % _TILE
        hi = min(N + 1, hi)
        ladder.fill(lo, hi)
        half[lo:hi] = g0 * (q[lo:hi] - g * qt[lo:hi])
        if level is not None:
            acc, m = _fold_to_level(half, acc, lo, hi, level)
            if m is not None:
                return g0, half, m
        lo = hi
    return g0, half, None


def _fold_to_level(half: np.ndarray, acc: float, lo: int, hi: int, level: float):
    """Resume ``acc = half[0] + 2 half[1] + ...`` over m in [lo, hi).

    Returns (acc, m) at the first m where acc reaches ``level``, else
    (acc, None) with acc summed through hi - 1.
    """
    for m in range(lo, hi):
        acc += (2.0 if m else 1.0) * float(half[m])
        if acc >= level:
            return acc, m
    return acc, None


def _cut_pmf(eta: float, g0: float, half: np.ndarray, K: int) -> Pmf:
    half = half[: K + 1].copy()
    half.setflags(write=False)
    r = np.exp(-eta * eta / 8.0)
    tail = float(g0 * r ** (K + 1) / (1.0 - r))
    return Pmf(eta=eta, probs_half=half, tail_mass_bound=tail, no_ladder=g0)


def symmetric_interval(pmf: Pmf, level: float) -> int:
    """Smallest halfwidth m with sum_{|k| <= m} P(xi = k) >= level."""
    check_level(level)
    acc, m = _fold_to_level(pmf.probs_half, 0.0, 0, pmf.support_halfwidth + 1, level)
    if m is not None:
        return m
    raise UnreachableLevelError(
        f"level {level} unreachable: accumulated {acc:.12f} with tail bound "
        f"{pmf.tail_mass_bound:.3e}"
    )


def folded_mass(pmf: Pmf, m: int) -> float:
    """P(|xi| <= m) folded as ``symmetric_interval`` folds it, so at its m never below the level."""
    return _fold_to_level(pmf.probs_half, 0.0, 0, m + 1, np.inf)[0]


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
    b, bt = _b_terms(eta, np.arange(1, kmax + 1))
    n = np.arange(1, kmax + 1, dtype=float)
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
    check_split("tau", tau, n)
    check_eta(eta)
    val = 4.0 * max(np.exp(-eta * eta * tau / 8.0), np.exp(-eta * eta * (n - tau) / 8.0))
    return float(min(1.0, val))


# --- serialization -------------------------------------------------------

def _fmt(x: float) -> str:
    # 17 significant digits: lossless float64 round trip
    return format(float(x), ".17g")


def write_pmf_csv(pmf: Pmf, path) -> None:
    """Write `k,prob` rows with k ascending, 17 significant digits."""
    K = pmf.support_halfwidth
    cells = [None] * (4 * K + 2)
    cells[::2] = range(-K, K + 1)
    cells[1::2] = pmf._masses_text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,prob\n" + ("%d,%s\n" * (2 * K + 1)) % tuple(cells))


_PMF_ROW = np.dtype([("k", np.int64), ("p", np.float64)])


def read_pmf_csv(path) -> dict[int, float]:
    """Read a `k,prob` file back into an offset -> mass mapping, k in file order."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "k,prob":
            raise DomainError(f"expected header 'k,prob', got {header!r}")
        first = next((line for line in fh if line.strip()), None)
        if first is None:  # loadtxt warns on a file with no rows
            return {}
        try:
            rows = np.loadtxt(
                itertools.chain((first,), fh), delimiter=",", comments=None, ndmin=1, dtype=_PMF_ROW
            )
        except ValueError as exc:
            raise DomainError(f"{path}: {exc}") from None
    return dict(zip(rows["k"].tolist(), rows["p"].tolist()))


def pmf_to_json(pmf: Pmf) -> str:
    """JSON object {eta, K, tail_mass_bound, probs: [...]}, k ascending.

    Floats carry 17 significant digits, enough for a lossless round
    trip.
    """
    K = pmf.support_halfwidth
    probs = ", ".join(pmf._masses_text)
    return (
        f'{{"eta": {_fmt(pmf.eta)}, "K": {K}, '
        f'"tail_mass_bound": {_fmt(pmf.tail_mass_bound)}, "probs": [{probs}]}}'
    )
