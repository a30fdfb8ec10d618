"""Standard-normal survival machinery, stable in the log domain.

Every closed-form quantity in this package reduces to evaluations of the
survival function ``sf(x) = 1 - Phi(x)`` at arguments that can reach ~40,
where the plain difference underflows long before the information runs
out.  ``log_std_normal_survival`` stays accurate there, and
``log_b_tilde`` builds the exponentially tilted weight

    b~_n = exp(n * eta^2) * sf(3 * eta * sqrt(n) / 2)

whose naive prefactor overflows at exp(625) for quite ordinary inputs
even though the product itself is always in (0, 1].

All functions are pure and operate in float64; the survival functions
accept scalars or numpy arrays (broadcasting elementwise).
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = ["std_normal_survival", "log_std_normal_survival", "log_b_tilde", "left_sum"]


def _check_finite(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr


def std_normal_survival(x):
    """Upper tail probability P(Z > x) for Z standard normal.

    Relative error is at the erfc level (~1e-15) for |x| <= 8; beyond
    that the value itself shrinks below 1e-15 and the absolute error is
    negligible.  Underflows gracefully to 0.0 near x ~ 38.
    """
    arr = _check_finite(x, "x")
    out = special.ndtr(-arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_std_normal_survival(x):
    """log P(Z > x), finite for every finite x.

    For large x this agrees with the asymptotic expansion

        -x^2/2 - log(x sqrt(2 pi)) + log(1 - x^-2 + 3 x^-4 - ...)

    to better than 1e-10 relative error in the log value, so quantities
    like sf(37.5) (~ exp(-707.67)) remain usable as exponents.
    """
    arr = _check_finite(x, "x")
    out = special.log_ndtr(-arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_b_tilde(n, eta: float):
    """log of the tilted positivity weight b~_n = e^(n eta^2) sf(3 eta sqrt(n) / 2).

    ``n`` may be a positive integer or an array of them.  The result is
    always <= 0: the weight is the expectation of exp(-S_n) on the event
    {S_n > 0} for a walk S with drift -eta^2/2 and variance eta^2 per
    step, hence bounded by P(S_n > 0) <= 1.  Where the tilt n eta^2
    overflows (eta past about 1e153) the weight is below every float and
    the result is -inf.
    """
    narr = np.asarray(n)
    if not np.all(np.isfinite(narr)) or np.any(narr != np.floor(narr)) or np.any(narr < 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    check_eta(eta)
    nf = narr.astype(float)
    with np.errstate(over="ignore"):
        tilt = nf * eta * eta
    fits = np.isfinite(tilt)
    out = np.full(nf.shape, -np.inf)
    out[fits] = tilt[fits] + log_std_normal_survival(1.5 * eta * np.sqrt(nf[fits]))
    return float(out) if np.isscalar(n) else out


def check_eta(eta: float) -> None:
    """Refuse a change size that is not a positive finite real."""
    if not np.isfinite(eta) or eta <= 0:
        raise DomainError(f"eta must be a positive finite real, got {eta!r}")


def check_split(name: str, value: int, n: int) -> None:
    """Refuse a split index outside [1, n-1]: each segment keeps at least one row."""
    if not (1 <= value <= n - 1):
        raise DomainError(f"{name} must be in [1, n-1], got {name}={value}, n={n}")


def left_sum(values, start: float = 0.0) -> float:
    """``start + v0 + v1 + ...`` added left to right: from Python 3.12 ``sum()`` compensates."""
    return float(reduce(operator.add, values, start))
