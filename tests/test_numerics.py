"""Survival-function machinery: frozen oracle values and identities.

Expected constants were produced ahead of the implementation with an
independent 50-digit evaluation (mpmath.ncdf / numerical quadrature) and
are frozen here.
"""

import math

import numpy as np
import pytest

from changepoint.errors import DomainError
from changepoint.numerics import (
    left_sum,
    log_b_tilde,
    log_std_normal_survival,
    std_normal_survival,
)

# mpmath.ncdf(-1.96) at 50 digits
SF_196 = 0.024997895148220436
# mpmath.log(mpmath.ncdf(-37.5))
LOG_SF_375 = -707.66898931750719
# quadrature of E[exp(-S_1) 1{S_1 > 0}] for drift -2, scale 2 (eta = 2)
B_TILDE_1_2 = 0.0737019352604


def test_survival_at_zero_is_half():
    assert std_normal_survival(0.0) == pytest.approx(0.5, abs=1e-16)


def test_survival_oracle_value():
    assert std_normal_survival(1.96) == pytest.approx(SF_196, rel=1e-12)


@pytest.mark.parametrize("x", [-8.0, -3.2, -1.0, 0.0, 0.7, 2.5, 8.0])
def test_reflection_identity(x):
    assert std_normal_survival(x) + std_normal_survival(-x) == pytest.approx(1.0, abs=1e-14)


def test_survival_strictly_decreasing_on_grid():
    # beyond |x| ~ 8 the value saturates at 1.0 in float64, so strictness
    # is only meaningful on the resolvable range
    grid = np.linspace(-8, 8, 401)
    vals = std_normal_survival(grid)
    assert np.all(np.diff(vals) < 0)


def test_log_survival_at_zero():
    assert log_std_normal_survival(0.0) == pytest.approx(math.log(0.5), rel=1e-15)


def test_log_survival_far_tail_oracle():
    assert log_std_normal_survival(37.5) == pytest.approx(LOG_SF_375, rel=1e-12)


def _asymptotic_log_sf(x: float) -> float:
    # three-correction-term expansion, the independent large-x oracle
    return -0.5 * x * x - math.log(x * math.sqrt(2 * math.pi)) + math.log1p(
        -(x ** -2) + 3 * x ** -4 - 15 * x ** -6
    )


@pytest.mark.parametrize("x", [20.0, 30.0, 37.5, 40.0])
def test_log_survival_matches_asymptotic_expansion(x):
    assert log_std_normal_survival(x) == pytest.approx(_asymptotic_log_sf(x), rel=1e-10)


@pytest.mark.parametrize("x", [10.0, 15.0])
def test_log_survival_near_crossover(x):
    # the three-term expansion itself is only O(x^-8) accurate here
    assert log_std_normal_survival(x) == pytest.approx(_asymptotic_log_sf(x), rel=1e-7)


@pytest.mark.parametrize("x", np.linspace(-8, 8, 33).tolist())
def test_log_and_plain_survival_consistent(x):
    assert math.exp(log_std_normal_survival(x)) == pytest.approx(
        std_normal_survival(x), rel=1e-12
    )


def test_log_b_tilde_moderate_magnitude():
    got = math.exp(log_b_tilde(1, 2.0))
    assert got == pytest.approx(B_TILDE_1_2, rel=1e-11)
    assert got == pytest.approx(math.exp(4) * std_normal_survival(3.0), rel=1e-13)


def test_log_b_tilde_no_overflow_at_large_exponent():
    # plain prefactor would be exp(625)
    val = log_b_tilde(100, 2.5)
    assert math.isfinite(val)
    assert val == pytest.approx(625.0 + LOG_SF_375, rel=1e-12)


def test_log_b_tilde_is_minus_inf_where_the_tilt_overflows():
    # n eta^2 overflows for n = 8 at eta = 5e153, not yet for n = 1, 2
    assert log_b_tilde(8, 1e200) == -math.inf
    logs = log_b_tilde(np.array([1, 2, 8]), 5e153)
    assert logs[2] == -math.inf
    assert np.all(np.isfinite(logs[:2])) and np.all(logs[:2] < 0.0)


@pytest.mark.parametrize("eta", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_b_tilde_bounded_by_b(eta):
    n = np.array([1, 2, 3, 5, 10, 50, 100, 1000, 10_000])
    logs = log_b_tilde(n, eta)
    assert np.all(np.isfinite(logs))  # the log form never under/overflows
    bt = np.exp(logs)
    b = std_normal_survival(eta * np.sqrt(n) / 2.0)
    assert np.all(bt <= b)
    # exponentiated value is positive wherever b itself is representable
    assert np.all((bt > 0) | (b == 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(DomainError):
        std_normal_survival(bad)
    with pytest.raises(DomainError):
        log_std_normal_survival(bad)


def test_log_b_tilde_domain_checks():
    with pytest.raises(DomainError):
        log_b_tilde(0, 1.0)
    with pytest.raises(DomainError):
        log_b_tilde(3, -1.0)
    with pytest.raises(DomainError):
        log_b_tilde(2.5, 1.0)


def test_left_sum_adds_left_to_right_without_compensation():
    # each 1e-16 is lost against 1.0; a compensated sum would keep them
    assert left_sum([1e-16, 1e-16], 1.0) == 1.0
    assert left_sum([1e-16, 1e-16, 1.0]) == 1.0 + 2e-16
    assert left_sum([]) == 0.0
    assert left_sum(np.array([0.5, 0.25]).tolist(), 2.0) == 2.75
