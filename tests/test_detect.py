"""Detection statistics, the iterated-logarithm normalization, diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from changepoint.detect import (
    covariance_change_statistic,
    darling_erdos_inverse,
    darling_erdos_transform,
    detection_report_to_json,
    mean_change_statistic,
    p_value,
    residual_diagnostics,
)
from changepoint.errors import DegenerateDataError, DomainError
from changepoint.model import Dataset


def _hand_rolled_univariate_trace(y: np.ndarray) -> np.ndarray:
    """Independent oracle: split-mean variance-ratio statistic by direct loops."""
    n = len(y)
    var_n = np.mean((y - y.mean()) ** 2)
    out = np.full(n - 1, np.nan)
    for t in range(2, n - 1):  # admissible for d = 1: [2, n-2]
        left, right = y[:t], y[t:]
        ss = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
        out[t - 1] = n * math.log(var_n / (ss / n))
    return out


def test_univariate_trace_matches_hand_rolled_oracle():
    rng = np.random.default_rng(17)
    y = rng.standard_normal(10)
    y[6:] += 2.0
    report = mean_change_statistic(Dataset(y))
    oracle = _hand_rolled_univariate_trace(y)
    finite = np.isfinite(oracle)
    assert np.allclose(report.trace[finite], oracle[finite], rtol=1e-10)
    assert np.array_equal(np.isfinite(report.trace), finite)
    assert report.p == 1
    # n = 10 is below the iterated-logarithm domain
    assert report.W is None and report.p_value is None


def test_identical_rows_degenerate():
    with pytest.raises(DegenerateDataError):
        mean_change_statistic(Dataset(np.ones((12, 2))))


def test_two_clusters_found_at_boundary():
    rng = np.random.default_rng(23)
    y = rng.standard_normal((30, 2)) * 0.2
    y[12:] += [3.0, -2.0]
    report = mean_change_statistic(Dataset(y))
    assert report.tau_hat == 12
    assert report.statistic_kind == "mean_change"
    assert report.p == 2
    assert report.U == np.nanmax(report.trace)


def test_mean_change_needs_enough_rows():
    with pytest.raises(DomainError):
        mean_change_statistic(Dataset(np.random.default_rng(0).standard_normal((5, 2))))


# --- normalization ----------------------------------------------------------

def test_transform_at_zero_statistic():
    n, p = 40, 3
    ll = math.log(math.log(n))
    expected = -(2.0 * ll + 0.5 * p * math.log(ll) - math.lgamma(p / 2.0))
    assert darling_erdos_transform(0.0, n, p) == pytest.approx(expected, rel=1e-14)


def test_transform_monotone_in_statistic():
    vals = [darling_erdos_transform(u, 60, 2) for u in (0.0, 1.0, 5.0, 20.0, 80.0)]
    assert vals == sorted(vals)


def test_transform_inverse_round_trip():
    u = darling_erdos_inverse(3.78, 40, 3)
    assert darling_erdos_transform(u, 40, 3) == pytest.approx(3.78, abs=1e-10)


def test_transform_domain():
    with pytest.raises(DomainError):
        darling_erdos_transform(1.0, 15, 1)
    with pytest.raises(DomainError):
        darling_erdos_transform(-0.5, 40, 1)
    with pytest.raises(DomainError):
        darling_erdos_transform(1.0, 40, 0)
    with pytest.raises(DomainError):
        darling_erdos_inverse(1.0, 15, 1)
    with pytest.raises(DomainError):
        darling_erdos_inverse(1.0, 40, 0)


def test_p_value_reported_pairs():
    assert p_value(3.78) == pytest.approx(0.0448, abs=2e-4)
    assert p_value(3.76) == pytest.approx(0.0455, abs=2e-4)


def test_p_value_limits_and_monotonicity():
    assert p_value(60.0) == pytest.approx(0.0, abs=1e-20)
    assert p_value(-60.0) == 1.0
    grid = np.linspace(-5, 8, 40)
    vals = [p_value(w) for w in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


# --- covariance change -------------------------------------------------------

def test_covariance_reversal_symmetry():
    rng = np.random.default_rng(31)
    y = rng.standard_normal((40, 2))
    y[20:] *= 2.5
    fwd = covariance_change_statistic(Dataset(y))
    rev = covariance_change_statistic(Dataset(y[::-1].copy()))
    n = 40
    for t in range(3, n - 2):
        assert rev.trace[n - t - 1] == pytest.approx(fwd.trace[t - 1], rel=1e-9)
    assert fwd.p == 3  # d(d+1)/2 for d = 2


def test_covariance_null_p_values_roughly_uniform():
    # d = 1, n = 200, no change: Kolmogorov distance of the p-values to
    # uniform stays small even though the loglog convergence is slow
    rng = np.random.default_rng(777)
    pvals = []
    for _ in range(2000):
        y = rng.standard_normal(200)
        pvals.append(covariance_change_statistic(Dataset(y)).p_value)
    pvals = np.sort(pvals)
    grid = (np.arange(1, 2001)) / 2000.0
    ks = np.max(np.abs(pvals - grid))
    assert ks <= 0.1


def test_covariance_jump_located():
    # true localization rate for a variance ratio of 9 at this geometry
    # is ~94.5%; the gate sits 2 sigma below it
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(1000):
        y = rng.standard_normal(200)
        y[100:] *= 3.0  # variance ratio 9
        report = covariance_change_statistic(Dataset(y))
        hits += abs(report.tau_hat - 100) <= 5
    assert hits >= 930


# --- diagnostics -------------------------------------------------------------

def test_diagnostics_trace_identity_and_zero_sums():
    rng = np.random.default_rng(12)
    for n, d, tau in [(40, 3, 14), (60, 2, 20), (30, 1, 11)]:
        y = rng.standard_normal((n, d))
        y[tau:] += rng.standard_normal(d)
        diag = residual_diagnostics(Dataset(y), tau)
        assert diag.mahalanobis_sq.mean() == pytest.approx(d * (n - 2) / n, rel=1e-10)
        assert np.allclose(diag.deviations[:tau].sum(axis=0), 0.0, atol=1e-9)
        assert np.allclose(diag.deviations[tau:].sum(axis=0), 0.0, atol=1e-9)


def test_diagnostics_reproduces_engineered_moments():
    mu1 = np.array([6.738, 7.137, 6.725])
    mu2 = np.array([7.383, 7.483, 7.166])
    rng = np.random.default_rng(55)
    y = rng.standard_normal((40, 3)) * 0.3
    y[:14] += mu1 - y[:14].mean(axis=0)
    y[14:] += mu2 - y[14:].mean(axis=0)
    diag = residual_diagnostics(Dataset(y), 14)
    assert np.allclose(diag.mu1, mu1, atol=1e-12)
    assert np.allclose(diag.mu2, mu2, atol=1e-12)


def test_diagnostics_domain_and_degenerate():
    with pytest.raises(DomainError):
        residual_diagnostics(Dataset(np.random.default_rng(0).standard_normal((10, 1))), 10)
    with pytest.raises(DegenerateDataError):
        residual_diagnostics(Dataset(np.ones((10, 2))), 5)


# --- invariances and serialization -------------------------------------------

def _top_two_gap(trace: np.ndarray) -> float:
    top = np.sort(trace[np.isfinite(trace)])
    return float(top[-1] - top[-2])


@st.composite
def _shifted_series(draw):
    """(seed, n, tau, shift): an n x d normal series whose mean moves by shift after row tau."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(16, 60))
    tau = draw(st.integers(d + 1, n - d - 1))
    shift = tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    return draw(st.integers(0, 2**32 - 1)), n, tau, shift


def _series(case) -> np.ndarray:
    seed, n, tau, shift = case
    y = np.random.default_rng(seed).standard_normal((n, len(shift)))
    y[tau:] += shift
    return y


@settings(max_examples=60, deadline=None, derandomize=True)
@example(case=(41, 36, 18, (1.0, 0.5, -0.5)), offset=(1e6, -2e6, 3e6))
@given(case=_shifted_series(), offset=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_location_invariance(case, offset):
    y = _series(case)
    a = mean_change_statistic(Dataset(y))
    assume(_top_two_gap(np.asarray(a.trace)) > 1e-6)
    b = mean_change_statistic(Dataset(y + np.array(offset[: y.shape[1]])))
    assert b.tau_hat == a.tau_hat
    assert b.U == pytest.approx(a.U, rel=1e-10, abs=1e-8)
    assert b.W == pytest.approx(a.W, rel=1e-10, abs=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(
    case=(43, 36, 18, (1.0, 0.5, -0.5)),
    A=((2.0, 0.3, 0.0), (0.1, -1.0, 0.4), (0.0, 0.2, 0.7)),
    offset=(0.0, 0.0, 0.0),
)
@given(
    case=_shifted_series(),
    A=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=3, max_size=3),
    offset=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
)
def test_affine_invariance_of_mean_statistic(case, A, offset):
    y = _series(case)
    d = y.shape[1]
    A = np.array(A)[:d, :d]
    assume(np.linalg.svd(A, compute_uv=False).min() > 0.05)  # well away from singular
    a = mean_change_statistic(Dataset(y))
    assume(_top_two_gap(np.asarray(a.trace)) > 1e-6)
    b = mean_change_statistic(Dataset(y @ A.T + np.array(offset[:d])))
    assert b.tau_hat == a.tau_hat
    assert b.U == pytest.approx(a.U, rel=1e-8)


def test_determinism_and_json_shape():
    rng = np.random.default_rng(61)
    y = rng.standard_normal((24, 2))
    y[10:] += 1.0
    r1 = mean_change_statistic(Dataset(y))
    r2 = mean_change_statistic(Dataset(y))
    text = json.dumps(detection_report_to_json(r1), sort_keys=True)
    assert text == json.dumps(detection_report_to_json(r2), sort_keys=True)
    obj = json.loads(text)
    assert set(obj) == {"kind", "U", "W", "p_value", "p", "tau_hat", "trace", "admissible"}
    assert len(obj["trace"]) == 23
    assert obj["trace"][0] is None and obj["trace"][3] is not None
