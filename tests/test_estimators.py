"""MLE walks, profile criterion, the conditional law, and intervals."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from changepoint.errors import DegenerateDataError, DomainError
from changepoint.estimators import (
    ConditionalPmf,
    cobb_conditional,
    cobb_window,
    confidence_interval,
    default_cobb_delta,
    finite_list,
    known_walk,
    mle_known,
    mle_profile,
    mle_result_to_json,
    profile_criterion,
    split_scatters,
)
from changepoint.exactdist import build_pmf
from changepoint.model import (
    Dataset,
    MultivariateOrigin,
    UnivariateOrigin,
    standardized_change_univariate,
)


def _uni_origin(mu1=0.0, mu2=1.0, sigma=1.0):
    return standardized_change_univariate(mu1, mu2, sigma).origin


# --- known-parameter MLE ----------------------------------------------------

def test_known_separated_means_recovers_tau():
    for tau in (3, 10, 17):
        y = np.concatenate([np.full(tau, -10.0), np.full(20 - tau, 10.0)])
        fit = mle_known(Dataset(y), _uni_origin(-10.0, 10.0, 1.0))
        assert fit.tau_hat == tau
        assert fit.mode == "known"
        assert fit.walk_trace[fit.tau_hat - 1] == fit.walk_trace.max()


def test_known_constant_data_drifts_to_an_edge():
    # constant y: each step of the walk is the same number, so the walk is
    # a ramp; its sign decides which edge wins (smallest index on a
    # descending ramp)
    y = np.zeros(12)
    # a(y) = (mu1-mu2)(2y - mu1 - mu2)/2 = (-1)(0-1)/2 = +1/2 > 0: rising ramp
    rising = mle_known(Dataset(y), _uni_origin(0.0, 1.0, 1.0))
    assert rising.tau_hat == 11
    falling = mle_known(Dataset(y), _uni_origin(1.0, 0.0, 1.0))
    assert falling.tau_hat == 1


def test_known_tie_resolves_to_smallest_index():
    # mu1 = -1, mu2 = 1, sigma = 1: a(y) = -2y, so y = -+1/2 alternating
    # makes the walk 1, 0, 1, 0, ...: ties at every odd split
    y = np.array([-0.5, 0.5] * 4)
    fit = mle_known(Dataset(y), _uni_origin(-1.0, 1.0, 1.0))
    assert fit.tau_hat == 1


@st.composite
def _known_case(draw):
    """(seed, n, tau, mu1, mu2, sigma): a univariate step series and its true parameters."""
    n = draw(st.integers(4, 80))
    tau = draw(st.integers(1, n - 1))
    mu1 = draw(st.floats(-5.0, 5.0))
    mu2 = draw(st.floats(-5.0, 5.0).filter(lambda m: abs(m - mu1) > 0.05))
    return draw(st.integers(0, 2**32 - 1)), n, tau, mu1, mu2, draw(st.floats(0.1, 5.0))


def _step_series(seed, n, tau, mu1, mu2, sigma) -> np.ndarray:
    y = mu1 + sigma * np.random.default_rng(seed).standard_normal(n)
    y[tau:] += mu2 - mu1
    return y


def _top_two_gap(walk: np.ndarray) -> float:
    top = np.sort(walk)
    return float(top[-1] - top[-2]) if len(top) > 1 else np.inf


@settings(max_examples=80, deadline=None, derandomize=True)
@example(case=(5, 30, 18, 0.0, 1.3, 1.0))
@given(case=_known_case())
def test_known_reversal_duality(case):
    # reversing time and swapping mu1 / mu2 maps the walk's argmax t to n - t
    seed, n, tau, mu1, mu2, sigma = case
    y = _step_series(*case)
    fwd = mle_known(Dataset(y), _uni_origin(mu1, mu2, sigma))
    assume(_top_two_gap(fwd.walk_trace) > 1e-9 * max(1.0, float(np.abs(fwd.walk_trace).max())))
    rev = mle_known(Dataset(y[::-1].copy()), _uni_origin(mu2, mu1, sigma))
    assert rev.tau_hat == n - fwd.tau_hat


@settings(max_examples=80, deadline=None, derandomize=True)
@example(case=(11, 40, 25, 0.0, 2.0, 1.0), c=0.01)
@example(case=(11, 40, 25, 0.0, 2.0, 1.0), c=3.0)
@example(case=(11, 40, 25, 0.0, 2.0, 1.0), c=250.0)
@given(case=_known_case(), c=st.floats(1e-3, 1e3))
def test_known_scaling_invariance(case, c):
    # scaling data, means and sigma by c leaves every walk step unchanged
    seed, n, tau, mu1, mu2, sigma = case
    y = _step_series(*case)
    base = mle_known(Dataset(y), _uni_origin(mu1, mu2, sigma))
    assume(_top_two_gap(base.walk_trace) > 1e-9 * max(1.0, float(np.abs(base.walk_trace).max())))
    scaled = mle_known(Dataset(c * y), _uni_origin(c * mu1, c * mu2, c * sigma))
    assert scaled.tau_hat == base.tau_hat
    assert np.allclose(scaled.walk_trace, base.walk_trace, rtol=1e-12)


def test_known_multivariate_matches_first_coordinate_reduction():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((25, 2))
    y[12:, 0] += 2.0
    origin = MultivariateOrigin(np.zeros(2), np.array([2.0, 0.0]), np.eye(2))
    fit = mle_known(Dataset(y), origin)
    uni = mle_known(Dataset(y[:, 0].copy()), _uni_origin(0.0, 2.0, 1.0))
    assert fit.tau_hat == uni.tau_hat
    assert np.allclose(fit.walk_trace, uni.walk_trace, atol=1e-10)


def test_known_dimension_mismatch():
    with pytest.raises(DomainError):
        mle_known(Dataset(np.ones((6, 2))), _uni_origin())


# --- profile MLE -----------------------------------------------------------

def test_profile_recovers_clear_boundary():
    rng = np.random.default_rng(0)
    y = np.concatenate([np.zeros(15), np.full(15, 5.0)]) + 0.01 * rng.standard_normal(30)
    fit = mle_profile(Dataset(y))
    assert fit.tau_hat == 15
    assert fit.mode == "profile"
    assert fit.params_used.mu1 == pytest.approx(0.0, abs=0.02)
    assert fit.params_used.mu2 == pytest.approx(5.0, abs=0.02)


def test_profile_location_invariance():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((30, 2))
    y[20:] += [1.5, -0.5]
    base = mle_profile(Dataset(y))
    shifted = mle_profile(Dataset(y + np.array([1e5, -3e4])))
    assert shifted.tau_hat == base.tau_hat
    finite = np.isfinite(base.walk_trace)
    assert np.allclose(
        shifted.walk_trace[finite], base.walk_trace[finite], rtol=1e-9, atol=1e-8
    )


def test_profile_params_are_origin_records():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((30, 2))
    y[15:] += 2.0
    uni = mle_profile(Dataset(y[:, 0])).params_used
    assert type(uni) is UnivariateOrigin
    assert all(type(v) is float for v in (uni.mu1, uni.mu2, uni.sigma))
    multi = mle_profile(Dataset(y)).params_used
    assert type(multi) is MultivariateOrigin
    assert multi.mu1.shape == multi.mu2.shape == (2,) and multi.sigma.shape == (2, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    d=st.sampled_from([1, 2]),
    shift=st.floats(0.0, 3.0),
    scale=st.floats(0.1, 10.0),
    sign=st.sampled_from([-1.0, 1.0]),
    b=st.floats(-100.0, 100.0),
)
def test_profile_fit_affine_invariance(seed, n, d, shift, scale, sign, b):
    # y -> a y + b moves the fitted parameters and nothing else
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, d))
    y[n // 2 :] += shift
    a = sign * scale
    fit = mle_profile(Dataset(y))
    top = np.sort(fit.walk_trace[np.isfinite(fit.walk_trace)])[-2:]
    assume(top[1] - top[0] > 1e-6 * max(1.0, abs(top[1])))  # rounding cannot flip the argmax
    assume(2 <= fit.tau_hat <= n - 2)  # room for a Cobb window
    moved = mle_profile(Dataset(a * y + b))
    assert moved.tau_hat == fit.tau_hat
    p, q = fit.params_used, moved.params_used
    atol = 1e-9 * (abs(a) * np.abs(y).max() + abs(b))
    np.testing.assert_allclose(q.mu1, a * np.asarray(p.mu1) + b, rtol=1e-9, atol=atol)
    np.testing.assert_allclose(q.mu2, a * np.asarray(p.mu2) + b, rtol=1e-9, atol=atol)
    expected = abs(a) * p.sigma if d == 1 else a * a * p.sigma
    np.testing.assert_allclose(q.sigma, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())
    delta = default_cobb_delta(fit.tau_hat, n)
    before = cobb_conditional(Dataset(y), fit.tau_hat, delta, p).probs
    after = cobb_conditional(Dataset(a * y + b), fit.tau_hat, delta, q).probs
    np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-12)


def test_profile_multivariate_clusters_and_trimming():
    rng = np.random.default_rng(21)
    y = rng.standard_normal((24, 3)) * 0.1
    y[9:] += [4.0, 4.0, 4.0]
    fit = mle_profile(Dataset(y))
    assert fit.tau_hat == 9
    # splits leaving a segment shorter than d+1 are not scored
    assert np.all(np.isnan(fit.walk_trace[:3])) and np.all(np.isnan(fit.walk_trace[-3:]))


def test_profile_degenerate_data():
    with pytest.raises(DegenerateDataError):
        mle_profile(Dataset(np.ones(10)))


def test_profile_exact_two_level_data_prefers_exact_fit():
    y = np.concatenate([np.zeros(6), np.ones(6)])
    fit = mle_profile(Dataset(y))
    assert fit.tau_hat == 6
    assert np.isposinf(fit.walk_trace[5])


def test_profile_exact_fit_at_d2_scores_inf():
    # an exact linear relation within both segments: the pooled scatter at
    # split 15 is singular, and rounding leaves its slogdet sign at -1
    t = np.random.default_rng(1).standard_normal(30)
    y = np.column_stack([t, t + 3.0 * (np.arange(30) >= 15)])
    fit = mle_profile(Dataset(y))
    assert fit.tau_hat == 15
    assert np.isposinf(fit.walk_trace[14])
    assert np.isfinite(fit.walk_trace[[13, 15]]).all()


@pytest.mark.parametrize("d", [1, 3])
def test_stacked_kernels_give_each_series_its_own_bits(d):
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((5, 2, 30, d))
    stack[..., 12:, 0] += 1.0
    if d == 1:
        origin = UnivariateOrigin(0.0, 1.0, 1.0)
    else:
        origin = MultivariateOrigin(np.zeros(d), np.eye(d)[0], np.eye(d) + 0.3)
    walks = known_walk(stack, origin)
    traces = profile_criterion(stack)
    tau_hat = np.argmax(walks, axis=-1) + 1
    windows = cobb_window(walks, tau_hat, 3)
    for idx in np.ndindex(stack.shape[:2]):
        walk = known_walk(stack[idx], origin)
        assert walks[idx].tobytes() == walk.tobytes()
        assert traces[idx].tobytes() == profile_criterion(stack[idx]).tobytes()
        assert windows[idx].tobytes() == cobb_window(walk, int(tau_hat[idx]), 3).tobytes()


def _broadcast_split_scatters(series):
    """The (..., n, d)-layout broadcast formula split_scatters replaced, kept as its oracle."""
    n, d = series.shape[-2:]
    series = series - series.sum(axis=-2, keepdims=True) / n
    t = np.arange(1, n, dtype=float)[:, None, None]
    c1 = series.cumsum(axis=-2)
    c2 = (series[..., :, None] * series[..., None, :]).cumsum(axis=-3)
    tot1, tot2 = c1[..., -1, :], c2[..., -1, :, :]
    left1, left2 = c1[..., :-1, :], c2[..., :-1, :, :]
    right1 = tot1[..., None, :] - left1
    left = left2 - left1[..., :, None] * left1[..., None, :] / t
    right = (tot2[..., None, :, :] - left2) - right1[..., :, None] * right1[..., None, :] / (n - t)
    scatter_n = tot2 - tot1[..., :, None] * tot1[..., None, :] / n
    return left + right, scatter_n


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("offset", [0.0, 1e3, -1e3])
def test_split_scatters_matches_the_broadcast_formula_bit_for_bit(d, offset):
    rng = np.random.default_rng(d)
    for shape in [(2 * (d + 1), d), (4, 2 * (d + 1), d), (3, 2, 41, d), (250, d)]:
        series = rng.standard_normal(shape) + offset * rng.uniform(-1.0, 1.0, d)
        got = split_scatters(series)
        want = _broadcast_split_scatters(series)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# --- conditional law --------------------------------------------------------

def test_cobb_normalization_and_bounds():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(50)
    y[25:] += 1.0
    origin = _uni_origin(0.0, 1.0, 1.0)
    cond = cobb_conditional(Dataset(y), 25, 10, origin)
    assert cond.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert cond.delta == 10
    with pytest.raises(DomainError):
        cobb_conditional(Dataset(y), 5, 10, origin)
    with pytest.raises(DomainError):
        cobb_conditional(Dataset(y), 25, 0, origin)


def test_cobb_tied_likelihoods_are_uniform():
    # y at the midpoint of the means makes a(y) = 0, so the walk is flat
    # across the window and every split in it is equally likely
    y = np.full(12, 0.5)
    y[:3] = -2.0
    y[9:] = 3.0
    cond = cobb_conditional(Dataset(y), 6, 1, _uni_origin(0.0, 1.0, 1.0))
    assert np.allclose(cond.probs, 1.0 / 3.0, atol=1e-12)


def test_cobb_time_origin_irrelevant():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(30)
    y[15:] += 1.0
    a = cobb_conditional(Dataset(y, time_origin=1900), 15, 5, _uni_origin())
    b = cobb_conditional(Dataset(y, time_origin=2020), 15, 5, _uni_origin())
    assert np.array_equal(a.probs, b.probs)


def test_cobb_with_estimated_record():
    rng = np.random.default_rng(14)
    y = rng.standard_normal(40)
    y[20:] += 1.5
    fit = mle_profile(Dataset(y))
    cond = cobb_conditional(Dataset(y), fit.tau_hat, 8, fit.params_used)
    assert cond.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert cond.probs.argmax() == 8  # the window center carries the most mass


def test_default_cobb_delta():
    assert default_cobb_delta(50, 100) == 15
    assert default_cobb_delta(3, 100) == 2
    assert default_cobb_delta(98, 100) == 1
    assert default_cobb_delta(1, 100) == 1


# --- confidence intervals ----------------------------------------------------

def test_interval_paper_calendar_case():
    pmf = build_pmf(1.52)
    iv = confidence_interval(pmf, 0.956, tau_hat=14, n=40, time_origin=1951)
    assert (iv.lo, iv.hi) == (10, 18)
    assert iv.halfwidth == 4
    assert iv.calendar == (1960, 1968)
    assert not iv.clipped


@pytest.mark.parametrize("eta", [0.3554, 1.0, 1.52, 2.831])
@pytest.mark.parametrize("level", [0.5, 0.9, 0.956, 0.99])
def test_interval_achieved_is_a_left_to_right_fold(eta, level):
    # the fold that picks m: half[0], then + 2 half[k] one k at a time
    pmf = build_pmf(eta)
    for lvl in (level, pmf.prob(0) * 0.5):  # the second gives m = 0
        iv = confidence_interval(pmf, lvl, tau_hat=500, n=1000)
        acc = float(pmf.probs_half[0])
        for k in range(1, iv.halfwidth + 1):
            acc += 2.0 * float(pmf.probs_half[k])
        assert iv.achieved == acc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(eta=st.floats(0.2, 4.0), level=st.floats(0.01, 0.999))
@example(eta=0.2043478260869565, level=0.5094094351518783)
def test_interval_achieved_reaches_the_level(eta, level):
    iv = confidence_interval(build_pmf(eta, level=level), level, tau_hat=500, n=1000)
    assert iv.achieved >= level


def test_interval_level_below_atom_is_single_index():
    pmf = build_pmf(2.0)
    iv = confidence_interval(pmf, pmf.prob(0) * 0.5, tau_hat=30, n=60)
    assert (iv.lo, iv.hi) == (30, 30) and iv.halfwidth == 0


def test_interval_clipping_flagged():
    pmf = build_pmf(1.47)
    iv = confidence_interval(pmf, 0.948, tau_hat=2, n=40)
    assert iv.halfwidth == 4
    assert (iv.lo, iv.hi) == (1, 6)
    assert iv.clipped


def test_conditional_interval_contiguous_and_set():
    cond = ConditionalPmf(delta=2, probs=np.array([0.1, 0.5, 0.2, 0.15, 0.05]))
    iv = confidence_interval(cond, 0.7, tau_hat=20, n=100)
    assert iv.indices == (19, 20)
    assert iv.contiguous and (iv.lo, iv.hi) == (19, 20)
    assert iv.achieved == pytest.approx(0.7)
    gap = ConditionalPmf(delta=2, probs=np.array([0.4, 0.05, 0.4, 0.05, 0.1]))
    iv2 = confidence_interval(gap, 0.8, tau_hat=20, n=100)
    assert iv2.indices == (18, 20)
    assert not iv2.contiguous


def test_interval_level_domain():
    pmf = build_pmf(1.0)
    with pytest.raises(DomainError):
        confidence_interval(pmf, 1.0, 10, 20)


def test_interval_rejects_index_outside_the_sample():
    pmf = build_pmf(1.0)
    for tau_hat in (0, 40, 500):
        with pytest.raises(DomainError, match="tau_hat"):
            confidence_interval(pmf, 0.95, tau_hat, 40)


# --- serialization -----------------------------------------------------------

def test_mle_json_round_trip_fields():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((20, 2))
    y[10:] += 1.0
    fit = mle_profile(Dataset(y))
    obj = json.loads(json.dumps(mle_result_to_json(fit)))
    assert obj["tau_hat"] == fit.tau_hat
    assert obj["mode"] == "profile"
    assert len(obj["criterion"]) == 19
    assert obj["criterion"][0] is None  # trimmed split serializes as null
    assert "mu1" in obj["params"]


@pytest.mark.parametrize("d", [1, 2])
def test_known_mode_params_are_the_origin_record(d):
    y = np.zeros((10, d))
    y[5:, 0] = 1.0
    if d == 1:
        origin = _uni_origin(0.0, 1.0, 1.0)
    else:
        origin = MultivariateOrigin(np.zeros(d), np.eye(d)[0], np.eye(d))
    obj = json.loads(json.dumps(mle_result_to_json(mle_known(Dataset(y), origin))))
    assert obj["mode"] == "known" and obj["tau_hat"] == 5
    assert list(obj["params"]) == ["mu1", "mu2", "sigma"]


# nan, +-inf, signed zeros, subnormals and the largest finite value
_EDGE_FLOATS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
]


@settings(max_examples=200, deadline=None, derandomize=True)
@example(a=np.array(_EDGE_FLOATS))
@example(a=np.array([]))
@given(
    a=arrays(
        np.float64,
        st.integers(0, 40),
        elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True)),
    )
)
def test_finite_list_matches_per_element_nulls(a):
    out = finite_list(a)
    expected = [None if not np.isfinite(v) else float(v) for v in a]
    # type and repr: list == would let -0.0 stand for 0.0, np.float64 for float
    assert [(type(v), repr(v)) for v in out] == [(type(v), repr(v)) for v in expected]
    json.dumps(out, allow_nan=False)
