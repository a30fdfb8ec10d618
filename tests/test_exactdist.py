"""Ladder tables, the offset distribution, variance, and the TV bound."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import changepoint.exactdist as exactdist
from changepoint.errors import (
    ConfigurationError,
    DomainError,
    PrecisionError,
    UnreachableLevelError,
)
from changepoint.exactdist import (
    Pmf,
    build_ladder_tables,
    build_pmf,
    folded_mass,
    full_support_halfwidth,
    pmf_to_json,
    read_pmf_csv,
    suggested_kmax,
    support_halfwidth_for,
    symmetric_interval,
    tv_bound,
    variance_for,
    write_pmf_csv,
)
from changepoint.estimators import confidence_interval
from changepoint.numerics import std_normal_survival

ETAS = [0.5, 1.0, 1.5, 2.0, 2.5]


@pytest.fixture(scope="module")
def pmfs():
    return {eta: build_pmf(eta, tol=1e-10) for eta in ETAS}


@pytest.fixture(scope="module")
def tables():
    return {eta: build_ladder_tables(eta, suggested_kmax(eta)) for eta in ETAS}


# --- ladder tables --------------------------------------------------------

@pytest.mark.parametrize("eta", ETAS)
def test_recursion_base_cases(eta, tables):
    q, qt = tables[eta]
    assert q[0] == 1.0 and qt[0] == 1.0
    assert q[1] == pytest.approx(std_normal_survival(eta / 2.0), rel=1e-14)
    expected_qt1 = math.exp(eta * eta) * std_normal_survival(1.5 * eta)
    assert qt[1] == pytest.approx(expected_qt1, rel=1e-12)


@pytest.mark.parametrize("eta", ETAS)
def test_table_invariants(eta, tables):
    q, qt = tables[eta]
    b, bt = (s[1:] for s in exactdist._b_series(eta, suggested_kmax(eta)))
    no_ladder, truncation_error = exactdist._no_ladder_mass(eta, 1e-12)
    assert np.all(np.diff(q) <= 0)
    assert np.all(qt[1:] <= q[1:])
    assert np.all(qt > 0) and np.all(q <= 1.0)
    assert np.all(np.diff(b) < 0)
    assert np.all(bt <= b)
    assert 0.0 < no_ladder < 1.0
    assert 0.0 <= truncation_error < 1e-12


def test_eta_guard_and_tol_range():
    with pytest.raises(ConfigurationError):
        build_ladder_tables(0.01, 10)
    with pytest.raises(ConfigurationError):
        build_pmf(0.01)
    with pytest.raises(ConfigurationError):
        build_pmf(1.0, tol=1e-3)


@pytest.mark.parametrize("tol", [1e-323, 1e-310])
def test_underflowing_tol_is_refused(tol):
    # tol (1 - r) underflows, so no finite support certifies the tail
    with pytest.raises(PrecisionError):
        build_pmf(1.0, tol=tol)


# --- pmf structure --------------------------------------------------------

@pytest.mark.parametrize("eta", ETAS)
def test_symmetry_bit_exact(eta, pmfs):
    pmf = pmfs[eta]
    for k in (1, 2, 5, pmf.support_halfwidth):
        assert pmf.prob(k) == pmf.prob(-k)


@pytest.mark.parametrize("eta", ETAS)
def test_atom_is_no_ladder_squared_bit_exact(eta, pmfs):
    pmf = pmfs[eta]
    assert pmf.prob(0) == pmf.no_ladder * pmf.no_ladder


@pytest.mark.parametrize("eta", ETAS)
def test_mass_reaches_one_minus_tol(eta, pmfs):
    assert pmfs[eta].total_mass() >= 1.0 - 1e-8
    assert pmfs[eta].tail_mass_bound < 1e-10


@pytest.mark.parametrize("eta", ETAS)
def test_total_mass_identity(eta, pmfs, tables):
    # the series total is exactly 1 + g^2 - 2 g (1-g) sum_{k>=1} q~_k;
    # the identity pins the (slightly super-unity) closed-form total
    pmf, (_, qt) = pmfs[eta], tables[eta]
    g = 1.0 - exactdist._no_ladder_mass(eta, 1e-12)[0]
    expected = 1.0 + g * g - 2.0 * g * (1.0 - g) * float(qt[1:].sum())
    assert pmf.total_mass() == pytest.approx(expected, abs=5e-11)
    assert pmf.total_mass() >= 1.0


def test_mass_concentrates_for_large_change():
    assert build_pmf(10.0).prob(0) > 0.999


_SUPPORT_TOLS = [1e-6, 1e-8, 1e-10, 1e-12, 1e-14]


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(0.3, 60.0), tol=st.sampled_from(_SUPPORT_TOLS))
@example(eta=0.1122, tol=1e-10)
@example(eta=0.3, tol=1e-10)
def test_support_halfwidth_is_the_analytic_index(eta, tol):
    K = support_halfwidth_for(eta, tol)
    assert build_pmf(eta, tol).support_halfwidth == K
    assert K >= 8


def test_support_halfwidth_at_fixed_etas():
    assert support_halfwidth_for(0.1122) == 19_176
    assert support_halfwidth_for(0.3) == 2_508


def test_large_eta_tail_masses_are_exact_zeros():
    # K is 8 at eta = 40; the masses underflow to exact 0.0 past k = 3, and
    # the first four keep the bits they had when the support was trimmed to 3
    pmf = build_pmf(40.0)
    assert pmf.support_halfwidth == 8
    head = [float.fromhex(h) for h in (
        "0x1.0000000000000p+0", "0x1.c0bd0f18806a3p-295",
        "0x1.c1997d4fcd1dfp-585", "0x1.53e2ca62a1ef7p-874",
    )]
    assert pmf.probs_half[:4].tobytes() == np.array(head).tobytes()
    assert pmf.probs_half[4:].tobytes() == np.zeros(5).tobytes()
    assert pmf.total_mass() == 1.0


def test_full_support_past_the_cap_is_refused_before_any_build(monkeypatch):
    def no_build(*args):
        raise AssertionError("the ladder recursion ran")

    monkeypatch.setattr(exactdist, "_ladder_masses", no_build)
    assert support_halfwidth_for(0.0502) > exactdist._KMAX_CAP
    message = "support for eta=0.0502 at tol=1e-10 exceeds the 100000 cap"
    for call in (full_support_halfwidth, build_pmf):
        with pytest.raises(PrecisionError) as exc:
            call(0.0502)
        assert str(exc.value) == message


def test_confidence_level_partial_sums():
    for eta, target in [(1.47, 0.948), (1.52, 0.956), (1.60, 0.965)]:
        pmf = build_pmf(eta)
        s4 = pmf.prob(0) + 2.0 * sum(pmf.prob(k) for k in range(1, 5))
        assert s4 == pytest.approx(target, abs=2e-3)


# --- queries --------------------------------------------------------------

def test_cdf_paper_interval_mass():
    # the creek's +-4 interval at eta 1.52 holds 0.956 of the paper's law
    assert folded_mass(build_pmf(1.52), 4) == pytest.approx(0.956, abs=2e-3)


def test_symmetric_interval_cases():
    pmf = build_pmf(1.47)
    assert symmetric_interval(pmf, pmf.prob(0) / 2.0) == 0
    assert symmetric_interval(pmf, 0.948) == 4
    levels = [0.3, 0.6, 0.9, 0.95, 0.99]
    widths = [symmetric_interval(pmf, lv) for lv in levels]
    assert widths == sorted(widths)
    with pytest.raises(DomainError):
        symmetric_interval(pmf, 1.2)


def test_pmf_halfwidth_is_read_off_the_masses():
    # K has one source, the stored masses
    assert [f.name for f in dataclasses.fields(Pmf)] == [
        "eta", "probs_half", "tail_mass_bound", "no_ladder"
    ]
    for pmf in (build_pmf(1.0), build_pmf(1.0, level=0.9)):
        assert pmf.support_halfwidth == len(pmf.probs_half) - 1


def test_symmetric_interval_unreachable_level():
    half = np.array([0.4, 0.1])
    pmf = Pmf(eta=1.0, probs_half=half, tail_mass_bound=0.4, no_ladder=math.sqrt(0.4))
    with pytest.raises(UnreachableLevelError):
        symmetric_interval(pmf, 0.9)


# --- variance -------------------------------------------------------------

@pytest.mark.parametrize("eta", ETAS)
def test_variance_matches_direct_second_moment(eta):
    pmf = build_pmf(eta, tol=1e-12)
    k = np.arange(1, pmf.support_halfwidth + 1, dtype=float)
    direct = 2.0 * float(np.sum(k * k * pmf.probs_half[1:]))
    closed = variance_for(eta)
    assert closed == pytest.approx(direct, rel=1e-6)
    assert closed >= 0.0


def test_variance_for_long_series_eta_below_table_cap():
    # eta in [0.0504, 0.0681): build_pmf fits under the tables' cap, while
    # the O(K) variance series is longer than that cap
    eta = 0.06
    assert suggested_kmax(eta) > exactdist._KMAX_CAP
    pmf = build_pmf(eta)
    k = np.arange(1, pmf.support_halfwidth + 1, dtype=float)
    direct = 2.0 * float(np.sum(k * k * pmf.probs_half[1:]))
    assert variance_for(eta) == pytest.approx(direct, rel=1e-9)


def test_variance_decreasing_in_eta():
    vals = [variance_for(eta) for eta in (1.0, 1.5, 2.0, 2.5)]
    assert vals == sorted(vals, reverse=True)
    assert variance_for(10.0) < 1e-4


def test_variance_for_builds_no_ladder_tables(monkeypatch):
    expected = variance_for(0.7)

    def refuse(*args, **kwargs):
        raise AssertionError("variance_for must not build ladder tables")

    monkeypatch.setattr(exactdist, "build_ladder_tables", refuse)
    assert variance_for(0.7) == expected


@pytest.mark.parametrize("eta", [0.7, 2.0])
def test_recursion_matches_strided_reference_bit_exact(eta):
    kmax = suggested_kmax(eta)
    got_q, got_qt = build_ladder_tables(eta, kmax)
    b, bt = exactdist._b_series(eta, kmax)
    q = np.empty(kmax + 1)
    qt = np.empty(kmax + 1)
    q[0] = qt[0] = 1.0
    for m in range(1, kmax + 1):
        q[m] = np.dot(b[m:0:-1], q[:m]) / m
        qt[m] = np.dot(bt[m:0:-1], qt[:m]) / m
    assert np.array_equal(got_q, q)
    assert np.array_equal(got_qt, qt)


def _per_index_reference(eta, kmax):
    # q / q~ by the per-index loop of the strided reference above
    b, bt = exactdist._b_series(eta, kmax)
    ref = np.empty((2, kmax + 1))
    ref[:, 0] = 1.0
    for m in range(1, kmax + 1):
        ref[0, m] = np.dot(b[m:0:-1], ref[0, :m]) / m
        ref[1, m] = np.dot(bt[m:0:-1], ref[1, :m]) / m
    return ref


@pytest.mark.parametrize("eta", [0.2, 0.1122])
def test_tiled_recursion_keeps_the_per_index_bits_below_the_tiles(eta):
    start = exactdist._TILE_START
    kmax = support_halfwidth_for(eta)
    assert kmax > start
    for got, want in zip(build_ladder_tables(eta, kmax), _per_index_reference(eta, kmax)):
        assert got[:start].tobytes() == want[:start].tobytes()
        assert np.all(want[start:] > 0.0)
        assert np.max(np.abs(got[start:] - want[start:]) / want[start:]) < 1e-13


def test_tiled_masses_do_not_depend_on_the_blas_thread_count():
    # K = 19,176 at eta 0.1122 and 50,804 at 0.07: history products past one slice
    src = str(Path(exactdist.__file__).resolve().parents[1])
    code = (
        f"import hashlib, sys; sys.path.insert(0, {src!r})\n"
        "from changepoint.exactdist import build_pmf\n"
        "for eta in (0.1122, 0.07):\n"
        "    print(hashlib.sha256(build_pmf(eta).probs_half.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


def test_tables_off_the_tile_grid_are_a_bit_exact_prefix():
    # kmax = 5000 ends inside the tile at 4992: its rows keep the full law's bits
    eta = 0.1122
    short_q, short_qt = build_ladder_tables(eta, 5000)
    full_q, full_qt = build_ladder_tables(eta, support_halfwidth_for(eta))
    assert short_q.tobytes() == full_q[:5001].tobytes()
    assert short_qt.tobytes() == full_qt[:5001].tobytes()
    g0 = exactdist._no_ladder_mass(eta, 1e-12)[0]
    half = np.empty(5001)
    half[0] = g0 * g0
    half[1:] = g0 * (short_q[1:] - (1.0 - g0) * short_qt[1:])
    assert build_pmf(eta).probs_half[:5001].tobytes() == half.tobytes()


# --- no-ladder cut-off ----------------------------------------------------

def _linear_cutoff(eta, tol):
    # the reference: scan J upward until the tail bound drops below tol
    r = np.exp(-eta * eta / 8.0)
    J = 1
    while (0.5 / (J + 1)) * r ** (J + 1) / (1.0 - r) >= tol:
        J += 1
    return J, float((0.5 / (J + 1)) * r ** (J + 1) / (1.0 - r))


_CUTOFF_ETAS = [float(x) for x in np.geomspace(0.05, 40.0, 23)] + [0.1122, 0.1413, 1.0]


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-40])
@pytest.mark.parametrize("eta", _CUTOFF_ETAS)
def test_no_ladder_cutoff_matches_linear_scan(eta, tol):
    J, bound = _linear_cutoff(eta, tol)
    assert exactdist._no_ladder_cutoff(np.exp(-eta * eta / 8.0), tol) == J
    j = np.arange(1, J + 1, dtype=float)
    series = float(np.sum(std_normal_survival(eta * np.sqrt(j) / 2.0) / j))
    assert exactdist._no_ladder_mass(eta, tol) == (float(np.exp(-series)), bound)


@pytest.mark.parametrize("eta", [1.0, 2.0, 5.0, 40.0])
def test_no_ladder_cutoff_at_tiny_tol(eta):
    assert exactdist._no_ladder_cutoff(np.exp(-eta * eta / 8.0), 1e-300) == (
        _linear_cutoff(eta, 1e-300)[0]
    )


# --- level-sized prefix ---------------------------------------------------

@pytest.mark.parametrize("eta", [0.05, 0.1122, 1.0, 3.7])
def test_b_series_prefix_bit_exact(eta):
    a = 5000
    long_b, long_bt = exactdist._b_series(eta, a)
    for n in (1, 2, 7, 64, 1230, a - 1):
        b, bt = exactdist._b_series(eta, n)
        assert long_b[: n + 1].tobytes() == b.tobytes()
        assert long_bt[: n + 1].tobytes() == bt.tobytes()


@pytest.mark.parametrize("eta, m, most", [(0.05, 6884, 8000), (0.1122, 1230, 1400)])
def test_level_stopped_law_builds_b_only_to_its_reach(monkeypatch, eta, m, most):
    # the full series would be min(K, cap) = 100,000 and 19,176 terms long
    built = []
    real = exactdist._b_terms

    def counting(eta, n):
        built.extend(n.tolist())
        return real(eta, n)

    monkeypatch.setattr(exactdist, "_b_terms", counting)
    assert build_pmf(eta, level=0.99).support_halfwidth == m
    assert built == list(range(1, len(built) + 1))  # each term once, in order
    assert m <= len(built) <= most


def test_tile_history_operator_is_sized_to_the_reach():
    ladder = exactdist._Ladder(0.05, 100_000)
    ladder.fill(1, 7001)
    # the last tile starts at 6912, so its history is 6912 / 32 rows of H, out of 3124
    assert ladder._h_rows == 6912 // exactdist._CHUNK
    assert ladder.reach == 6912 + exactdist._TILE - 1


def _check_prefix(eta, level, full=None):
    full = build_pmf(eta) if full is None else full
    pre = build_pmf(eta, level=level)
    m = pre.support_halfwidth
    assert m == symmetric_interval(full, level)
    assert pre.probs_half.tobytes() == full.probs_half[: m + 1].tobytes()
    r = np.exp(-eta * eta / 8.0)
    assert pre.tail_mass_bound == float(pre.no_ladder * r ** (m + 1) / (1.0 - r))
    assert (pre.eta, pre.no_ladder) == (full.eta, full.no_ladder)
    return pre, full


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(0.1, 4.0),
    level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.integers(2, 100_000),
    where=st.floats(0.0, 1.0),
)
@example(eta=0.1122, level=0.99, n=6000, where=0.4)
@example(eta=4.0, level=1e-300, n=2, where=0.0)
@example(eta=0.07, level=0.99, n=20_000, where=0.5)  # m = 3376, past the first tile
def test_level_prefix_is_a_bit_exact_prefix(eta, level, n, where):
    pre, full = _check_prefix(eta, level)
    tau = 1 + int(where * (n - 2))
    assert confidence_interval(pre, level, tau, n, 1900) == confidence_interval(
        full, level, tau, n, 1900
    )


@pytest.mark.parametrize("eta", [0.3, 1.0, 2.831])
def test_level_prefix_stops_where_the_fold_first_reaches_the_level(eta):
    # a level equal to the left-to-right partial sum at j is first reached
    # at j: a fold in another order, or a cut one index off, misses it
    full = build_pmf(eta)
    acc = float(full.probs_half[0])
    for j in range(0, min(full.support_halfwidth, 150)):
        if j:
            acc += 2.0 * float(full.probs_half[j])
        if acc >= 1.0:
            break
        pre, _ = _check_prefix(eta, acc, full)
        assert pre.support_halfwidth == j


@pytest.mark.parametrize("eta", [0.1122, 1.0, 4.0])
def test_level_reached_at_the_atom(eta):
    full = build_pmf(eta)
    for level in (full.prob(0), full.prob(0) * 0.5):
        pre, _ = _check_prefix(eta, level, full)
        assert pre.support_halfwidth == 0
        iv = confidence_interval(pre, level, 50, 100)
        assert iv == confidence_interval(full, level, 50, 100)
        assert iv.halfwidth == 0


def test_unreachable_level_gives_the_full_build_and_its_error(monkeypatch):
    # halving the no-ladder mass leaves a total below 0.99
    no_ladder = exactdist._no_ladder_mass
    monkeypatch.setattr(
        exactdist, "_no_ladder_mass", lambda eta, tol: (0.5 * no_ladder(eta, tol)[0], 0.0)
    )
    full = build_pmf(1.0)
    pre = build_pmf(1.0, level=0.99)
    assert pre.support_halfwidth == full.support_halfwidth
    assert pre.probs_half.tobytes() == full.probs_half.tobytes()
    assert pre.tail_mass_bound == full.tail_mass_bound
    errors = []
    for pmf in (full, pre):
        with pytest.raises(UnreachableLevelError) as exc:
            confidence_interval(pmf, 0.99, 50, 100)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_level_prefix_is_bounded_by_the_cap(monkeypatch):
    # K = 19176 at eta = 0.1122: with the cap at 1300 the full build is
    # refused, the 0.99 prefix (m = 1230) fits, the 0.999 one (1469) does not
    eta = 0.1122
    full = build_pmf(eta)
    assert symmetric_interval(full, 0.999) == 1469
    monkeypatch.setattr(exactdist, "_KMAX_CAP", 1300)
    pre, _ = _check_prefix(eta, 0.99, full)
    assert pre.support_halfwidth == 1230
    message = "support for eta=0.1122 at tol=1e-10 exceeds the 1300 cap"
    for kwargs in ({}, {"level": 0.999}):
        with pytest.raises(PrecisionError) as exc:
            build_pmf(eta, **kwargs)
        assert str(exc.value) == message


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_level_outside_the_unit_interval_is_refused(level):
    with pytest.raises(DomainError) as exc:
        build_pmf(1.0, level=level)
    assert str(exc.value) == f"level must be in (0, 1), got {level!r}"


@pytest.mark.parametrize("level", [None, 0.95])
def test_build_pmf_builds_no_ladder_tables(monkeypatch, level):
    expected = build_pmf(0.7, level=level)

    def refuse(*args, **kwargs):
        raise AssertionError("build_pmf must not build ladder tables")

    monkeypatch.setattr(exactdist, "build_ladder_tables", refuse)
    assert build_pmf(0.7, level=level).probs_half.tobytes() == expected.probs_half.tobytes()


@pytest.mark.parametrize("eta", [0.1122, 0.7, 2.831])
def test_full_masses_equal_the_ladder_tables_formula_bit_exact(eta):
    pmf = build_pmf(eta)
    r = np.exp(-eta * eta / 8.0)
    kmax = max(8, int(np.ceil(8.0 / (eta * eta) * np.log(2.0 / (1e-10 * (1.0 - r))))))
    q, qt = build_ladder_tables(eta, kmax)
    g0 = exactdist._no_ladder_mass(eta, 1e-12)[0]
    half = np.empty(kmax + 1)
    half[0] = g0 * g0
    half[1:] = g0 * (q[1:] - (1.0 - g0) * qt[1:])
    assert pmf.no_ladder == g0
    assert pmf.probs_half.tobytes() == half[: pmf.support_halfwidth + 1].tobytes()


# --- tv bound -------------------------------------------------------------

def test_tv_bound_values_and_symmetry():
    assert tv_bound(2.0, 100, 50) == pytest.approx(4.0 * math.exp(-25.0), rel=1e-14)
    for eta, n in [(1.0, 60), (2.0, 100)]:
        assert tv_bound(eta, n, n // 2) == pytest.approx(
            4.0 * math.exp(-eta * eta * n / 16.0), rel=1e-12
        )


def test_tv_bound_monotone_and_capped():
    vals = [tv_bound(1.5, 200, tau) for tau in (10, 30, 60, 100)]
    assert vals == sorted(vals, reverse=True)
    assert tv_bound(0.1, 10, 5) == 1.0
    with pytest.raises(DomainError):
        tv_bound(1.0, 50, 0)
    with pytest.raises(DomainError):
        tv_bound(1.0, 50, 50)


# --- serialization --------------------------------------------------------

def test_csv_round_trip_bit_exact(tmp_path):
    pmf = build_pmf(1.6)
    path = tmp_path / "pmf.csv"
    write_pmf_csv(pmf, path)
    back = read_pmf_csv(path)
    assert back == pmf.as_mapping()


def test_pmf_mapping_and_read_back_run_k_ascending(tmp_path):
    pmf = build_pmf(1.6)
    path = tmp_path / "pmf.csv"
    write_pmf_csv(pmf, path)
    K = pmf.support_halfwidth
    assert list(read_pmf_csv(path)) == list(pmf.as_mapping()) == list(range(-K, K + 1))


def test_read_pmf_csv_refuses_a_bad_row_naming_the_file(tmp_path):
    path = tmp_path / "pmf.csv"
    for body in ("-1,0.25\n0,0.5\n1,oops\n", "0,0.5,1\n", "0.5\n"):
        path.write_text("k,prob\n" + body)
        with pytest.raises(DomainError, match=r"pmf\.csv: "):
            read_pmf_csv(path)
    path.write_text("k,prob\n\n")
    assert read_pmf_csv(path) == {}


def _fmt17(x) -> str:
    return format(float(x), ".17g")


@pytest.mark.parametrize("eta", [0.5, 1.6, 2.831])
def test_writers_match_per_offset_reference(eta, tmp_path):
    pmf = build_pmf(eta)
    K = pmf.support_halfwidth
    masses = [_fmt17(pmf.probs_half[abs(k)]) for k in range(-K, K + 1)]
    path = tmp_path / "pmf.csv"
    write_pmf_csv(pmf, path)
    rows = "".join(f"{k},{p}\n" for k, p in zip(range(-K, K + 1), masses))
    assert path.read_bytes() == ("k,prob\n" + rows).encode()
    assert pmf_to_json(pmf) == (
        f'{{"eta": {_fmt17(eta)}, "K": {K}, "tail_mass_bound": {_fmt17(pmf.tail_mass_bound)}, '
        f'"probs": [{", ".join(masses)}]}}'
    )


def test_json_shape(tmp_path):
    pmf = build_pmf(2.5)
    obj = json.loads(pmf_to_json(pmf))
    K = pmf.support_halfwidth
    assert obj["K"] == K
    assert obj["eta"] == 2.5
    assert len(obj["probs"]) == 2 * K + 1
    assert obj["probs"][K] == pmf.prob(0)
    assert obj["probs"][0] == obj["probs"][-1]
