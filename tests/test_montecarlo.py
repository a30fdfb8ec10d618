"""Simulation engine: determinism, noise families, oracles, study runs."""

import hashlib
import json
import math

import numpy as np
import pytest

import changepoint.exactdist as exactdist
import changepoint.montecarlo as mc
from changepoint.errors import ChangePointError, ConfigurationError, DegenerateDataError, DomainError
from changepoint.estimators import cobb_window, default_cobb_delta, known_walk, profile_criterion
from changepoint.exactdist import build_ladder_tables, build_pmf
from changepoint.montecarlo import (
    SimConfig,
    default_horizon,
    generate_sequence,
    ladder_oracle,
    oracle_xi_infinity,
    report_to_csv,
    report_to_json,
    run_study,
    tv_distance,
)
from changepoint.numerics import std_normal_survival


def _cfg(**kw):
    base = dict(n=60, tau=30, eta=1.5, replications=100, master_seed=42)
    base.update(kw)
    return SimConfig(**base)


# --- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError, match=r"^tau must be in \[1, n-1\], got tau=60, n=\d+$"):
        _cfg(tau=60)
    with pytest.raises(DomainError, match=r"^eta must be a positive finite real, got -1\.0$"):
        _cfg(eta=-1.0)
    with pytest.raises(ConfigurationError):
        _cfg(family="student_t", nu=2.0)
    with pytest.raises(ConfigurationError):
        _cfg(family="cauchy")
    with pytest.raises(ConfigurationError):
        _cfg(modes=("known", "bogus"))
    with pytest.raises(ConfigurationError):
        _cfg(replications=0)
    with pytest.raises(ConfigurationError):
        _cfg(master_seed=-1)


def test_config_refuses_profile_without_admissible_split():
    # profile splits are [d+1, n-d-1] at d > 1: empty below n = 2d + 2
    with pytest.raises(ConfigurationError, match="n >= 8"):
        _cfg(n=7, tau=3, d=3, modes=("profile",))
    _cfg(n=8, tau=4, d=3, modes=("profile",))
    _cfg(n=7, tau=3, d=3, modes=("known", "cobb"))
    _cfg(n=4, tau=2, d=1, modes=("profile",))


def test_config_refuses_an_eta_that_overflows_the_walks():
    # (n eta)^2 must be finite: 40 * 5e153 squared is not, 40 * 3e152 squared is
    for n, eta in ((40, 5e153), (40, 1e300), (10**6, 2e151)):
        with pytest.raises(ConfigurationError, match=r"\(n \* eta\)\^2 must be finite"):
            _cfg(n=n, tau=n // 2, eta=eta)
    _cfg(n=40, tau=20, eta=3e152, modes=("known", "cobb", "profile"))


def test_config_refuses_a_profile_eta_the_split_kernel_cannot_resolve():
    # eps eta^2 / 4 is 0.56 at 1e8 and 5.6e7 at 1e12, against 5.6e-5 at 1e6
    for eta in (1e8, 1e12):
        with pytest.raises(ConfigurationError, match=r"eps\*eta\^2/4 = .* eta <= 1\.342e\+06"):
            _cfg(n=40, tau=20, eta=eta, modes=("known", "profile"))
        _cfg(n=40, tau=20, eta=eta, modes=("known", "cobb"))
    _cfg(n=40, tau=20, eta=1e6, modes=("profile",))


# --- generation --------------------------------------------------------------

def test_generation_bit_identical_per_rep():
    cfg = _cfg()
    a = generate_sequence(cfg, 123)
    b = generate_sequence(cfg, 123)
    c = generate_sequence(cfg, 124)
    assert np.array_equal(a.series, b.series)
    assert not np.array_equal(a.series, c.series)


@pytest.mark.parametrize("family, nu", [("gaussian", None), ("student_t", 5.0), ("chi_square", 3.0)])
def test_substream_is_the_jumped_philox_stream(family, nu):
    # replication i draws from Philox(key=master_seed).jumped(i), the
    # stream the reports name "philox-jumped"
    cfg = _cfg(n=50, tau=20, d=2, family=family, nu=nu, master_seed=2**64 - 59)
    shape = (cfg.n, cfg.d)
    for i in (0, 1, 9_999, 10_000, 2**40, 2**64):
        rng = np.random.Generator(np.random.Philox(key=cfg.master_seed).jumped(i))
        if family == "gaussian":
            want = rng.standard_normal(shape)
        elif family == "student_t":
            want = rng.standard_t(nu, shape) * np.sqrt((nu - 2.0) / nu)
        else:
            want = (rng.chisquare(nu, shape) - nu) / np.sqrt(2.0 * nu)
        want[cfg.tau :, 0] += cfg.eta
        assert np.array_equal(generate_sequence(cfg, i).series, want), i


def test_gaussian_moments():
    # 1e6 pre-change draws pooled across replications
    cfg = _cfg(n=10_000, tau=9_999, eta=1.0, replications=100, master_seed=7)
    draws = np.concatenate(
        [generate_sequence(cfg, i).series[:9_999, 0] for i in range(100)]
    )
    assert abs(draws.mean()) < 4e-3
    assert abs(draws.var() - 1.0) < 1e-2


def test_mean_shift_on_first_coordinate_only():
    cfg = _cfg(n=2000, tau=1000, eta=2.0, d=3, replications=1, master_seed=1)
    y = generate_sequence(cfg, 0).series
    assert y[1000:, 0].mean() == pytest.approx(2.0, abs=0.15)
    assert y[1000:, 1].mean() == pytest.approx(0.0, abs=0.15)
    assert y[:1000, 0].mean() == pytest.approx(0.0, abs=0.15)


def test_chi_square_skewness():
    cfg = _cfg(n=10_000, tau=9_999, eta=1.0, family="chi_square", nu=1.0,
               replications=100, master_seed=11)
    draws = np.concatenate(
        [generate_sequence(cfg, i).series[:9_999, 0] for i in range(100)]
    )
    skew = np.mean(draws**3) / np.mean(draws**2) ** 1.5
    assert skew == pytest.approx(np.sqrt(8.0), rel=0.05)
    assert abs(draws.var() - 1.0) < 1e-2


def test_student_t_standardization():
    cfg = _cfg(n=10_000, tau=9_999, eta=1.0, family="student_t", nu=5.0,
               replications=50, master_seed=13)
    draws = np.concatenate(
        [generate_sequence(cfg, i).series[:9_999, 0] for i in range(50)]
    )
    assert abs(draws.mean()) < 6e-3
    assert abs(draws.var() - 1.0) < 3e-2


# --- tv distance --------------------------------------------------------------

def test_tv_distance_basics():
    p = {0: 0.5, 1: 0.5}
    assert tv_distance(p, p) == 0.0
    assert tv_distance({0: 1.0}, {5: 1.0}) == 1.0
    assert tv_distance(p, {0: 1.0}) == 0.5


def test_tv_distance_is_a_plain_left_fold():
    # ten terms of 1e-16 after a 1.0 vanish one by one in plain float
    # additions; a compensated sum (Python >= 3.12 sum()) would keep them
    p = {0: 1.0}
    q = {k: 1e-16 for k in range(1, 11)}
    terms = [abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q)]
    fold = 0.0
    for x in terms:
        fold += x
    assert fold != math.fsum(terms)
    assert tv_distance(p, q) == 0.5 * fold


# --- study runs ----------------------------------------------------------------

def test_single_replication_degenerate_tv(monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    pmf = build_pmf(2.0)
    rep = run_study(_cfg(eta=2.0, replications=1, master_seed=3, modes=("known",)))
    (observed,) = rep.empirical["known"]
    theo = pmf.as_mapping()
    expected = 0.5 * (1.0 - theo.get(observed, 0.0)) + 0.5 * (
        sum(theo.values()) - theo.get(observed, 0.0)
    )
    assert rep.tv["known"] == pytest.approx(expected, abs=1e-12)


def test_study_reproducible_and_mode_shapes(monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    cfg = _cfg(eta=2.0, replications=2000, master_seed=31,
               modes=("known", "profile", "cobb"), cobb_delta=8)
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    text = json.dumps(report_to_json(r1), sort_keys=True)
    assert text == json.dumps(report_to_json(r2), sort_keys=True)
    for m in cfg.modes:
        total = sum(r1.empirical[m].values())
        assert total == pytest.approx(cfg.replications, rel=1e-12)
        assert all(-cfg.tau + 1 <= k <= cfg.n - cfg.tau - 1 for k in r1.empirical[m])
    assert r1.failures == {"known": 0, "profile": 0, "cobb": 0}
    assert 0.0 < r1.cobb_mass_at_center < 1.0


def test_study_parallel_matches_serial(monkeypatch):
    cfg = _cfg(eta=1.5, replications=24_000, master_seed=5, modes=("known", "cobb"))
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    serial = run_study(cfg)
    monkeypatch.setenv("CHANGEPOINT_THREADS", "2")
    parallel = run_study(cfg)
    assert serial.empirical["known"] == parallel.empirical["known"]
    assert serial.empirical["cobb"] == parallel.empirical["cobb"]
    assert json.dumps(report_to_json(serial), sort_keys=True) == json.dumps(
        report_to_json(parallel), sort_keys=True
    )


def test_study_builds_its_law_once_through_the_module(monkeypatch):
    # looked up on the exactdist module, where the perfbench tracer wraps it
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    calls = []
    real = exactdist.build_pmf

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(exactdist, "build_pmf", counting)
    rep = run_study(_cfg(eta=2.0, replications=10))
    assert calls == [((2.0,), {})]
    freq = {k: v / 10 for k, v in rep.empirical["known"].items()}
    assert rep.tv["known"] == tv_distance(freq, real(2.0).as_mapping())


def test_study_refuses_a_small_eta_before_any_replication(monkeypatch):
    def no_run(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(mc, "_accumulate_range", no_run)
    with pytest.raises(ConfigurationError, match=r"^eta must be >= 0\.05 \(got 0\.04\)"):
        run_study(_cfg(eta=0.04))


def test_study_failure_budget(monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")

    def always_fails(series):
        raise DegenerateDataError("forced failure")

    monkeypatch.setattr(mc, "profile_criterion", always_fails)
    with pytest.raises(DegenerateDataError, match="> 0.1%"):
        run_study(_cfg(modes=("profile",), replications=50))


def _reference_range(config, start, stop):
    """_accumulate_range's partial sums, one replication at a time."""
    n = config.n
    counts = {m: np.zeros(n - 1) for m in config.modes}
    failures = dict.fromkeys(config.modes, 0)
    center, clamped = 0.0, 0
    for i in range(start, stop):
        series = generate_sequence(config, i).series
        walk = known_walk(series, mc._known_origin(config))
        tau_hat = int(np.argmax(walk)) + 1
        if "known" in config.modes:
            counts["known"][tau_hat - 1] += 1.0
        if "profile" in config.modes:
            try:
                counts["profile"][int(np.nanargmax(profile_criterion(series)))] += 1.0
            except ChangePointError:
                failures["profile"] += 1
        if "cobb" in config.modes:
            want = config.cobb_delta or int(default_cobb_delta(tau_hat, n))
            delta = min(want, tau_hat - 1, n - 1 - tau_hat)
            clamped += delta < want
            w = cobb_window(walk, tau_hat, delta)
            counts["cobb"][tau_hat - delta - 1 : tau_hat + delta] += w
            center += float(w[delta])
    return counts, failures, center, clamped


@pytest.mark.parametrize("cobb_delta", [None, 4])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("family, nu", [("gaussian", None), ("student_t", 5.0), ("chi_square", 3.0)])
def test_block_engine_matches_per_replication_reference(monkeypatch, family, nu, d, cobb_delta):
    # n = 16 puts many estimates near the edges, so windows clamp; the
    # range straddles the 10,000 chunk edge, and the 7-replication block
    # budget puts block edges inside it
    cfg = _cfg(n=16, tau=7, eta=0.8, d=d, family=family, nu=nu,
               modes=("known", "profile", "cobb"), cobb_delta=cobb_delta)
    want = _reference_range(cfg, 9_990, 10_050)
    for budget in (mc._BLOCK_ELEMENTS, 7 * cfg.n * d * d):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", budget)
        counts, failures, center, clamped = mc._accumulate_range(cfg, 9_990, 10_050)
        assert {m: c.tobytes() for m, c in counts.items()} == {
            m: c.tobytes() for m, c in want[0].items()
        }
        assert (failures, center, clamped) == want[1:]
    assert want[3] > 0


@pytest.mark.parametrize("rep_index", [0, 9_999, 2**64 - 1, 2**64])
def test_seek_after_draws_gives_the_jumped_stream(rep_index):
    streams = mc._Substreams(2**64 - 5)
    streams.seek(3).standard_normal(7)  # a previous replication's draws
    streams.rng.bytes(3)  # leaves a buffered 32-bit half word behind
    rng = streams.seek(rep_index)
    ref = np.random.Generator(np.random.Philox(key=2**64 - 5).jumped(rep_index))
    assert (rng.bytes(10), rng.random(12).tobytes()) == (ref.bytes(10), ref.random(12).tobytes())


def test_identity_sigma_skips_the_solves(monkeypatch):
    # every simulated d > 1 known cell has sigma = I, against which solve
    # returns its input; sha256 of the report as produced by commit 616c60a
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    cfg = _cfg(n=40, tau=15, eta=1.0, d=3, replications=600, master_seed=5, modes=("known", "cobb"))
    digest = hashlib.sha256(json.dumps(report_to_json(run_study(cfg))).encode()).hexdigest()
    assert digest == "dbf1603324aa06917d311a6d9a614730e8df4ff0774103e794ea5c223f70dd7c"


def test_one_failing_replication_in_a_block_is_one_failure(monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    cfg = _cfg(modes=("profile",), replications=1000)
    clean = run_study(cfg)
    bad = generate_sequence(cfg, 37).series
    real = mc.profile_criterion

    def fails_on_rep_37(series):
        if np.any(np.all(series == bad, axis=(-2, -1))):
            raise DegenerateDataError("forced failure")
        return real(series)

    monkeypatch.setattr(mc, "profile_criterion", fails_on_rep_37)
    rep = run_study(cfg)  # one failure in 1000 is within the 0.1% budget
    assert rep.failures == {"profile": 1}
    lost = int(np.nanargmax(real(bad))) + 1 - cfg.tau
    want = dict(clean.empirical["profile"])
    want[lost] -= 1.0
    assert rep.empirical["profile"] == {k: v for k, v in want.items() if v}


def test_report_csv_format(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    rep = run_study(_cfg(eta=2.5, replications=200, modes=("known",)))
    path = tmp_path / "cell.csv"
    report_to_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "mode,offset,count"
    assert all(line.startswith("known,") for line in lines[1:])
    counts = [float(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == pytest.approx(200.0)


def test_no_change_spread_is_not_centered(capsys):
    # near-zero change: the estimate wanders (heaviest near the sample
    # edges for a driftless walk); sanity-check that no silent bias pins
    # it to the middle.  Qualitative by design.
    cfg = _cfg(n=100, tau=50, eta=1e-8, replications=2000, master_seed=15)
    freqs = np.zeros(99)
    for i in range(cfg.replications):
        y = generate_sequence(cfg, i).series
        walk = np.cumsum(1e-8**2 / 2 - 1e-8 * y[:, 0])[:-1]
        freqs[int(np.argmax(walk))] += 1
    freqs /= cfg.replications
    print(f"no-change spread: center mass {freqs[40:59].sum():.3f}, max cell {freqs.max():.3f}")
    assert freqs.max() < 0.2
    assert freqs[40:59].sum() < 0.5  # no pile-up toward the middle


def test_mse_truncation_effect(monkeypatch):
    # shorter samples truncate the offset support harder, so the empirical
    # spread cannot exceed the longer sample's
    monkeypatch.setenv("CHANGEPOINT_THREADS", "0")
    small = run_study(SimConfig(n=40, tau=20, eta=1.0, replications=100_000,
                                master_seed=2024, modes=("known",)))
    large = run_study(SimConfig(n=100, tau=50, eta=1.0, replications=100_000,
                                master_seed=2024, modes=("known",)))
    assert small.mse["known"] <= large.mse["known"]


# --- oracles -------------------------------------------------------------------

def test_default_horizon_bound():
    for eta in (1.0, 2.0, 3.3):
        h = default_horizon(eta)
        assert 4.0 * np.exp(-eta * eta * h / 8.0) < 1e-6
        assert 4.0 * np.exp(-eta * eta * (h - 1) / 8.0) >= 1e-6


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
def test_oracles_refuse_a_bad_eta(eta, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(mc, "_walk_batches", no_draw)
    message = f"^eta must be a positive finite real, got {eta!r}$"
    for call in (
        lambda: default_horizon(eta),
        lambda: oracle_xi_infinity(eta, 10, seed=1),
        lambda: ladder_oracle(eta, 3, 10, seed=1),
    ):
        with pytest.raises(DomainError, match=message):
            call()


def test_oracle_atom_and_symmetry():
    eta = 2.0
    reps = 200_000
    emp = oracle_xi_infinity(eta, reps, seed=90)
    p0 = exactdist._no_ladder_mass(eta, 1e-12)[0] ** 2
    se = np.sqrt(p0 * (1 - p0) / reps)
    assert emp[0] == pytest.approx(p0, abs=3 * se)
    for k in (1, 2, 3):
        if emp.get(k, 0.0) >= 1e-4:
            band = 4.0 * np.sqrt(emp[k] / reps)
            assert abs(emp[k] - emp.get(-k, 0.0)) <= band


def test_oracle_close_to_exact_distribution_at_eta2():
    emp = oracle_xi_infinity(2.0, 200_000, seed=91)
    tv = tv_distance(emp, build_pmf(2.0).as_mapping())
    assert tv <= 0.012  # intrinsic formula gap ~0.0033 plus MC noise at 2e5


# sha256 of the oracle streams as produced by commit f9be3c9, before both
# oracles shared one walk generator.  40,000 replications span two full
# _ORACLE_BATCH batches and a partial one.
def test_oracle_xi_infinity_stream_golden():
    emp = oracle_xi_infinity(2.0, 40_000, seed=91)
    digest = hashlib.sha256(repr(sorted(emp.items())).encode()).hexdigest()
    assert digest == "bb0634ebebef20bbde3a74d4bf3c1c172dd4a93f43be0e130242ed8972e3780b"


def test_ladder_oracle_stream_golden():
    res = ladder_oracle(1.0, 20, 40_000, 17)
    arrays = (res.q_hat, res.q_se, res.q_tilde_hat, res.q_tilde_se)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == "e9ab1058dbcd6e9fd882b0c0215c5ac6e971f04b86bbad3034fb1c37a91912c9"


def test_ladder_oracle_matches_recursions():
    eta = 1.0
    res = ladder_oracle(eta, nmax=20, replications=300_000, seed=17)
    q, qt = build_ladder_tables(eta, 20)
    assert res.q_hat[1] == pytest.approx(std_normal_survival(eta / 2.0), abs=4 * res.q_se[1])
    for k in range(1, 21):
        assert abs(res.q_hat[k] - q[k]) <= 4 * res.q_se[k] + 1e-12
        assert abs(res.q_tilde_hat[k] - qt[k]) <= 4 * res.q_tilde_se[k] + 1e-12
    # nonincreasing up to noise banding
    for k in range(1, 20):
        assert res.q_hat[k + 1] <= res.q_hat[k] + 4 * res.q_se[k + 1]
