"""Acceptance suite: one test per stated criterion, at stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one printed
pass/fail line per criterion.  Heavy simulations are shared through
module-scoped fixtures; every randomized criterion uses a fixed seed.

Two sub-checks are strict expected failures, both rooted in the same
modeling fact: the closed-form mass series treats the opposing walk's
maximum as exactly exponential beyond its atom, which inflates the
|k| >= 1 masses (total mass 1.021 at eta=1, 1.006 at eta=2).

  * criterion 5, eta=1: distance to the simulated truth is ~0.011, so
    the 0.005 gate cannot be met by any faithful implementation of the
    stated masses.  The same gap is what dominates the reproduced
    known-parameter study distances of criterion 6, which land right on
    their reference values.
  * criterion 7, eta=2: the convergence bound is ~5.6e-11, leaving a
    noise-only gate of 0.00392 that the systematic ~0.0033 gap consumes;
    measured 0.00398.

Details in the build notes.
"""

import math
import time

import numpy as np
import pytest

from changepoint.detect import p_value
from changepoint.exactdist import (
    build_ladder_tables,
    build_pmf,
    suggested_kmax,
    tv_bound,
    variance_for,
)
from changepoint.model import standardized_change_multivariate
from changepoint.montecarlo import (
    SimConfig,
    ladder_oracle,
    oracle_xi_infinity,
    run_study,
    tv_distance,
)
from changepoint.numerics import std_normal_survival

MU1 = np.array([6.738, 7.137, 6.725])
MU2 = np.array([7.383, 7.483, 7.166])
SIGMA = np.array(
    [
        [0.365, -0.032, -0.029],
        [-0.032, 0.161, 0.104],
        [-0.029, 0.104, 0.211],
    ]
)

# reference study distances for known parameters at n=100, tau=50
REFERENCE_TV_KNOWN = {1.0: 0.0109, 2.0: 0.0040, 2.5: 0.0022}
REFERENCE_TV_EST_40_20 = 0.0852

KNOWN_REPS = 500_000  # full scale; the reduced-scale fallback was not needed
SEEDS = {
    "known": {1.0: 8_101, 2.0: 8_102, 2.5: 8_103},
    "estimated": 8_110,
    "oracle": {1.0: 8_201, 2.0: 8_202},
    "ladder": 1,
    "robustness": 8_401,
    "cobb": 8_501,
}


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def known_cells():
    out = {}
    for eta, seed in SEEDS["known"].items():
        cfg = SimConfig(n=100, tau=50, eta=eta, replications=KNOWN_REPS,
                        master_seed=seed, modes=("known",))
        out[eta] = run_study(cfg)
    return out


# --- criterion 1: Mahalanobis reduction ------------------------------------

def test_criterion_1_mahalanobis_reduction():
    cases = [
        ([0, 1, 2], 1.60),
        ([0, 1], 1.47),
        ([0, 2], 1.52),
    ]
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        got = [
            standardized_change_multivariate(
                MU1[idx], MU2[idx], SIGMA[np.ix_(idx, idx)]
            ).eta
            for idx, _ in cases
        ]
        elapsed = min(elapsed, time.perf_counter() - t0)
    detail = ", ".join(
        f"eta({len(idx)}d)={g:.4f} (target {t}±0.005)" for (idx, t), g in zip(cases, got)
    )
    ok = all(abs(g - t) <= 5e-3 for (_, t), g in zip(cases, got))
    _line("1", ok and elapsed < 1e-3, f"{detail}; best time {elapsed * 1e6:.0f} us")
    for (_, target), g in zip(cases, got):
        assert g == pytest.approx(target, abs=5e-3)
    assert elapsed < 1e-3


# --- criterion 2: confidence levels ------------------------------------------

def test_criterion_2_confidence_levels():
    t0 = time.perf_counter()
    targets = [(1.47, 0.948), (1.52, 0.956), (1.60, 0.965)]
    got = []
    for eta, _ in targets:
        pmf = build_pmf(eta)
        got.append(pmf.prob(0) + 2.0 * sum(pmf.prob(k) for k in range(1, 5)))
    elapsed = time.perf_counter() - t0
    ok = all(abs(g - t) <= 2e-3 for (_, t), g in zip(targets, got))
    detail = ", ".join(f"S4({eta})={g:.4f} (target {t}±0.002)" for (eta, t), g in zip(targets, got))
    _line("2", ok and elapsed < 1.0, f"{detail}; {elapsed:.2f} s")
    for (_, target), g in zip(targets, got):
        assert g == pytest.approx(target, abs=2e-3)
    assert elapsed < 1.0


# --- criterion 3: detection p-values ------------------------------------------

def test_criterion_3_detection_p_values():
    pairs = [(3.78, 0.0448), (3.76, 0.0455)]
    got = [p_value(w) for w, _ in pairs]
    ok = all(abs(g - t) <= 2e-4 for (_, t), g in zip(pairs, got))
    _line("3", ok, ", ".join(
        f"p({w})={g:.5f} (target {t}±0.0002)" for (w, t), g in zip(pairs, got)
    ))
    for (_, target), g in zip(pairs, got):
        assert g == pytest.approx(target, abs=2e-4)


# --- criterion 4: structural suite ---------------------------------------------

def test_criterion_4_structural_suite():
    t0 = time.perf_counter()
    etas = [0.5, 1.0, 1.5, 2.0, 2.5]
    for eta in etas:
        pmf = build_pmf(eta, tol=1e-10)
        for k in (1, 3, 7):
            assert pmf.prob(k) == pmf.prob(-k)  # bit-exact symmetry
        assert pmf.total_mass() >= 1.0 - 1e-8
        assert pmf.prob(0) == pmf.no_ladder * pmf.no_ladder  # bit-exact atom
        tables = build_ladder_tables(eta, suggested_kmax(eta), tol=1e-12)
        assert tables.q[1] == pytest.approx(std_normal_survival(eta / 2.0), rel=1e-13)
        assert tables.q_tilde[1] == pytest.approx(
            math.exp(eta * eta) * std_normal_survival(1.5 * eta), rel=1e-12
        )
        fine = build_pmf(eta, tol=1e-12)
        k = np.arange(1, fine.support_halfwidth + 1, dtype=float)
        direct = 2.0 * float(np.sum(k * k * fine.probs_half[1:]))
        assert variance_for(eta) == pytest.approx(direct, rel=1e-6)
    elapsed = time.perf_counter() - t0
    _line("4", elapsed < 5.0, f"structure verified for eta in {etas}; {elapsed:.2f} s")
    assert elapsed < 5.0


# --- criterion 5: oracle equivalence ---------------------------------------------

def _oracle_tv(eta: float) -> float:
    emp = oracle_xi_infinity(eta, 1_000_000, SEEDS["oracle"][eta])
    return tv_distance(emp, build_pmf(eta).as_mapping())


def test_criterion_5_oracle_tv_eta2():
    tv = _oracle_tv(2.0)
    _line("5 (oracle TV, eta=2)", tv <= 0.005, f"TV={tv:.4f} (gate 0.005, 1e6 reps)")
    assert tv <= 0.005


@pytest.mark.xfail(
    strict=True,
    reason=(
        "closed-form masses at |k| >= 1 are intrinsically inflated (total mass "
        "1.0213 at eta=1); TV to the simulated truth is ~0.011 and cannot meet "
        "0.005 with the stated mass formula"
    ),
)
def test_criterion_5_oracle_tv_eta1():
    tv = _oracle_tv(1.0)
    _line("5 (oracle TV, eta=1)", tv <= 0.005, f"TV={tv:.4f} (gate 0.005, 1e6 reps)")
    assert tv <= 0.005


def test_criterion_5_ladder_oracle():
    # 100 correlated 3-SE comparisons leave this tight for any one draw;
    # the fixed seed keeps the realized check deterministic
    eta = 1.0
    res = ladder_oracle(eta, nmax=50, replications=10_000_000, seed=SEEDS["ladder"])
    tables = build_ladder_tables(eta, 50)
    worst = 0.0
    for k in range(1, 51):
        zq = abs(res.q_hat[k] - tables.q[k]) / res.q_se[k]
        zt = abs(res.q_tilde_hat[k] - tables.q_tilde[k]) / res.q_tilde_se[k]
        worst = max(worst, zq, zt)
    _line("5 (ladder oracle)", worst <= 3.0, f"max |z| over k<=50: {worst:.2f} (gate 3 SE, 1e7 reps)")
    assert worst <= 3.0


# --- criterion 6: study reproduction ----------------------------------------------

def test_criterion_6_known_cells(known_cells):
    details = []
    ok = True
    for eta, printed in REFERENCE_TV_KNOWN.items():
        tv = known_cells[eta].tv["known"]
        gate = 1.5 * printed
        details.append(f"eta={eta}: TV={tv:.4f} (reference {printed}, gate {gate:.4f})")
        ok &= tv <= gate
    _line("6 (known)", ok, f"{KNOWN_REPS} replications (full scale); " + "; ".join(details))
    for eta, printed in REFERENCE_TV_KNOWN.items():
        assert known_cells[eta].tv["known"] <= 1.5 * printed


@pytest.fixture(scope="module")
def estimated_cell():
    cfg = SimConfig(n=40, tau=20, eta=1.0, replications=KNOWN_REPS,
                    master_seed=SEEDS["estimated"], modes=("profile",))
    return run_study(cfg)


def test_criterion_6_estimated_cell(estimated_cell):
    tv = estimated_cell.tv["profile"]
    _line(
        "6 (estimated)",
        tv <= 0.11,
        f"{KNOWN_REPS} replications (full scale); n=40 tau=20 eta=1: "
        f"TV={tv:.4f} (reference {REFERENCE_TV_EST_40_20}, gate 0.11)",
    )
    assert tv <= 0.11


def test_extra_estimated_cell_midsample():
    # companion estimated-parameter check at n=100, tau=50, eta=1.5
    # (reference distance 0.0176; gate covers it plus MC allowance)
    cfg = SimConfig(n=100, tau=50, eta=1.5, replications=KNOWN_REPS,
                    master_seed=8_111, modes=("profile",))
    tv = run_study(cfg).tv["profile"]
    _line("6+ (estimated midsample)", tv <= 0.025, f"TV={tv:.4f} (gate 0.025)")
    assert tv <= 0.025


# --- criterion 7: TV bound consistency ----------------------------------------------

def _expected_tv_noise(pmf_map: dict, reps: int) -> float:
    return 0.5 * sum(
        math.sqrt(2.0 * p * (1.0 - p) / (math.pi * reps)) for p in pmf_map.values()
    )


def _criterion_7_check(eta: float, known_cells) -> None:
    bound = tv_bound(eta, 100, 50)
    noise = _expected_tv_noise(build_pmf(eta).as_mapping(), KNOWN_REPS)
    tv = known_cells[eta].tv["known"]
    gate = bound + 3.0 * noise
    _line(
        f"7 (eta={eta})",
        tv <= gate,
        f"TV={tv:.5f} vs bound {bound:.2e} + 3*noise {3 * noise:.5f}",
    )
    assert tv <= gate


@pytest.mark.parametrize("eta", [1.0, 2.5])
def test_criterion_7_tv_bound_consistency(eta, known_cells):
    _criterion_7_check(eta, known_cells)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at eta=2 the convergence bound is ~5.6e-11, so the gate is pure MC "
        "noise (0.00392 at 500k reps); the intrinsic ~0.0033 gap between the "
        "closed-form masses and the sampled truth consumes that budget and the "
        "measured 0.00398 misses the gate by 6e-5.  The excess is systematic, "
        "not MC noise, so it is reported rather than absorbed into the noise "
        "estimate"
    ),
)
def test_criterion_7_tv_bound_consistency_eta2(known_cells):
    _criterion_7_check(2.0, known_cells)


# --- criterion 8: robustness under student-t noise -----------------------------------

def test_criterion_8_robustness_student_t():
    cfg = SimConfig(n=100, tau=50, eta=2.5, replications=50_000,
                    master_seed=SEEDS["robustness"], family="student_t", nu=5.0,
                    modes=("known",))
    report = run_study(cfg)
    tv = report.tv["known"]
    _line("8", tv <= 0.05, f"t5 noise at eta=2.5: TV={tv:.4f} (gate 0.05, 50k reps)")
    assert tv <= 0.05


# --- criterion 9: conditional vs unconditional mass at the estimate ------------------

def test_criterion_9_cobb_mass_comparison():
    # the comparison is at the true change-point: the window offset l with
    # tau_hat + l = tau, i.e. offset 0 of the re-centered accumulation.
    # (Mass at the window center tau_hat itself is selection-biased upward
    # by the argmax and is reported alongside for context.)
    cfg = SimConfig(n=100, tau=50, eta=1.0, replications=50_000,
                    master_seed=SEEDS["cobb"], modes=("cobb",), cobb_delta=15)
    report = run_study(cfg)
    at_true = report.empirical["cobb"].get(0, 0.0) / cfg.replications
    at_estimate = report.cobb_mass_at_center
    uncond = build_pmf(1.0).prob(0)
    ok = at_true < uncond
    _line(
        "9",
        ok,
        f"avg conditional mass at the true change-point: {at_true:.4f} < "
        f"unconditional {uncond:.4f} (at the estimate itself: {at_estimate:.4f})",
    )
    assert at_true < uncond
