"""Closed-form saturation powers, interpolation, one-shot scheme."""
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saturee import asympt, beamform, channel, harness, satpower
from saturee.scalar_opt import golden_section_max
from saturee.sysmodel import (SystemConfig, derive_power_model, load_config,
                              transmit_power_from_dbm)

from oracles import proposed_one

DEFAULT_CONFIG = (Path(__file__).resolve().parent.parent / "configs"
                  / "default.json")

# Reference-cell values evaluated independently with mpmath at 50-digit
# precision from the defining stationarity conditions, rounded once.
PINNED = {
    (30.0, 40.0): dict(p_lb=8.821294138831689e-14, p_ub=2.4230867675888115e-08,
                       gamma_lb=2769230.017594025, gamma_ub=123809020.79634558),
    (40.0, 50.0): dict(p_lb=2.789538138900171e-13, p_ub=2.2376555900814434e-07,
                       gamma_lb=276923.0531542328, gamma_ub=13406888.947957098),
}


def _random_cfg(rng):
    return SystemConfig(
        M=int(rng.integers(1, 17)),
        N=int(rng.integers(1, 17)),
        xi=float(rng.uniform(1.0, 4.0)),
        Pc_prime_dbm=float(rng.uniform(20.0, 40.0)),
        Po_prime_dbm=float(rng.uniform(30.0, 50.0)),
        noise_figure_db=float(rng.uniform(0.0, 10.0)),
    )


# ------------------------------------------------------------------ toy

def test_toy_static_one_is_e_minus_one():
    assert satpower.p_ee_toy(1.0) == pytest.approx(math.e - 1.0, abs=1e-10)


def test_toy_pinned_values():
    # frozen from mpmath at 50 digits
    assert satpower.p_ee_toy(10.0) == pytest.approx(7.174364667724809,
                                                    rel=1e-12)
    assert satpower.p_ee_toy(0.1) == pytest.approx(0.47943271743322435,
                                                   rel=1e-12)


def test_toy_matches_direct_maximization():
    for p_static in np.logspace(-2, 2, 9):
        closed = satpower.p_ee_toy(float(p_static))
        direct = golden_section_max(
            lambda p: satpower.toy_ee(p, float(p_static)),
            1e-8, 1e6, rel_tol=1e-10)
        assert closed == pytest.approx(direct, rel=1e-6)


def test_toy_vanishing_static_power():
    assert satpower.p_ee_toy(1e-12) < 1e-5


def test_toy_rejects_bad_static_power():
    with pytest.raises(ValueError):
        satpower.p_ee_toy(0.0)
    with pytest.raises(ValueError):
        satpower.p_ee_toy(math.inf)


def test_toy_curves():
    assert satpower.toy_rate(math.e - 1.0) == pytest.approx(1.0, rel=1e-12)
    assert satpower.toy_ee(0.0, 2.0) == 0.0


# ------------------------------------------------------ closed-form ends

def test_p_lb_pinned(cfg3, cfg_high):
    for cfg in (cfg3, cfg_high):
        pin = PINNED[(cfg.Pc_prime_dbm, cfg.Po_prime_dbm)]
        assert satpower.p_lb(cfg) == pytest.approx(pin["p_lb"], rel=1e-12)


def test_p_ub_pinned(cfg3, cfg_high):
    for cfg in (cfg3, cfg_high):
        pin = PINNED[(cfg.Pc_prime_dbm, cfg.Po_prime_dbm)]
        assert satpower.p_ub(cfg) == pytest.approx(pin["p_ub"], rel=1e-12)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_p_lb_stationarity(draw):
    cfg = _random_cfg(np.random.default_rng(draw))
    pm = derive_power_model(cfg)
    p = satpower.p_lb(cfg)
    lhs = (cfg.N + cfg.M - 1) * cfg.xi * p * p
    rhs = cfg.N * pm.n0 * pm.Pconst
    assert abs(lhs - rhs) <= 1e-12 * rhs


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_p_ub_proof_identity(draw):
    cfg = _random_cfg(np.random.default_rng(draw))
    pm = derive_power_model(cfg)
    p = satpower.p_ub(cfg)
    t = cfg.M * pm.Pconst / (cfg.N * pm.n0 * cfg.xi)
    s = 1.0 + cfg.M * p / (cfg.N * pm.n0)
    assert s * (math.log(s) - 1.0) == pytest.approx(t - 1.0,
                                                    rel=1e-10, abs=1e-10)


def test_p_lb_square_root_scaling():
    """Quadrupling the static consumption doubles the lower end."""
    a = satpower.p_lb(SystemConfig(
        M=3, N=3, W=1.0, T=1.0, noise_psd_dbm_per_hz=30.0,
        noise_figure_db=0.0, Pc_prime_dbm=30.0, Po_prime_dbm=40.0))
    b = satpower.p_lb(SystemConfig(
        M=3, N=3, W=1.0, T=1.0, noise_psd_dbm_per_hz=30.0,
        noise_figure_db=0.0,
        Pc_prime_dbm=30.0 + 10.0 * math.log10(4.0),
        Po_prime_dbm=40.0 + 10.0 * math.log10(4.0)))
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_p_ub_degenerate_ratio_case():
    """When M Pconst / (N n0 xi) = 1 the upper end is (N n0 / M)(e - 1)."""
    dbm_half = 10.0 * math.log10(0.5) + 30.0
    cfg = SystemConfig(M=1, N=1, W=1.0, T=1.0, noise_psd_dbm_per_hz=30.0,
                       noise_figure_db=0.0, Pc_prime_dbm=dbm_half,
                       Po_prime_dbm=dbm_half)
    assert satpower.p_ub(cfg) == pytest.approx(math.e - 1.0, rel=1e-9)


def test_closed_forms_match_direct_maximization(cfg3, cfg_high):
    """Both ends agree with golden-section maxima of their efficiency
    curves to well within 0.1%."""
    for cfg in (cfg3, cfg_high):
        direct_lb = golden_section_max(
            lambda p: float(asympt.ee_lower_bound(p, cfg)), 1e-18, 1e-3)
        assert satpower.p_lb(cfg) == pytest.approx(direct_lb, rel=1e-3)
        direct_ub = golden_section_max(
            lambda p: float(asympt.ee_upper_bound(p, cfg)), 1e-18, 1e-3)
        assert satpower.p_ub(cfg) == pytest.approx(direct_ub, rel=1e-3)


# ------------------------------------------------------------- RZF root

def _stationarity(p, de, n0, pconst_over_xi):
    """The sign function whose root is the RZF saturation power,
    restated here from the deterministic-equivalent parameters, on the
    curve m0^2 P / (gamma0 P + psi0 (1 + m0)^2 n0) with gamma0 = psi0."""
    m2 = de.m0 ** 2
    a = de.psi0 * (1.0 + de.m0) ** 2 * n0
    num = m2 * a * (p + pconst_over_xi)
    den = ((m2 + de.psi0) * p + a) * (de.psi0 * p + a)
    return math.log1p(m2 * p / (de.psi0 * p + a)) - num / den


def test_p_rzf_root_and_monotone(cfg3):
    pm = derive_power_model(cfg3)
    alpha = beamform.mmse_loading_alpha(cfg3, 1.6e-9)
    de = asympt.det_equiv_rzf(cfg3, alpha)
    root = satpower.p_rzf(cfg3, de)
    assert abs(_stationarity(root, de, pm.n0, pm.Pconst / cfg3.xi)) <= 1e-8
    grid = np.logspace(-14, -4, 50)
    vals = [_stationarity(p, de, pm.n0, pm.Pconst / cfg3.xi) for p in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_p_rzf_matches_direct_maximization(cfg3):
    alpha = beamform.mmse_loading_alpha(cfg3, 1.6e-9)
    de = asympt.det_equiv_rzf(cfg3, alpha)
    root = satpower.p_rzf(cfg3, de)
    direct = golden_section_max(
        lambda p: float(asympt.ee_rzf_asymptotic(p, cfg3, de)), 1e-16, 1e-3)
    assert root == pytest.approx(direct, rel=1e-3)


# -------------------------------------------------------- interpolation

def test_interpolate_endpoints():
    band = satpower.interpolate(1.0, 3.0, 3.0 / 1.0, 1.0, 1e-13, 1e-8,
                                math.nan)
    assert band.omega == 0.0 and band.p_prop == 1e-8  # estimate at the top
    band = satpower.interpolate(1.0, 3.0, 2.0, 1.0, 1e-13, 1e-8, math.nan)
    assert band.omega == pytest.approx(0.5, rel=1e-12)  # midpoint estimate
    assert band.p_prop == pytest.approx(0.5e-13 + 0.5e-8, rel=1e-12)
    band = satpower.interpolate(1.0, 3.0, 1.0, 1.0 + 1e-12, 1e-13, 1e-8,
                                math.nan)
    assert band.omega == pytest.approx(1.0, abs=1e-9)  # estimate at the floor


def test_interpolate_clamps():
    band = satpower.interpolate(1.0, 3.0, 4.0, 1.3, 1e-13, 1e-8, math.nan)
    assert band.omega == 0.0 and band.p_prop == 1e-8
    band = satpower.interpolate(1.0, 3.0, 0.5, 1.3, 1e-13, 1e-8, math.nan)
    assert band.omega == 1.0 and band.p_prop == 1e-13


def test_interpolate_rejects_bad_bands():
    with pytest.raises(ValueError):
        satpower.interpolate(3.0, 1.0, 2.0, 1.3, 1e-13, 1e-8, math.nan)
    with pytest.raises(ValueError):
        satpower.interpolate(1.0, 3.0, 2.0, 1.3, 1e-8, 1e-13, math.nan)
    with pytest.raises(ValueError):
        satpower.interpolate(1.0, 3.0, 2.0, -1.0, 1e-13, 1e-8, math.nan)
    with pytest.raises(ValueError):
        satpower.interpolate(0.0, 3.0, 2.0, 1.3, 1e-13, 1e-8, math.nan)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.01, max_value=100.0),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=1e-14, max_value=1e-10),
       st.floats(min_value=2.0, max_value=1e4))
def test_interpolate_invariants(g_lb, spread, frac, p_low, p_ratio):
    g_ub = g_lb * spread
    est = g_lb + frac * (g_ub - g_lb)
    band = satpower.interpolate(g_lb, g_ub, est, 1.0, p_low, p_low * p_ratio,
                                math.nan)
    assert 0.0 <= band.omega <= 1.0
    assert band.p_lb <= band.p_prop <= band.p_ub
    gap = (g_ub - band.gamma_se_est) / (band.gamma_se_est - g_lb)
    assert band.omega == pytest.approx(gap / (1.0 + gap), rel=1e-12)
    assert band.gamma_lb <= band.gamma_se_est <= band.gamma_ub


# ------------------------------------------------------------ full band

def test_compute_band_reference_cells(cfg3, cfg_high):
    for cfg in (cfg3, cfg_high):
        pin = PINNED[(cfg.Pc_prime_dbm, cfg.Po_prime_dbm)]
        band = satpower.compute_band(cfg)
        assert band.p_lb == pytest.approx(pin["p_lb"], rel=1e-12)
        assert band.p_ub == pytest.approx(pin["p_ub"], rel=1e-12)
        assert band.gamma_lb == pytest.approx(pin["gamma_lb"], rel=1e-12)
        assert band.gamma_ub == pytest.approx(pin["gamma_ub"], rel=1e-12)
        assert band.p_lb < band.p_rzf < band.p_ub
        assert band.p_lb <= band.p_prop <= band.p_ub
        assert (band.gamma_lb < band.gamma_rzf < band.gamma_se_est
                < band.gamma_ub)
        assert 0.0 < band.omega < 1.0
        assert band.beta == cfg.beta == 1.3


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_compute_band_ordering_random_configs(draw):
    cfg = _random_cfg(np.random.default_rng(draw))
    band = satpower.compute_band(cfg)
    assert 0.0 < band.p_lb < band.p_ub
    assert band.p_lb <= band.p_prop <= band.p_ub
    assert band.gamma_lb < band.gamma_ub
    assert 0.0 <= band.omega <= 1.0


def test_compute_band_beta_knob(cfg3):
    low = satpower.compute_band(dataclasses.replace(cfg3, beta=1.05))
    high = satpower.compute_band(dataclasses.replace(cfg3, beta=1.6))
    # a larger efficiency estimate pulls the operating point upward
    assert high.p_prop > low.p_prop


@pytest.mark.parametrize("M, N", [(2, 8), (1, 4), (3, 3), (32, 2), (64, 4),
                                  (64, 1), (64, 65)])
def test_wide_configuration_range(M, N):
    """Overloaded (M < N) and massive (M >> N) cells, amplifier
    inefficiency up to 4 and circuit powers from 0 to 70 dBm: the band
    stays ordered, the deterministic RZF curve is finite and positive at
    every budget of the default grid, the one-shot solve stays within
    its power and every SINR is finite, below, at and far above the
    operating power."""
    grid = harness.dbm_grid(harness.ExperimentSpec(kind="sweep"))
    rzf_asym = harness.SCHEMES["rzf_asym"][1]
    for xi, pc, po in itertools.product(
            (1.0, 2.5, 4.0), (0.0, 30.0, 70.0), (0.0, 40.0, 70.0)):
        cfg = SystemConfig(M=M, N=N, xi=xi, Pc_prime_dbm=pc, Po_prime_dbm=po)
        pm = derive_power_model(cfg)
        n0 = pm.n0
        cell = harness._Cell(cfg=cfg, pm=pm)
        for dbm in grid:
            rate, _ = rzf_asym(cell, transmit_power_from_dbm(dbm, cfg))
            assert math.isfinite(rate) and rate > 0.0, (cfg, dbm)
        band = satpower.compute_band(cfg)
        assert band.p_lb <= band.p_prop <= band.p_ub, cfg
        h = channel.generate(cfg, 9, 0)
        for budget in (band.p_prop / 10.0, band.p_prop, band.p_ub * 10.0):
            b = proposed_one(h, cfg, budget, band).b
            cap = min(budget, band.p_prop)
            assert float(np.sum(np.abs(b) ** 2)) <= cap * (1.0 + 1e-10), (
                cfg, budget)
            assert np.all(np.isfinite(beamform.sinr(h, b, n0))), cfg


@pytest.mark.parametrize("M, N", [(4, 8), (2, 8)])
def test_overloaded_cell_fidelity(M, N):
    """With more users than antennas the band comes from the served cell
    of min(N, M) users, and the one-shot scheme keeps 95% of the
    baseline's mean efficiency at 46 dBm, 200 trials (c10's bound)."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), M=M, N=N)
    budget = transmit_power_from_dbm(46.0, cfg)
    report, _, _ = harness.compare_schemes(cfg, budget, 200, seed=1)
    assert report.ee_ratio >= 0.95, report


def test_band_uses_served_cell():
    wide = SystemConfig(M=4, N=8)
    assert (satpower.compute_band(wide)
            == satpower.compute_band(dataclasses.replace(wide, N=4)))


# -------------------------------------------------------- one-shot solve

def test_proposed_clamps_at_operating_power(cfg3):
    band = satpower.compute_band(cfg3)
    h = channel.generate(cfg3, 31, 0)
    a = proposed_one(h, cfg3, band.p_prop * 10.0, band).b
    b = proposed_one(h, cfg3, band.p_prop * 100.0, band).b
    assert np.array_equal(a, b)
    assert float(np.sum(np.abs(a) ** 2)) <= band.p_prop * (1.0 + 1e-9)


def test_proposed_uses_full_budget_below_operating_power(cfg3):
    band = satpower.compute_band(cfg3)
    h = channel.generate(cfg3, 31, 1)
    budget = band.p_prop / 10.0
    b = proposed_one(h, cfg3, budget, band).b
    psum = float(np.sum(np.abs(b) ** 2))
    assert psum <= budget * (1.0 + 1e-9)
    assert psum >= budget * 0.99


def test_proposed_rejects_bad_budget(cfg3):
    band = satpower.compute_band(cfg3)
    h = channel.generate(cfg3, 31, 2)
    for budget in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError):
            proposed_one(h, cfg3, budget, band)
    with pytest.raises(ValueError):
        satpower.proposed_scheme(h[None], cfg3, np.full(2, 1e-8), band)
