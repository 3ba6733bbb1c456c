"""Large-system SINRs, rate envelopes, and RZF deterministic equivalents."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saturee import asympt, beamform, channel
from saturee.scalar_opt import golden_section_max
from saturee.sysmodel import SystemConfig, derive_power_model

from oracles import (det_equiv_rzf_decimal, det_equiv_rzf_empirical,
                     ee_mrt_asymptotic, wmmse_one)


def _norm_cfg(m, n):
    """Unit noise density, unit bandwidth: transmit power equals SNR."""
    return SystemConfig(M=m, N=n, W=1.0, T=1.0,
                        noise_psd_dbm_per_hz=30.0, noise_figure_db=0.0)


# ------------------------------------------------- matched-filter curves

def test_sinr_mrt_zero_power(cfg3):
    assert asympt.sinr_mrt_asymptotic(0.0, cfg3, 1e-20) == 0.0


def test_sinr_mrt_interference_limit(cfg3):
    # noise-free limit M / (N - 1)
    assert asympt.sinr_mrt_asymptotic(1.0, cfg3, 0.0) == pytest.approx(
        1.5, rel=1e-14)


def test_sinr_mrt_matches_monte_carlo_mid_range():
    cfg = _norm_cfg(16, 16)
    acc = 0.0
    trials = 1000
    for t in range(trials):
        h = channel.generate(cfg, 3, t)
        b = beamform.mrt(h) * math.sqrt(1.0 / 16)
        acc += float(np.mean(beamform.sinr(h, b, 1.0)))
    det = asympt.sinr_mrt_asymptotic(1.0, cfg, 1.0)
    assert acc / trials == pytest.approx(det, rel=0.05)


def test_ee_mrt_vanishes_at_extremes(cfg3):
    assert ee_mrt_asymptotic(0.0, cfg3) == 0.0
    assert ee_mrt_asymptotic(1e3, cfg3) < 1e-2


def test_ee_mrt_unimodal(cfg3):
    peak = golden_section_max(lambda p: ee_mrt_asymptotic(p, cfg3),
                              1e-18, 1e-3)
    values = ee_mrt_asymptotic(np.logspace(-18, -3, 200), cfg3)
    top = int(np.argmax(values))
    assert np.all(np.diff(values[: top + 1]) > 0.0)
    assert np.all(np.diff(values[top:]) < 0.0)
    assert ee_mrt_asymptotic(peak, cfg3) >= values.max() * (1.0 - 1e-12)


# -------------------------------------------------------- rate envelopes

def test_rate_lower_bound_zero_and_limit(cfg3):
    assert asympt.rate_lower_bound(0.0, cfg3) == 0.0
    # high-power limit N M / (N + M - 1)
    assert asympt.rate_lower_bound(1e9, cfg3) == pytest.approx(9.0 / 5.0,
                                                               rel=1e-6)


def test_rate_lower_bound_under_mrt_curve(cfg3):
    pm = derive_power_model(cfg3)
    grid = np.logspace(-18, -4, 100)
    lb = asympt.rate_lower_bound(grid, cfg3)
    exact = cfg3.N * np.log1p(asympt.sinr_mrt_asymptotic(grid, cfg3, pm.n0))
    assert np.all(lb <= exact + 1e-15)
    # the gap closes once the power sits far below the noise floor
    tiny = 1e-24
    assert asympt.rate_lower_bound(tiny, cfg3) == pytest.approx(
        float(cfg3.N * np.log1p(asympt.sinr_mrt_asymptotic(tiny, cfg3, pm.n0))),
        rel=1e-3)


def test_rate_upper_bound_cases(cfg3):
    assert asympt.rate_upper_bound(0.0, cfg3) == 0.0
    pm = derive_power_model(cfg3)
    p = 1e-9
    assert asympt.rate_upper_bound(p, cfg3) == pytest.approx(
        3.0 * math.log1p(3.0 * p / (3.0 * pm.n0)), rel=1e-14)


def test_rate_upper_bound_single_user_exact():
    cfg = SystemConfig(M=4, N=1)
    pm = derive_power_model(cfg)
    p = 3e-9
    assert asympt.rate_upper_bound(p, cfg) == pytest.approx(
        math.log1p(4.0 * p / pm.n0), rel=1e-14)


def test_rate_upper_bound_dominates_in_expectation(cfg3):
    """The interference-free envelope caps the average rate.

    A single draw can beat it (channel gains fluctuate above their mean
    and power can be steered toward them), but by concavity the envelope
    sits above the expectation of both the genie rate with interference
    removed and the full solver's rate.  With these 100 draws the genie
    mean is five standard errors below the cap."""
    pm = derive_power_model(cfg3)
    p = 1e-8
    cap = float(asympt.rate_upper_bound(p, cfg3))
    solver = []
    genie = []
    for t in range(100):
        h = channel.generate(cfg3, 21, t)
        solver.append(wmmse_one(h, cfg3, p).sum_rate)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        genie.append(float(np.sum(np.log1p(gains * (p / cfg3.N) / pm.n0))))
    assert float(np.mean(solver)) <= cap
    assert float(np.mean(genie)) <= cap


def test_rate_sandwich(cfg3):
    pm = derive_power_model(cfg3)
    grid = np.logspace(-16, -5, 60)
    mid = cfg3.N * np.log1p(asympt.sinr_mrt_asymptotic(grid, cfg3, pm.n0))
    assert np.all(asympt.rate_lower_bound(grid, cfg3) <= mid + 1e-15)
    assert np.all(mid <= asympt.rate_upper_bound(grid, cfg3) + 1e-15)


def test_ee_envelopes_vanish_at_extremes(cfg3):
    for fn in (asympt.ee_lower_bound, asympt.ee_upper_bound):
        assert fn(0.0, cfg3) == 0.0
        assert fn(1e9, cfg3) < 1e-6


def test_trace_lemma_error_decays():
    """Normalized matched-filter gains concentrate as dimensions grow."""
    errs = []
    for mdim in (8, 32, 128):
        cfg = _norm_cfg(mdim, mdim)
        tot = 0.0
        trials = 30
        for t in range(trials):
            h = channel.generate(cfg, 11, t)
            dirs = beamform.mrt(h)
            sig = np.abs(np.sum(h.conj() * dirs, axis=1)) ** 2 / mdim
            tot += float(np.mean(np.abs(sig - 1.0)))
        errs.append(tot / trials)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1


# ------------------------------------------------ deterministic RZF

def test_fixed_point_pinned_value(cfg3):
    # root of alpha m^2 + (alpha + c - 1) m - 1 = 0 at alpha=0.1, c=1,
    # frozen from a 50-digit mpmath evaluation of the quadratic formula
    de = asympt.det_equiv_rzf(cfg3, 0.1)
    assert de.m0 == pytest.approx(2.7015621187164243, rel=1e-9)


def test_fixed_point_residual():
    for m, n, alpha in ((3, 3, 0.5), (8, 2, 2.0), (2, 8, 0.05)):
        de = asympt.det_equiv_rzf(SystemConfig(M=m, N=n), alpha)
        c = n / m
        g = 1.0 / (alpha + c / (1.0 + de.m0))
        assert abs(de.m0 - g) <= 1e-9 * max(1.0, de.m0)
        assert de.psi0 > 0.0


def test_det_equiv_rejects_bad_loading(cfg3):
    with pytest.raises(ValueError):
        asympt.det_equiv_rzf(cfg3, 0.0)
    with pytest.raises(ValueError):
        det_equiv_rzf_empirical(cfg3, -1.0)


def test_analytic_matches_empirical_backend(cfg3):
    """The closed-form constants agree with estimates measured on one
    256-antenna realization; the measured interference coefficient
    matches psi0, as the identity gamma0 = psi0 says."""
    for alpha in (0.3, 1.0, 3.0):
        da = asympt.det_equiv_rzf(cfg3, alpha)
        m_hat, gamma_hat, psi_hat = det_equiv_rzf_empirical(
            cfg3, alpha, size=256, seed=0)
        assert m_hat == pytest.approx(da.m0, rel=0.02)
        assert gamma_hat == pytest.approx(da.psi0, rel=0.02)
        assert psi_hat == pytest.approx(da.psi0, rel=0.02)
        s_a = asympt.sinr_rzf_asymptotic(1.0, da, 1.0)
        s_e = m_hat ** 2 / (gamma_hat + psi_hat * (1.0 + m_hat) ** 2)
        assert s_e == pytest.approx(s_a, rel=0.02)


def test_rzf_degenerates_to_mrt_at_large_loading():
    """Huge loading turns the regularized inverse into a matched filter;
    the two deterministic curves then coincide at large dimensions."""
    cfg = _norm_cfg(128, 128)
    de = asympt.det_equiv_rzf(cfg, 1e6)
    for rho in (0.1, 1.0, 10.0):
        s_rzf = asympt.sinr_rzf_asymptotic(rho, de, 1.0)
        s_mrt = asympt.sinr_mrt_asymptotic(rho, cfg, 1.0)
        assert s_rzf == pytest.approx(s_mrt, rel=0.02)


def test_sinr_rzf_zero_power(cfg3):
    de = asympt.det_equiv_rzf(cfg3, 1.0)
    assert asympt.sinr_rzf_asymptotic(0.0, de, 1.0) == 0.0


def test_ee_rzf_tops_mrt_at_high_power(cfg3):
    pm = derive_power_model(cfg3)
    for p in np.logspace(-9, -7, 8):
        alpha = beamform.mmse_loading_alpha(cfg3, p)
        de = asympt.det_equiv_rzf(cfg3, alpha)
        assert (asympt.ee_rzf_asymptotic(p, cfg3, de)
                >= ee_mrt_asymptotic(p, cfg3) * (1.0 - 1e-9))


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=256),
       st.integers(min_value=1, max_value=256),
       st.floats(min_value=1e-30, max_value=1e6))
# the loadings of a 64x65 cell at 50 dBm and a 16x1 cell at 42 dBm, and
# a square cell whose loading vanishes beside 1 in alpha + c
@example(64, 65, 4.05e-15)
@example(16, 1, 1.5736567647427118e-15)
@example(64, 64, 1e-15)
def test_det_equiv_positive_and_certified(m, n, alpha):
    de = asympt.det_equiv_rzf(SystemConfig(M=m, N=n), alpha)
    assert de.m0 > 0.0 and de.psi0 > 0.0
    g = 1.0 / (alpha + n / m / (1.0 + de.m0))
    assert abs(de.m0 - g) <= 1e-9 * max(1.0, de.m0)
    m0, gamma0, psi0 = det_equiv_rzf_decimal(m, n, alpha)
    assert de.m0 == pytest.approx(m0, rel=1e-12)
    assert de.psi0 == pytest.approx(psi0, rel=1e-12)
    assert de.psi0 == pytest.approx(gamma0, rel=1e-12)
