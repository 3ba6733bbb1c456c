"""Closed-form saturation powers, interpolation, one-shot scheme."""
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saturee import asympt, beamform, channel, harness, optim, satpower
from saturee.scalar_opt import golden_section_max
from saturee.sysmodel import (SystemConfig, derive_power_model, load_config,
                              transmit_power_from_dbm)

from oracles import (correlated_draws, dinkelbach_outer_loop,
                     linear_ee_upper_bound, path_loss_draws, proposed_one,
                     saturation_root_decimal)

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


def test_saturation_root_matches_decimal():
    """The root of (1 + z) log1p(z) - z = t that p_ub and p_ee_toy share
    holds 1e-12 relative against a 420-digit solve from t = 1e-300 to 1e6,
    on both sides of t = 1, where it leaves the closed form in W0."""
    ts = [10.0 ** (k / 4) for k in range(-1200, 25)]
    ts += [1.0 - 1e-9, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 1.0 + 1e-9]
    for t in ts:
        assert satpower._saturation_root(t) == pytest.approx(
            saturation_root_decimal(t), rel=1e-12), t


def test_closed_forms_match_direct_maximization(cfg3, cfg_high):
    """Both ends agree with golden-section maxima of their efficiency
    curves to well within 0.1%."""
    for cfg in (cfg3, cfg_high):
        direct_lb = golden_section_max(
            lambda p: float(asympt.ee_lower_bound(p, cfg)), 1e-18, 1e-3,
            rel_tol=1e-8)
        assert satpower.p_lb(cfg) == pytest.approx(direct_lb, rel=1e-3)
        direct_ub = golden_section_max(
            lambda p: float(asympt.ee_upper_bound(p, cfg)), 1e-18, 1e-3,
            rel_tol=1e-8)
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
        lambda p: float(asympt.ee_rzf_asymptotic(p, cfg3, de)), 1e-16, 1e-3,
        rel_tol=1e-8)
    assert root == pytest.approx(direct, rel=1e-3)


_WIDE_DBM = (-400.0, -250.0, -100.0, 0.0, 30.0, 100.0, 200.0)


def _wide_configs():
    """Served, wide and overloaded cells, xi of 1 and 30, circuit and
    static powers from -400 to 200 dBm and noise densities from -174 to
    +100 dBm/Hz; configurations SystemConfig rejects are left out."""
    for M, N, xi, pc, po, noise in itertools.product(
            (1, 3, 16, 64, 128), (1, 3, 16, 32), (1.0, 30.0), _WIDE_DBM,
            _WIDE_DBM, (-174.0, -100.0, 0.0, 100.0)):
        try:
            yield SystemConfig(M=M, N=N, xi=xi, Pc_prime_dbm=pc,
                               Po_prime_dbm=po, noise_psd_dbm_per_hz=noise)
        except ValueError:
            continue


# Below this circuit-to-noise ratio t = M Pconst / (N n0 xi) of the served
# cell, the two terms of the RZF stationarity function differ by about
# sqrt(t) of their size, which double rounding loses; see
# test_band_at_vanishing_circuit_power.
_T_VANISHING = 1e-30


def _served_ratio(cfg):
    served = dataclasses.replace(cfg, N=min(cfg.N, cfg.M))
    pm = derive_power_model(served)
    return served.M * pm.Pconst / (served.N * pm.n0 * served.xi)


def _check_rzf_bracket(cfg):
    band = satpower.compute_band(cfg)
    served = dataclasses.replace(cfg, N=min(cfg.N, cfg.M))
    pm = derive_power_model(served)
    de = asympt.det_equiv_rzf(served, beamform.mmse_loading_alpha(
        served, math.sqrt(band.p_lb * band.p_ub)))
    c = pm.Pconst / served.xi
    g = de.m0 * de.m0 / de.psi0
    a = (1.0 + de.m0) * (1.0 + de.m0) * pm.n0
    lo, hi = math.sqrt(a * c / (1.0 + g)), math.sqrt(a * c)
    assert _stationarity(lo, de, pm.n0, c) < 0.0, cfg
    assert _stationarity(hi, de, pm.n0, c) > 0.0, cfg
    assert lo <= band.p_rzf <= hi, cfg


def test_p_rzf_bracket_wide_grid():
    """The bracket [sqrt(a c / (1 + g)), sqrt(a c)] of the p_rzf
    docstring holds the stationarity root on every configuration of a
    wide grid whose served cell has t >= 1e-30: the restated sign
    function is negative at its lower end and positive at its upper end,
    and the band's p_rzf lies inside."""
    checked = 0
    for cfg in _wide_configs():
        if _served_ratio(cfg) >= _T_VANISHING:
            _check_rzf_bracket(cfg)
            checked += 1
    assert checked > 7000


@pytest.mark.xfail(strict=True, raises=(ValueError, AssertionError), reason=(
    "below t = 1e-30 the two terms of the RZF stationarity function agree "
    "to rounding, so its bracket's signs round away (p_rzf: root not "
    "bracketed) or interpolate finds gamma_ub not above gamma_lb"))
def test_band_at_vanishing_circuit_power():
    """The wide grid's configurations with t < 1e-30, where p_ub is
    exact but the band's later steps lose their signs to rounding: 271 of
    365 raise ValueError in compute_band, and 69 of the rest fail the
    bracket check."""
    vanishing = [cfg for cfg in _wide_configs()
                 if _served_ratio(cfg) < _T_VANISHING]
    assert len(vanishing) > 300
    for cfg in vanishing:
        _check_rzf_bracket(cfg)


def test_band_far_below_noise():
    cfg = SystemConfig(M=3, N=3, Pc_prime_dbm=-400.0, Po_prime_dbm=-400.0)
    band = satpower.compute_band(cfg)
    assert 0.0 < band.p_lb <= band.p_prop <= band.p_ub


def test_band_rejects_underflowing_ratio():
    """A cell whose t = M Pconst / (N n0 xi) underflows to 0 has no
    saturation root: compute_band raises ValueError, the CLI's exit 2."""
    cfg = SystemConfig(M=3, N=3, Pc_prime_dbm=-3000.0, Po_prime_dbm=-3000.0,
                       noise_psd_dbm_per_hz=3000.0)
    with pytest.raises(ValueError, match="t > 0"):
        satpower.compute_band(cfg)


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


@pytest.mark.parametrize("M, N", [(2, 8), (1, 4), (3, 3), (3, 4), (32, 2),
                                  (64, 4), (64, 1), (64, 65)])
def test_wide_configuration_range(M, N):
    """Overloaded (M < N) and massive (M >> N) cells, amplifier
    inefficiency up to 4 and circuit powers from 0 to 70 dBm: the band
    stays ordered, the deterministic RZF curve is finite and positive at
    every budget of the default grid and gives each budget the bits of
    a one-budget float evaluation, the one-shot solve stays within its
    power and every SINR is finite, below, at and far above the
    operating power."""
    grid = harness.dbm_grid(harness.ExperimentSpec(
        kind="sweep", config_path=str(DEFAULT_CONFIG)))
    rzf_asym = harness.SCHEMES["rzf_asym"][1]
    for xi, pc, po in itertools.product(
            (1.0, 2.5, 4.0), (0.0, 30.0, 70.0), (0.0, 40.0, 70.0)):
        cfg = SystemConfig(M=M, N=N, xi=xi, Pc_prime_dbm=pc, Po_prime_dbm=po)
        pm = derive_power_model(cfg)
        n0 = pm.n0
        cell = harness._Cell(cfg=cfg, pm=pm)
        rate, _ = rzf_asym(cell, np.array(
            [transmit_power_from_dbm(dbm, cfg) for dbm in grid]))
        assert np.all(np.isfinite(rate) & (rate > 0.0)), cfg
        for dbm, got in zip(grid, rate.tolist()):
            p = transmit_power_from_dbm(dbm, cfg)
            de = asympt.det_equiv_rzf(cfg, beamform.mmse_loading_alpha(cfg, p))
            assert got == N * math.log1p(
                asympt.sinr_rzf_asymptotic(p, de, n0)), (cfg, dbm)
        band = satpower.compute_band(cfg)
        assert band.p_lb <= band.p_prop <= band.p_ub, cfg
        h = channel.generate(cfg, 9, 0)
        for budget in (band.p_prop / 10.0, band.p_prop, band.p_ub * 10.0):
            b = proposed_one(h, cfg, budget, band).b
            cap = min(budget, band.p_prop)
            assert float(np.sum(np.abs(b) ** 2)) <= cap * (1.0 + 1e-10), (
                cfg, budget)
            assert np.all(np.isfinite(beamform.sinr(h, b, n0))), cfg


@pytest.mark.parametrize("M, N", [(4, 8), (2, 8), (3, 6), (8, 16)])
def test_overloaded_cell_fidelity(M, N):
    """With more users than antennas the band comes from the served cell
    of min(N, M) users, and the one-shot scheme keeps 95% of the
    baseline's mean efficiency at 46 dBm, 200 trials (c10's bound).

    Both schemes start from the users beamform.served_users picks, and a
    user that starts unserved stays so, so this ratio cannot tell a poor
    selection: the next test and the interference-free bound judge it."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), M=M, N=N)
    report, _, _ = harness.compare_schemes(cfg, 46.0, 200, seed=1)
    assert report.ee_ratio >= 0.95, report


@pytest.mark.parametrize("M, N", [(4, 8), (2, 8), (3, 6), (8, 16)])
def test_overloaded_cell_fidelity_against_all_user_start(M, N):
    """The selection costs no more than c10's 5% of mean efficiency at
    46 dBm, over 60 draws, against Dinkelbach's method started from
    equal-power RZF beamformers over all N users, which leaves the
    choice of whom to serve to the descent (it reads 1.002-1.013)."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), M=M, N=N)
    budget = transmit_power_from_dbm(46.0, cfg)
    cell = harness._Cell(cfg, derive_power_model(cfg),
                         satpower.compute_band(cfg))
    h = np.stack([channel.generate(cfg, 5, t) for t in range(60)])
    ee = harness._evaluate(cell, *harness.SCHEMES["proposed"][1](
        cell, h, np.array([budget])))[2][:, 0]
    alpha = beamform.mmse_loading_alpha(cfg, budget)
    starts = beamform.rzf(h, alpha) * math.sqrt(budget / N)
    ref = [dinkelbach_outer_loop(x, cfg, budget, b)[1]
           for x, b in zip(h, starts)]
    assert ee.mean() >= 0.95 * np.mean(ref)


@pytest.mark.parametrize("M, N", [(3, 6), (4, 8), (8, 16)])
def test_overloaded_cell_solves_in_one_beam_step(M, N):
    """Started on the M users the selection serves, with the loading and
    power of that served cell, every one-shot solve of an overloaded cell
    at 46 dBm converges after one beam step, over 200 draws: the descent
    has no users to switch off.  From an RZF start over all N users these
    cells took 33.8, 33.2 and 26.4 beam steps per draw, with 2, 5 and 3
    draws at the iteration cap."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), M=M, N=N)
    budget = transmit_power_from_dbm(46.0, cfg)
    h = np.stack([channel.generate(cfg, 5, t) for t in range(200)])
    res = satpower.proposed_scheme(h, cfg, np.full(200, budget),
                                   satpower.compute_band(cfg))
    assert res.converged
    # Each entry takes at least one beam step, so a sum of one per entry
    # is one each.
    assert res.state.iteration == 200


@pytest.mark.parametrize("M, N", [(16, 4), (64, 16), (128, 16), (256, 4)])
def test_wide_cell_solves_in_one_beam_step_at_mu_zero(M, N, monkeypatch):
    """On wide cells at 46 dBm, over 50 draws, the one-shot solve's first
    beam step from its start on the effective channels meets the power to
    within the rounding excess the multiplier search ignores, so mu stays
    0 and no search runs, and every solve converges after that one step.
    A multiplier search moving mu off zero by a rounding-sized step once
    cost about 72 power evaluations per 64x16 solve."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), M=M, N=N)
    budget = transmit_power_from_dbm(46.0, cfg)
    mus = []
    search = optim._multiplier

    def record(r, base, budget):
        mus.append(search(r, base, budget))
        return mus[-1]

    monkeypatch.setattr(optim, "_multiplier", record)
    h = np.stack([channel.generate(cfg, 5, t) for t in range(50)])
    res = satpower.proposed_scheme(h, cfg, np.full(50, budget),
                                   satpower.compute_band(cfg))
    assert res.converged and res.state.iteration == 50
    assert len(mus) == 1 and not mus[0].any()


@pytest.mark.parametrize("dbm", [240.0, 250.0])
def test_baseline_fidelity_at_huge_budget(dbm):
    """At 240 and 250 dBm the efficient sum power (about 2.6e-8 W/Hz)
    sits below 1e-20 of the budget.  The baseline's power-scale search
    has no floor tied to the budget, so it reaches that power, and the
    one-shot scheme keeps c10's 95% of its efficiency without beating it
    by more than 5%."""
    cfg = load_config(DEFAULT_CONFIG)
    report, _, _ = harness.compare_schemes(cfg, dbm, 2, seed=1)
    assert 0.95 <= report.ee_ratio < 1.05, report


def test_band_uses_served_cell():
    wide = SystemConfig(M=4, N=8)
    assert (satpower.compute_band(wide)
            == satpower.compute_band(dataclasses.replace(wide, N=4)))


# ----------------------------------------------- interference-free bound

def _scheme_ee_and_bound(M, N, seed, trials, shape=lambda h: h):
    """Per-draw efficiency of proposed and baseline at 46 dBm on the
    default config resized to M x N, and each draw's interference-free
    upper bound on any linear beamformer's efficiency; shape maps the
    i.i.d. draws to the ones scored."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), M=M, N=N)
    budget = transmit_power_from_dbm(46.0, cfg)
    cell = harness._Cell(cfg, derive_power_model(cfg),
                         satpower.compute_band(cfg))
    h = shape(np.stack([channel.generate(cfg, seed, t) for t in range(trials)]))
    ee = {name: harness._evaluate(cell, *harness.SCHEMES[name][1](
              cell, h, np.array([budget])))[2][:, 0]
          for name in ("proposed", "baseline")}
    return ee, np.array([linear_ee_upper_bound(x, cfg, budget) for x in h])


def test_linear_ee_upper_bound_is_tight_for_one_user():
    """With one user maximum ratio reaches the bound: log1p(g p) / (xi p
    + Pconst) peaks at p = z / g, z the saturation root of g Pconst / xi."""
    cfg = dataclasses.replace(load_config(DEFAULT_CONFIG), N=1, xi=2.5)
    pm = derive_power_model(cfg)
    for trial in range(5):
        h = channel.generate(cfg, 3, trial)
        g = float(np.sum(np.abs(h) ** 2)) / pm.n0
        z = satpower._saturation_root(g * pm.Pconst / cfg.xi)
        peak = math.log1p(z) / (cfg.xi * z / g + pm.Pconst)
        assert linear_ee_upper_bound(h, cfg, 1e3 * z / g) == pytest.approx(
            peak, rel=1e-12)


@pytest.mark.parametrize("shape, M, N", [
    pytest.param(shape, M, N, id=f"{name}{M}-{N}")
    for name, shape in (("", lambda h: h), ("path_loss-", path_loss_draws),
                        ("correlated-", correlated_draws))
    for M, N in ((3, 3), (16, 16), (3, 6), (64, 16))])
def test_schemes_stay_below_interference_free_bound(shape, M, N):
    """No linear beamformer beats the interference-free bound, whatever
    the channel, so neither scheme may on any draw: i.i.d. ones, and ones
    with per-user path loss over 20 dB or transmit correlation
    0.95^|i - j|, for which the band's i.i.d. statistics are mismatched."""
    ee, bound = _scheme_ee_and_bound(M, N, seed=1, trials=20, shape=shape)
    for name, values in ee.items():
        assert np.all(values <= bound * (1.0 + 1e-9)), (name, values / bound)


def test_proposed_near_interference_free_bound_on_wide_cell():
    """On a 64 x 16 cell interference is nearly gone, the bound is close
    to the optimum, and the paper's near-optimal claim reads as every
    proposed draw at 0.98 of it or above."""
    ee, bound = _scheme_ee_and_bound(64, 16, seed=5, trials=60)
    assert np.min(ee["proposed"] / bound) >= 0.98


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
