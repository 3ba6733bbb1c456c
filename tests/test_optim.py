"""WMMSE block descent and the Dinkelbach efficiency baseline."""
import math

import numpy as np
import pytest

from saturee import beamform, channel, optim, satpower
from saturee.channel import ChannelRealization
from saturee.specfun import lambert_w0
from saturee.sysmodel import (SystemConfig, derive_power_model,
                              normalized_config, transmit_power_from_dbm)


def _fixed(h):
    return ChannelRealization(h=np.asarray(h, dtype=complex), seed=0,
                              trial_index=0)


# ----------------------------------------------------------------- wmmse

def test_wmmse_single_user_closed_form():
    """One user: beam along the channel at full power, known rate."""
    cfg = SystemConfig(M=4, N=1)
    pm = derive_power_model(cfg)
    p = 1e-8
    for trial in range(5):
        ch = channel.generate(cfg, 13, trial)
        res = optim.wmmse(ch, cfg, p)
        g = float(np.linalg.norm(ch.h[0]) ** 2)
        assert res.converged
        assert res.state.iteration <= 3
        assert res.p_sum == pytest.approx(p, rel=1e-9)
        assert res.sum_rate == pytest.approx(math.log1p(g * p / pm.n0),
                                             rel=1e-9)
        align = abs(np.vdot(res.b[0], ch.h[0])) / np.linalg.norm(res.b[0])
        assert align == pytest.approx(np.linalg.norm(ch.h[0]), rel=1e-9)


def test_beam_step_keeps_mu_zero_at_a_rounding_excess():
    """From the MMSE-loaded RZF start on the 64x16 cell the unconstrained
    beam step meets the budget up to rounding; it must not pay for a
    multiplier search that moves mu off zero by a rounding-sized step."""
    cfg = SystemConfig(M=64, N=16)
    pm = derive_power_model(cfg)
    budget = transmit_power_from_dbm(46.0, cfg)
    for trial in range(5):
        h = channel.generate(cfg, 1, trial).h
        b0 = beamform.rzf(_fixed(h), beamform.mmse_loading_alpha(cfg, budget))
        d, sig, inter = beamform.link_gains(h, b0 * math.sqrt(budget / cfg.N))
        u, w = d / (inter + pm.n0 + sig), 1.0 + sig / (inter + pm.n0)
        free = optim._beam_step(h, u, w, math.inf, 0.0)
        p_free = float(np.sum(np.abs(free) ** 2))
        assert abs(p_free - budget) <= 1e-12 * budget
        tight = min(budget, p_free * (1.0 - 1e-14))
        assert np.array_equal(optim._beam_step(h, u, w, tight, 0.0), free)


def _bisect_multiplier(r, base, budget):
    """Reference multiplier search: plain bisection on the sum power, as
    the beam step ran it before the Newton solve."""
    def power_at(mu):
        return float(np.sum(r / (base + mu) ** 2))

    if power_at(0.0) <= budget * (1.0 + optim._ON_BUDGET_RTOL):
        return 0.0
    mu_hi = math.sqrt(float(np.sum(r)) / budget)
    while power_at(mu_hi) > budget:
        mu_hi *= 2.0
    mu_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (mu_lo + mu_hi)
        if power_at(mid) > budget:
            mu_lo = mid
        else:
            mu_hi = mid
        if abs(power_at(mu_hi) - budget) <= optim._POWER_RTOL * budget:
            break
        if mu_hi - mu_lo <= 1e-15 * mu_hi:
            break
    return mu_hi


_CELLS = ((3, 3), (2, 8), (64, 16))


def _check_multiplier(r, base):
    p0 = float(np.sum(r / base ** 2))
    for frac in np.geomspace(1e-3, 0.5, 5):
        budget = frac * p0
        mu = optim._multiplier(r, base, budget)
        p = float(np.sum(r / (base + mu) ** 2))
        assert p <= budget
        assert budget - p <= 1e-10 * budget
        assert mu == pytest.approx(_bisect_multiplier(r, base, budget),
                                   rel=1e-8)


def test_multiplier_matches_bisection_on_beam_steps(monkeypatch):
    """The Newton multiplier lands where the bisection did, on the feasible
    side within the power tolerance, for the beam steps of Dinkelbach
    solves (ridge zero on the first outer step, positive after)."""
    seen = []
    search = optim._multiplier

    def record(r, base, budget):
        seen.append((r.copy(), base.copy()))
        return search(r, base, budget)

    with monkeypatch.context() as mp:
        mp.setattr(optim, "_multiplier", record)
        for m, n in _CELLS:
            cfg = SystemConfig(M=m, N=n)
            budget = transmit_power_from_dbm(30.0, cfg)
            for trial in range(2):
                optim.dinkelbach_ee(channel.generate(cfg, 5, trial), cfg,
                                    budget)
    assert len(seen) >= 40
    for r, base in seen:
        _check_multiplier(r, base)


def test_multiplier_matches_bisection_on_synthetic_spectra():
    """One mode, where the secular form is linear, and modes whose base
    spans 24 orders."""
    rng = np.random.default_rng(3)
    base = np.geomspace(1e-12, 1e12, 25)
    _check_multiplier(np.array([2.0]), np.array([3.0]))
    _check_multiplier(rng.uniform(0.5, 2.0, base.size) * base, base)
    _check_multiplier(rng.uniform(0.5, 2.0, base.size), base)


def test_beam_step_matches_bisection_reference(monkeypatch):
    """Swapping the bisection back in moves the beamformers by no more
    than the power tolerance allows."""
    for m, n in _CELLS:
        cfg = SystemConfig(M=m, N=n)
        pm = derive_power_model(cfg)
        budget = transmit_power_from_dbm(30.0, cfg)
        h = channel.generate(cfg, 7, 0).h
        b0 = beamform.mrt(_fixed(h)) * math.sqrt(budget / cfg.N)
        d, sig, inter = beamform.link_gains(h, b0)
        u, w = d / (inter + pm.n0 + sig), 1.0 + sig / (inter + pm.n0)
        for ridge in (0.0, 1e-3 / budget):
            free = optim._beam_step(h, u, w, math.inf, ridge)
            p_free = float(np.sum(np.abs(free) ** 2))
            for frac in (1e-3, 0.1, 0.5):
                new = optim._beam_step(h, u, w, frac * p_free, ridge)
                with monkeypatch.context() as mp:
                    mp.setattr(optim, "_multiplier", _bisect_multiplier)
                    ref = optim._beam_step(h, u, w, frac * p_free, ridge)
                np.testing.assert_allclose(new, ref, rtol=1e-8, atol=0.0)


def test_rescale_accepts_a_rounding_excess_over_the_budget():
    """A beam step that keeps mu = 0 may leave the power a rounding
    excess above the budget; the power-scale step must still lower the
    power when the regularized objective peaks well below it."""
    cfg = SystemConfig(M=3, N=3)
    pm = derive_power_model(cfg)
    h = channel.generate(cfg, 3, 0).h
    b = beamform.rzf(_fixed(h), 1e-3) * math.sqrt(1e-6)
    psum = float(np.sum(np.abs(b) ** 2))
    ridge = 10.0 / psum                       # peak far below psum
    for budget in (psum, psum * (1.0 - 1e-13)):
        scaled = optim._rescale(h, b, pm.n0, budget, ridge)
        assert float(np.sum(np.abs(scaled) ** 2)) < 0.5 * psum


def test_wmmse_orthogonal_matches_power_filling():
    """Orthogonal users decouple into a scalar power split; compare the
    achieved sum rate against a dense scan of that split."""
    cfg = normalized_config(2, 2, 13.0)
    ch = _fixed([[2.0, 0.0], [0.0, 1.0]])
    budget = 2.0
    res = optim.wmmse(ch, cfg, budget, tol=1e-10)
    p1 = np.linspace(0.0, budget, 100001)
    grid_best = float(np.max(np.log1p(4.0 * p1) + np.log1p(budget - p1)))
    assert res.sum_rate >= grid_best - 1e-6
    assert res.sum_rate <= grid_best + 1e-4


def test_wmmse_monotone_feasible_and_beats_its_start(cfg3):
    """Ascent never falls below the starting point's rate: a default run
    must beat equal-power maximum ratio (its own start), and a run warm
    started from the regularized inverse must beat both one-shot schemes
    on essentially every draw at a power deep in the saturation regime."""
    pm = derive_power_model(cfg3)
    budget = 2.4e-8
    wins = 0
    for trial in range(50):
        ch = channel.generate(cfg3, 19, trial)
        res = optim.wmmse(ch, cfg3, budget)
        assert res.converged
        hist = res.objective_history
        slack = 1e-9 * max(1.0, float(np.max(np.abs(hist))))
        assert float(np.min(np.diff(hist))) >= -slack
        assert hist[-1] == res.sum_rate
        assert res.p_sum <= budget * (1.0 + 1e-10)
        assert res.p_sum == pytest.approx(float(np.sum(np.abs(res.b) ** 2)),
                                          rel=1e-12)
        assert beamform.sum_rate(beamform.sinr(ch, res.b, pm.n0)) == (
            pytest.approx(res.sum_rate, rel=1e-12))

        scale = math.sqrt(budget / cfg3.N)
        mrt_rate = beamform.sum_rate(beamform.sinr(
            ch, beamform.mrt(ch) * scale, pm.n0))
        assert hist[0] == pytest.approx(mrt_rate, rel=1e-9)
        assert res.sum_rate >= mrt_rate * (1.0 - 1e-9)

        rzf_dirs = beamform.rzf(ch, beamform.mmse_loading_alpha(cfg3, budget))
        rzf_rate = beamform.sum_rate(beamform.sinr(
            ch, rzf_dirs * scale, pm.n0))
        warm = optim.wmmse(ch, cfg3, budget, init=rzf_dirs * scale)
        assert warm.sum_rate >= rzf_rate * (1.0 - 1e-9)
        if warm.sum_rate >= max(mrt_rate, rzf_rate) * (1.0 - 1e-9):
            wins += 1
    assert wins >= 48


def test_wmmse_rejects_bad_inputs(cfg3):
    ch = channel.generate(cfg3, 1, 0)
    with pytest.raises(ValueError):
        optim.wmmse(ch, cfg3, 0.0)
    with pytest.raises(ValueError):
        optim.wmmse(ch, cfg3, -1e-9)
    with pytest.raises(ValueError):
        optim.wmmse(ch, cfg3, 1e-8, init=np.ones((2, 5), dtype=complex))


# ------------------------------------------------------------ dinkelbach

def test_dinkelbach_structure(cfg3):
    budget = transmit_power_from_dbm(46.0, cfg3)
    for trial in range(10):
        ch = channel.generate(cfg3, 29, trial)
        res = optim.dinkelbach_ee(ch, cfg3, budget)
        assert res.converged
        assert abs(res.f_history[-1]) <= 1e-3
        lam = res.lambda_history
        assert lam[0] == 0.0
        assert float(np.min(np.diff(lam))) >= -1e-12 * lam[-1]
        f = res.f_history
        assert f[0] > 0.0
        assert np.all(np.diff(f) <= 1e-9 * f[0])
        ach = beamform.instantaneous_ee(ch, res.b, cfg3)
        assert res.lambda_star == pytest.approx(ach, rel=1e-9)
        assert float(np.sum(np.abs(res.b) ** 2)) <= budget * (1.0 + 1e-10)


def test_dinkelbach_single_user_closed_form():
    """One user admits an explicit efficiency-optimal power; the
    fractional program must land on it."""
    cfg = SystemConfig(M=4, N=1)
    pm = derive_power_model(cfg)
    for trial in range(12):
        ch = channel.generate(cfg, 17, trial)
        g = float(np.linalg.norm(ch.h[0]) ** 2)
        t = g * pm.Pconst / (pm.n0 * cfg.xi)
        p_star = pm.n0 / g * (math.exp(
            1.0 + lambert_w0((t - 1.0) / math.e)) - 1.0)
        ee_star = math.log1p(g * p_star / pm.n0) / (
            cfg.xi * p_star + pm.Pconst)
        res = optim.dinkelbach_ee(ch, cfg, 100.0 * p_star, delta=1e-6)
        assert res.converged
        assert float(np.sum(np.abs(res.b) ** 2)) == pytest.approx(p_star,
                                                                  rel=1e-4)
        assert res.lambda_star == pytest.approx(ee_star, rel=1e-9)


def test_dinkelbach_rejects_bad_budget(cfg3):
    ch = channel.generate(cfg3, 1, 0)
    with pytest.raises(ValueError):
        optim.dinkelbach_ee(ch, cfg3, 0.0)


def test_dinkelbach_upper_bounds_one_shot_scheme(cfg3):
    """The iterative baseline searches the power dimension the one-shot
    scheme fixes in advance, so per realization it can only do better;
    on average the one-shot scheme stays within a few percent."""
    budget = transmit_power_from_dbm(46.0, cfg3)
    band = satpower.compute_band(cfg3)
    prop_vals = []
    base_vals = []
    for trial in range(20):
        ch = channel.generate(cfg3, 37, trial)
        prop = beamform.instantaneous_ee(
            ch, satpower.proposed_scheme(ch, cfg3, budget, band), cfg3)
        base = optim.dinkelbach_ee(ch, cfg3, budget).lambda_star
        assert base >= prop * (1.0 - 1e-6)
        prop_vals.append(prop)
        base_vals.append(base)
    assert np.mean(prop_vals) >= 0.95 * np.mean(base_vals)
