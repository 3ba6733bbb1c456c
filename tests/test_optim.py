"""WMMSE block descent and the Dinkelbach efficiency baseline."""
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from saturee import beamform, channel, optim, satpower
from saturee.specfun import lambert_w0
from saturee.sysmodel import (SystemConfig, derive_power_model, load_config,
                              total_power, transmit_power_from_dbm)

from oracles import (beam_step, dinkelbach_one, dinkelbach_outer_loop,
                     instantaneous_ee, iterate_recomputing, multiplier,
                     normalized_config, proposed_one, rescale,
                     rescale_objective, rescale_step, rescale_tau, wmmse_one)


# ----------------------------------------------------------------- wmmse

def test_wmmse_single_user_closed_form():
    """One user: beam along the channel at full power, known rate."""
    cfg = SystemConfig(M=4, N=1)
    pm = derive_power_model(cfg)
    p = 1e-8
    for trial in range(5):
        h = channel.generate(cfg, 13, trial)
        res = wmmse_one(h, cfg, p)
        g = float(np.linalg.norm(h[0]) ** 2)
        assert res.converged
        assert res.state.iteration <= 3
        assert res.p_sum == pytest.approx(p, rel=1e-9)
        assert res.sum_rate == pytest.approx(math.log1p(g * p / pm.n0),
                                             rel=1e-9)
        align = abs(np.vdot(res.b[0], h[0])) / np.linalg.norm(res.b[0])
        assert align == pytest.approx(np.linalg.norm(h[0]), rel=1e-9)


def test_beam_step_keeps_mu_zero_at_a_rounding_excess():
    """From the MMSE-loaded RZF start on the 64x16 cell the unconstrained
    beam step meets the budget up to rounding; it must not pay for a
    multiplier search that moves mu off zero by a rounding-sized step."""
    cfg = SystemConfig(M=64, N=16)
    pm = derive_power_model(cfg)
    budget = transmit_power_from_dbm(46.0, cfg)
    for trial in range(5):
        h = channel.generate(cfg, 1, trial)
        b0 = beamform.rzf(h, beamform.mmse_loading_alpha(cfg, budget))
        d, sig, inter = beamform.link_gains(h, b0 * math.sqrt(budget / cfg.N))
        u, w = d / (inter + pm.n0 + sig), 1.0 + sig / (inter + pm.n0)
        free = beam_step(h, u, w, math.inf, 0.0)
        p_free = float(np.sum(np.abs(free) ** 2))
        assert abs(p_free - budget) <= 1e-12 * budget
        tight = min(budget, p_free * (1.0 - 1e-14))
        assert np.array_equal(beam_step(h, u, w, tight, 0.0), free)


def test_beam_step_shuts_off_a_user_with_zero_receive_gain():
    """A user whose receive gain u_k is zero carries no weight: its
    beamformer is zero, without a divide warning, and the others' are
    those of the cell without it."""
    cfg = SystemConfig(M=4, N=3)
    pm = derive_power_model(cfg)
    budget = transmit_power_from_dbm(30.0, cfg)
    h = channel.generate(cfg, 7, 0)
    d, sig, inter = beamform.link_gains(
        h, beamform.mrt(h) * math.sqrt(budget / cfg.N))
    u, w = d / (inter + pm.n0 + sig), 1.0 + sig / (inter + pm.n0)
    u[1] = 0.0
    keep = [0, 2]
    free = beam_step(h[keep], u[keep], w[keep], math.inf, 0.0)
    p_free = float(np.sum(np.abs(free) ** 2))
    for cap in (math.inf, 0.1 * p_free):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = beam_step(h, u, w, cap, 0.0)
        ref = beam_step(h[keep], u[keep], w[keep], cap, 0.0)
        assert np.all(b[1] == 0.0)
        np.testing.assert_allclose(b[keep], ref, rtol=1e-9,
                                   atol=1e-12 * float(np.max(np.abs(ref))))


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


def _one_multiplier(r, base, budget):
    """``optim._multiplier`` on one entry's modes, as a one-entry stack."""
    return optim._multiplier(r[:, None], base[:, None],
                             np.array([budget]))[0]


def _stacked_bisection(r, base, budget):
    """:func:`_bisect_multiplier` column by column, in the stacked
    signature of ``optim._multiplier``."""
    return np.array([_bisect_multiplier(r[:, e], base[:, e], budget[e])
                     for e in range(r.shape[1])])


def _check_multiplier(r, base):
    p0 = float(np.sum(r / base ** 2))
    for frac in np.geomspace(1e-3, 0.5, 5):
        budget = frac * p0
        mu = _one_multiplier(r, base, budget)
        p = float(np.sum(r / (base + mu) ** 2))
        assert p <= budget
        assert budget - p <= 1e-10 * budget
        assert mu == pytest.approx(_bisect_multiplier(r, base, budget),
                                   rel=1e-8)


def test_multiplier_matches_bisection_on_beam_steps(monkeypatch):
    """The Newton multiplier lands where the bisection did, on the feasible
    side within the power tolerance, for the beam steps of Dinkelbach
    solves (ridge zero on the first outer step, positive after).  Each
    entry of a recorded stack is checked on its own, masked tail
    included."""
    seen = []
    search = optim._multiplier

    def record(r, base, budget):
        seen.extend((r[:, e].copy(), base[:, e].copy())
                    for e in range(r.shape[1]))
        return search(r, base, budget)

    with monkeypatch.context() as mp:
        mp.setattr(optim, "_multiplier", record)
        for m, n in _CELLS:
            cfg = SystemConfig(M=m, N=n)
            budget = transmit_power_from_dbm(30.0, cfg)
            for trial in range(2):
                dinkelbach_one(channel.generate(cfg, 5, trial), cfg, budget)
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


def _check_stack_permutes(search, args, want):
    """A stacked search gives each entry the float loop's value (want)
    bit for bit, alone as well as in the stack, and permuting the
    stack's columns permutes its output exactly."""
    got = search(*args)
    assert np.array_equal(got, want)
    for e in range(len(want)):
        alone = search(*(a[..., e:e + 1] if np.ndim(a) else a
                         for a in args))
        assert np.array_equal(alone, want[e:e + 1])
    order = np.random.default_rng(9).permutation(len(want))
    shuffled = search(*(a[..., order] if np.ndim(a) else a for a in args))
    assert np.array_equal(shuffled, want[order])


@pytest.mark.parametrize("k", [1, 3, 16])
def test_stacked_multiplier_matches_float_loop(k):
    """The stacked multiplier search equals the per-entry float loop of
    tests/oracles.py bit for bit on stacks mixing ranks 0..K (the tail
    masked as the beam step masks it), entries the budget leaves at
    mu = 0 and budgets from a rounding excess to 1e-9 of the power.  At
    K >= 8 a one-entry stack is where a plain sum over the modes would
    go pairwise."""
    rng = np.random.default_rng(k)
    for _ in range(20):
        ranks = np.resize(np.arange(k + 1), 3 * (k + 1))
        size = ranks.size
        base = np.exp(rng.uniform(-30.0, 30.0, (k, size)))
        r = rng.uniform(0.5, 2.0, (k, size)) * base ** rng.uniform(
            0.0, 2.0, size)
        kept = np.arange(k)[:, None] < ranks
        r, base = np.where(kept, r, 0.0), np.where(kept, base, 1.0)
        p0 = np.sum(r / base ** 2, axis=0)
        frac = np.exp(rng.uniform(-21.0, 0.0, size))
        frac[::4] = 2.0                                   # mu = 0
        frac[1::7] = 1.0 + 0.5 * optim._ON_BUDGET_RTOL    # rounding excess
        budget = np.where(p0 > 0.0, frac * p0, 1.0)
        want = np.array([multiplier(r[:n, e], base[:n, e], budget[e])
                         for e, n in enumerate(ranks)])
        assert np.any(want == 0.0) and np.any(want > 0.0)
        _check_stack_permutes(optim._multiplier, (r, base, budget), want)


def test_beam_step_matches_bisection_reference(monkeypatch):
    """Swapping the bisection back in moves the beamformers by no more
    than the power tolerance allows."""
    for m, n in _CELLS:
        cfg = SystemConfig(M=m, N=n)
        pm = derive_power_model(cfg)
        budget = transmit_power_from_dbm(30.0, cfg)
        h = channel.generate(cfg, 7, 0)
        b0 = beamform.mrt(h) * math.sqrt(budget / cfg.N)
        d, sig, inter = beamform.link_gains(h, b0)
        u, w = d / (inter + pm.n0 + sig), 1.0 + sig / (inter + pm.n0)
        for ridge in (0.0, 1e-3 / budget):
            free = beam_step(h, u, w, math.inf, ridge)
            p_free = float(np.sum(np.abs(free) ** 2))
            for frac in (1e-3, 0.1, 0.5):
                new = beam_step(h, u, w, frac * p_free, ridge)
                with monkeypatch.context() as mp:
                    mp.setattr(optim, "_multiplier", _stacked_bisection)
                    ref = beam_step(h, u, w, frac * p_free, ridge)
                np.testing.assert_allclose(new, ref, rtol=1e-8, atol=0.0)


def test_rescale_accepts_a_rounding_excess_over_the_budget():
    """A beam step that keeps mu = 0 may leave the power a rounding
    excess above the budget; the power-scale step must still lower the
    power when the regularized objective peaks well below it."""
    cfg = SystemConfig(M=3, N=3)
    pm = derive_power_model(cfg)
    h = channel.generate(cfg, 3, 0)
    b = beamform.rzf(h, 1e-3) * math.sqrt(1e-6)
    psum = float(np.sum(np.abs(b) ** 2))
    ridge = 10.0 / psum                       # peak far below psum
    _, sig, inter = beamform.link_gains(h, b)
    for budget in (psum, psum * (1.0 - 1e-13)):
        assert rescale_step(sig, inter, psum, pm.n0, budget, ridge) < 0.5


@pytest.mark.parametrize("n, m", [(3, 3), (16, 64), (8, 2), (2, 8), (64, 64)])
def test_rescale_matches_numpy_reference(n, m, monkeypatch):
    """The power-scale step scores as high on the numpy-array objective
    as that objective's own golden-section argmax, to rounding, and never
    below tau = 1.  The ridge is scaled to the cell, so the optimum lands
    at the budget, near the start and far below it.  With the budget at
    the current power and a ridge below the rate's slope there (which
    falls to 1e-12 on the interference-limited 8x2 cell) the objective
    still rises at the budget, so the step takes it without a search;
    both branches run.

    tau itself is compared only through the objective: where the rate is
    interference-limited (8 users on 2 antennas) the objective is flat in
    tau to rounding over a relative width of 1e-5 and more, and both
    searches may stop anywhere in it."""
    searches = []
    golden = optim.golden_section_max

    def counted(*args, **kwargs):
        searches.append(args)
        return golden(*args, **kwargs)

    monkeypatch.setattr(optim, "golden_section_max", counted)
    cfg = SystemConfig(M=m, N=n)
    pm = derive_power_model(cfg)
    p = transmit_power_from_dbm(30.0, cfg)
    searched = {True: 0, False: 0}
    for trial in range(3):
        h = channel.generate(cfg, 11, trial)
        b = beamform.rzf(h, beamform.mmse_loading_alpha(cfg, p)) \
            * math.sqrt(p / n)
        _, sig, inter = beamform.link_gains(h, b)
        psum = float(np.sum(np.abs(b) ** 2))
        cases = [(4.0 * p, scale * n / p) for scale in (1e-3, 1.0, 1e3)]
        cases.append((psum, 1e-15 * n / p))
        for budget, ridge in cases:
            gain = rescale_objective(h, b, pm.n0, ridge)
            best = gain(rescale_tau(h, b, pm.n0, budget, ridge))
            before = len(searches)
            tau = rescale_step(sig, inter, psum, pm.n0, budget, ridge)
            searched[len(searches) > before] += 1
            if budget == psum:
                assert len(searches) == before
            assert gain(tau) >= best - 1e-14 * abs(best)
            assert gain(tau) >= gain(1.0)
    assert searched[True] > 0 and searched[False] > 0


@pytest.mark.parametrize("n", [1, 3, 16])
def test_stacked_rescale_matches_float_loop(n, monkeypatch):
    """The stacked power-scale step equals the per-entry float loop of
    tests/oracles.py bit for bit, alone, in a stack and permuted, on
    entries with no power, budgets below the power, budgets at the power
    to within an ulp (where numpy's log1p and the float loop's may
    disagree on whether tau beats 1), and slopes at the budget of both
    signs, so the golden-section search runs on some entries and not on
    others."""
    searches = []
    golden = optim.golden_section_max

    def counted(*args, **kwargs):
        searches.append(args)
        return golden(*args, **kwargs)

    monkeypatch.setattr(optim, "golden_section_max", counted)
    rng = np.random.default_rng(n)
    n0 = 1e-12
    size = 60
    for _ in range(10):
        sig = n0 * np.exp(rng.uniform(-5.0, 12.0, (n, size)))
        inter = n0 * np.exp(rng.uniform(-8.0, 8.0, (n, size)))
        inter[rng.uniform(size=(n, size)) < 0.2] = 0.0
        psum = np.exp(rng.uniform(-25.0, -15.0, size))
        psum[::10] = 0.0
        budget = psum * np.exp(rng.uniform(-1.0, 3.0, size))
        budget[1::10] *= 1e-3
        nudge = np.array([0.0, 1e-16, -1e-16, 2e-16, -1e-13, 1e-10])
        budget[2::3] = psum[2::3] * (1.0 + rng.choice(nudge, size // 3))
        budget[::10] = 1e-20
        ridge = (np.exp(rng.uniform(-3.0, 3.0, size)) * 10.0 ** rng.uniform(
            -3.0, 1.0, size) / np.where(psum > 0.0, psum, 1.0))
        want = np.array([rescale(sig[:, e], inter[:, e], psum[e], n0,
                                 budget[e], ridge[e]) for e in range(size)])
        before = len(searches)
        _check_stack_permutes(
            lambda *args: optim._rescale(args[0], args[1], args[2], n0,
                                         *args[3:]),
            (sig, inter, psum, budget, ridge), want)
        assert len(searches) > before
        assert np.any(want == 1.0) and np.any(want != 1.0)


def test_beam_step_searches_once_per_step(monkeypatch):
    """A stacked Dinkelbach solve runs one multiplier search per beam
    step and at most one power-scale step after it, each over the whole
    stack; a WMMSE solve, with no ridge, runs no power-scale step."""
    events = []

    def spy(name):
        inner = getattr(optim, name)

        def call(*args, **kwargs):
            events.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(optim, name, call)

    for name in ("_beam_step", "_multiplier", "_rescale"):
        spy(name)
    cfg = _STACK_CELLS["default"]()
    h, p = _stack_entries(cfg, (0.0, 24.0, 46.0))
    optim.dinkelbach_ee(h, cfg, p)
    # One letter per call: b(eam step), m(ultiplier), r(escale).
    calls = "".join(name[1] for name in events)
    assert re.fullmatch("(bmr?)+", calls) and calls.count("r") > 1
    events.clear()
    optim.wmmse(h, cfg, p)
    assert re.fullmatch("(bm)+", "".join(name[1] for name in events))


def _descent_coordinates(h: np.ndarray, b0: np.ndarray):
    """The channel and start the descent of ``optim._descend`` runs on,
    and its lift of a result back: for a wide cell the factor r^T of
    h^T = q r, the start projected by conj(q) and the lift by q^T, as
    the descent takes them; any other cell as it is."""
    n, m = h.shape
    if m <= n:
        return h, b0, lambda c: c
    q, r = np.linalg.qr(h.T)
    return r.T, b0 @ q.conj(), lambda c: c @ q.T


@pytest.mark.parametrize("n, m", [(3, 3), (16, 64), (8, 2), (2, 8)])
def test_iterate_matches_recomputing_reference(n, m):
    """The descent takes each iterate's link statistics once; the
    reference descent takes them afresh at every iterate.  Both take as
    many steps to the same objectives, at ridge zero and positive, and
    the Dinkelbach parameters match a replay on the reference.  The
    reference runs in the descent's own coordinates, so a wide cell's
    replay runs in its rows' span too (the agreement in full space is
    test_wide_cells_solve_in_row_space's)."""
    cfg = SystemConfig(M=m, N=n)
    pm = derive_power_model(cfg)
    p = transmit_power_from_dbm(30.0, cfg)
    for trial in range(2):
        h = channel.generate(cfg, 23, trial)
        b0 = beamform.rzf(h, beamform.mmse_loading_alpha(cfg, p)) \
            * math.sqrt(p / n)
        hr, c0, lift = _descent_coordinates(h, b0)
        for ridge in (0.0, 1e-3 * n / p, n / p):
            run = optim._descend(h[None], pm.n0, np.array([p]),
                                 np.array([ridge]), b0[None])
            c_ref, hist = iterate_recomputing(hr, pm.n0, p, ridge, c0)
            assert run.steps.tolist() == [len(hist) - 1]
            np.testing.assert_allclose(run.history, hist,
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(run.b[0], lift(c_ref), rtol=1e-12,
                                       atol=0.0)

        res = dinkelbach_one(h, cfg, p)
        lam, c = 0.0, c0
        for want in res.lambda_history:
            assert lam == pytest.approx(want, rel=1e-12, abs=0.0)
            c, _ = iterate_recomputing(hr, pm.n0, p, lam * cfg.xi, c)
            rate = beamform.sum_rate(beamform.sinr(hr, c, pm.n0))
            lam = rate / total_power(float(np.sum(np.abs(c) ** 2)), pm,
                                     cfg.xi)
        assert res.lambda_star == pytest.approx(lam, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, m", [(2, 8), (16, 64), (4, 64)])
def test_wide_cells_solve_in_row_space(n, m):
    """A wide cell's descent runs in its rows' span and lifts its result
    back: the beamformers lie in the span of the channel rows, rescoring
    them in full space gives the returned rate, power and efficiency, and
    they land where the reference descent on the full channel does.  Over
    these cases the worst relative gaps are 1.4e-15 of the norm off the
    span, 1.8e-13 on rescoring, and 4.0e-12 (a WMMSE rate) and 1.8e-14
    (an efficiency) to the full-space reference.

    From the MMSE-loaded RZF start at 46 dBm on the 64x16 cell, the first
    beam step in the span meets the budget to within the rounding excess
    the multiplier search ignores (at worst 1.1e-14 relative over these
    50 draws), so mu stays 0 there as in full space."""
    cfg = SystemConfig(M=m, N=n)
    pm = derive_power_model(cfg)
    for dbm in (30.0, 46.0):
        p = transmit_power_from_dbm(dbm, cfg)
        for trial in range(2):
            h = channel.generate(cfg, 31, trial)
            span = np.linalg.svd(h, full_matrices=False)[2]
            b_mrt = beamform.mrt(h) * math.sqrt(p / n)
            b_rzf = beamform.rzf(h, beamform.mmse_loading_alpha(cfg, p)) \
                * math.sqrt(p / n)
            runs = [(wmmse_one(h, cfg, p), b_mrt),
                    (wmmse_one(h, cfg, p, init=b_rzf), b_rzf),
                    (dinkelbach_one(h, cfg, p), b_rzf)]
            for res, b0 in runs:
                b = res.b
                off = b - (b @ span.conj().T) @ span
                assert np.linalg.norm(off) <= 1e-13 * np.linalg.norm(b)
                rate = beamform.sum_rate(beamform.sinr(h, b, pm.n0))
                p_sum = float(np.sum(np.abs(b) ** 2))
                if isinstance(res, optim.WmmseResult):
                    assert rate == pytest.approx(res.sum_rate, rel=1e-12)
                    assert p_sum == pytest.approx(res.p_sum, rel=1e-12)
                    _, hist = iterate_recomputing(h, pm.n0, p, 0.0, b0)
                    assert res.sum_rate == pytest.approx(hist[-1], rel=1e-9)
                    continue
                assert rate / total_power(p_sum, pm, cfg.xi) == (
                    pytest.approx(res.lambda_star, rel=1e-12))
                lam, b_ref = 0.0, b0
                for _ in res.lambda_history:
                    b_ref, _ = iterate_recomputing(h, pm.n0, p, lam * cfg.xi,
                                                   b_ref)
                    lam = instantaneous_ee(h, b_ref, cfg)
                assert res.lambda_star == pytest.approx(lam, rel=1e-9)

    cfg = SystemConfig(M=64, N=16)
    pm = derive_power_model(cfg)
    budget = transmit_power_from_dbm(46.0, cfg)
    for trial in range(50):
        h = channel.generate(cfg, 1, trial)
        b0 = beamform.rzf(h, beamform.mmse_loading_alpha(cfg, budget)) \
            * math.sqrt(budget / cfg.N)
        hr, c0, _ = _descent_coordinates(h, b0)
        d, sig, inter = beamform.link_gains(hr, c0)
        u, w = d / (inter + pm.n0 + sig), 1.0 + sig / (inter + pm.n0)
        free = beam_step(hr, u, w, math.inf, 0.0)
        p_free = float(np.sum(np.abs(free) ** 2))
        assert abs(p_free - budget) <= optim._ON_BUDGET_RTOL * budget
        assert np.array_equal(beam_step(hr, u, w, budget, 0.0), free)


def test_wmmse_orthogonal_matches_power_filling(monkeypatch):
    """Orthogonal users decouple into a scalar power split; compare the
    achieved sum rate against a dense scan of that split."""
    monkeypatch.setattr(optim, "_TOL", 1e-10)
    cfg = normalized_config(2, 2, 13.0)
    h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    budget = 2.0
    res = wmmse_one(h, cfg, budget)
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
        h = channel.generate(cfg3, 19, trial)
        res = wmmse_one(h, cfg3, budget)
        assert res.converged
        hist = res.objective_history
        slack = 1e-9 * max(1.0, float(np.max(np.abs(hist))))
        assert float(np.min(np.diff(hist))) >= -slack
        assert hist[-1] == res.sum_rate
        assert res.p_sum <= budget * (1.0 + 1e-10)
        assert res.p_sum == pytest.approx(float(np.sum(np.abs(res.b) ** 2)),
                                          rel=1e-12)
        assert beamform.sum_rate(beamform.sinr(h, res.b, pm.n0)) == (
            pytest.approx(res.sum_rate, rel=1e-12))

        scale = math.sqrt(budget / cfg3.N)
        mrt_rate = beamform.sum_rate(beamform.sinr(
            h, beamform.mrt(h) * scale, pm.n0))
        assert hist[0] == pytest.approx(mrt_rate, rel=1e-9)
        assert res.sum_rate >= mrt_rate * (1.0 - 1e-9)

        rzf_dirs = beamform.rzf(h, beamform.mmse_loading_alpha(cfg3, budget))
        rzf_rate = beamform.sum_rate(beamform.sinr(
            h, rzf_dirs * scale, pm.n0))
        warm = wmmse_one(h, cfg3, budget, init=rzf_dirs * scale)
        assert warm.sum_rate >= rzf_rate * (1.0 - 1e-9)
        if warm.sum_rate >= max(mrt_rate, rzf_rate) * (1.0 - 1e-9):
            wins += 1
    assert wins >= 48


def test_wmmse_rejects_bad_inputs(cfg3):
    h = channel.generate(cfg3, 1, 0)
    with pytest.raises(ValueError):
        wmmse_one(h, cfg3, 0.0)
    with pytest.raises(ValueError):
        wmmse_one(h, cfg3, -1e-9)
    with pytest.raises(ValueError):
        wmmse_one(h, cfg3, 1e-8, init=np.ones((2, 5), dtype=complex))


# ------------------------------------------------------------ dinkelbach

def test_dinkelbach_structure(cfg3):
    budget = transmit_power_from_dbm(46.0, cfg3)
    for trial in range(10):
        h = channel.generate(cfg3, 29, trial)
        res = dinkelbach_one(h, cfg3, budget)
        assert res.converged
        assert abs(res.f_history[-1]) <= 1e-3
        lam = res.lambda_history
        assert lam[0] == 0.0
        assert float(np.min(np.diff(lam))) >= -1e-12 * lam[-1]
        f = res.f_history
        assert f[0] > 0.0
        assert np.all(np.diff(f) <= 1e-9 * f[0])
        ach = instantaneous_ee(h, res.b, cfg3)
        assert res.lambda_star == pytest.approx(ach, rel=1e-9)
        assert float(np.sum(np.abs(res.b) ** 2)) <= budget * (1.0 + 1e-10)


def test_dinkelbach_single_user_closed_form(monkeypatch):
    """One user admits an explicit efficiency-optimal power; the
    fractional program must land on it."""
    monkeypatch.setattr(optim, "_DELTA", 1e-6)
    cfg = SystemConfig(M=4, N=1)
    pm = derive_power_model(cfg)
    for trial in range(12):
        h = channel.generate(cfg, 17, trial)
        g = float(np.linalg.norm(h[0]) ** 2)
        t = g * pm.Pconst / (pm.n0 * cfg.xi)
        p_star = pm.n0 / g * (math.exp(
            1.0 + lambert_w0((t - 1.0) / math.e)) - 1.0)
        ee_star = math.log1p(g * p_star / pm.n0) / (
            cfg.xi * p_star + pm.Pconst)
        res = dinkelbach_one(h, cfg, 100.0 * p_star)
        assert res.converged
        assert float(np.sum(np.abs(res.b) ** 2)) == pytest.approx(p_star,
                                                                  rel=1e-4)
        assert res.lambda_star == pytest.approx(ee_star, rel=1e-9)


def test_dinkelbach_rejects_bad_budget(cfg3):
    h = channel.generate(cfg3, 1, 0)
    with pytest.raises(ValueError):
        dinkelbach_one(h, cfg3, 0.0)


def test_dinkelbach_upper_bounds_one_shot_scheme(cfg3):
    """The iterative baseline searches the power dimension the one-shot
    scheme fixes in advance, so per realization it can only do better;
    on average the one-shot scheme stays within a few percent."""
    budget = transmit_power_from_dbm(46.0, cfg3)
    band = satpower.compute_band(cfg3)
    prop_vals = []
    base_vals = []
    for trial in range(20):
        h = channel.generate(cfg3, 37, trial)
        prop = instantaneous_ee(h, proposed_one(h, cfg3, budget, band).b,
                                cfg3)
        base = dinkelbach_one(h, cfg3, budget).lambda_star
        assert base >= prop * (1.0 - 1e-6)
        prop_vals.append(prop)
        base_vals.append(base)
    assert np.mean(prop_vals) >= 0.95 * np.mean(base_vals)


# ---------------------------------------------------------------- stacks

ROOT = Path(__file__).resolve().parent.parent
_STACK_CELLS = {
    "default": lambda: load_config(str(ROOT / "configs" / "default.json")),
    # More users than antennas: beam steps keep fewer modes than users.
    "3x6": lambda: SystemConfig(M=3, N=6),
    # Two modes for eight users, the widest gap of modes below users.
    "2x8": lambda: SystemConfig(M=2, N=8),
    "cell_64x16": lambda: load_config(
        str(ROOT / "perfbench" / "configs" / "cell_64x16.json")),
}


def _stack_entries(cfg, dbms):
    """Three draws times the budgets, in a shuffled entry order.  On the
    default cell, WMMSE from maximum-ratio starts on draw 9 shuts a user
    off: some of its beam steps keep two modes, not three."""
    pairs = [(t, transmit_power_from_dbm(d, cfg))
             for t in (8, 9, 10) for d in dbms]
    order = np.random.default_rng(5).permutation(len(pairs))
    pairs = [pairs[k] for k in order]
    h = np.stack([channel.generate(cfg, 1, t) for t, _ in pairs])
    return h, np.array([p for _, p in pairs])


def _check_stack(cfg, dbms):
    """Entry i of a stacked wmmse, dinkelbach_ee and proposed_scheme call
    equals the one-entry stack of entry i bit for bit, histories
    included; returns how many one-entry WMMSE solves converged or
    capped."""
    band = satpower.compute_band(cfg)
    h, p = _stack_entries(cfg, dbms)
    seen = {"capped": 0, "converged": 0}
    for solve, one_entry in (
            (lambda h, p: optim.wmmse(h, cfg, p), wmmse_one),
            (lambda h, p: satpower.proposed_scheme(h, cfg, p, band),
             lambda h, cfg, p: proposed_one(h, cfg, p, band))):
        stacked = solve(h, p)
        singles = [one_entry(h[i], cfg, p[i]) for i in range(len(p))]
        for i, one in enumerate(singles):
            assert np.array_equal(stacked.b[i], one.b)
            assert stacked.sum_rate[i] == one.sum_rate
            assert stacked.p_sum[i] == one.p_sum
            seen["converged" if one.converged else "capped"] += 1
        assert np.array_equal(stacked.objective_history, np.concatenate(
            [o.objective_history for o in singles]))
    stacked = optim.dinkelbach_ee(h, cfg, p)
    singles = [dinkelbach_one(h[i], cfg, p[i]) for i in range(len(p))]
    for i, one in enumerate(singles):
        assert np.array_equal(stacked.b[i], one.b)
        assert stacked.lambda_star[i] == one.lambda_star
    for key in ("lambda_history", "f_history"):
        assert np.array_equal(getattr(stacked, key), np.concatenate(
            [getattr(o, key) for o in singles]))
    return seen


@pytest.mark.parametrize("name", sorted(_STACK_CELLS))
def test_stacked_entries_match_single_solves(name, monkeypatch):
    """A stack of draws times budgets, entries in any order, solves each
    entry exactly as the single call does, also where the entries of one
    beam step keep different numbers of modes (default cell)."""
    cfg = _STACK_CELLS[name]()
    modes = []
    search = optim._multiplier

    def record(r, base, budget):
        modes.extend(np.count_nonzero(r, axis=0).tolist())
        return search(r, base, budget)

    monkeypatch.setattr(optim, "_multiplier", record)
    _check_stack(cfg, (0.0, 24.0, 46.0))
    if name == "default":
        assert min(modes) < max(modes) == 3


@pytest.mark.parametrize("name", ["default", "3x6"])
def test_stacked_entries_match_single_solves_when_capped(name, monkeypatch):
    """With the descent capped at a few beam steps, entries finish at
    different steps, some of them capped (on the 3x6 cell every WMMSE
    entry is), and each still matches its single solve."""
    monkeypatch.setattr(optim, "_MAX_ITER", 8)
    seen = _check_stack(_STACK_CELLS[name](), (-10.0, 10.0, 30.0, 46.0))
    assert seen["capped"] > 0
    assert seen["converged"] > 0 or name == "3x6"


@pytest.mark.parametrize("name", ["default", "3x6", "2x8"])
@pytest.mark.parametrize("caps", [None, (8, 3)],
                         ids=["uncapped", "capped"])
def test_dinkelbach_bookkeeping_matches_outer_float_loop(name, caps,
                                                         monkeypatch):
    """The array passes of a stacked Dinkelbach solve (the stop test,
    F(lam), the lam update, the restart and the removal of finished
    entries) give every entry the bits of a float loop over its outer
    steps (tests/oracles.py).  With the descent capped at 8 beam steps
    and 3 outer steps, entries stop on either cap or on |F(lam)|, at
    different steps of the stack."""
    if caps:
        monkeypatch.setattr(optim, "_MAX_ITER", caps[0])
        monkeypatch.setattr(optim, "_MAX_OUTER", caps[1])
    cfg = _STACK_CELLS[name]()
    h, p = _stack_entries(cfg, (0.0, 24.0, 46.0))
    res = optim.dinkelbach_ee(h, cfg, p)
    lams, fs, capped = [], [], 0
    for i in range(len(p)):
        b, lam, lam_i, f_i = dinkelbach_outer_loop(h[i], cfg, p[i])
        assert np.array_equal(res.b[i], b)
        assert res.lambda_star[i] == lam
        lams += lam_i
        fs += f_i
        capped += abs(f_i[-1]) > optim._DELTA
    assert np.array_equal(res.lambda_history, lams)
    assert np.array_equal(res.f_history, fs)
    assert res.converged is (capped == 0)
    assert capped > 0 if caps else capped == 0


def test_stacked_result_keeps_the_counter_contract(monkeypatch):
    """A benchmark counts per solver call: it reads not converged, adds
    state.iteration and takes len(lambda_history).  On a stacked result
    these are a Python bool that is False once any entry capped (so a
    capped entry is never averaged away), an int summing the entries'
    beam steps, and the entries' outer steps concatenated."""
    cfg = _STACK_CELLS["default"]()
    h, p = _stack_entries(cfg, (-10.0, 30.0))
    for cap, converged in ((optim._MAX_ITER, True), (8, False)):
        monkeypatch.setattr(optim, "_MAX_ITER", cap)
        stacked = optim.wmmse(h, cfg, p)
        singles = [wmmse_one(h[i], cfg, p[i]) for i in range(len(p))]
        assert stacked.converged is converged
        assert converged == all(one.converged for one in singles)
        assert type(stacked.state.iteration) is int
        assert stacked.state.iteration == sum(one.state.iteration
                                              for one in singles)
        stacked = optim.dinkelbach_ee(h, cfg, p)
        singles = [dinkelbach_one(h[i], cfg, p[i]) for i in range(len(p))]
        assert stacked.converged is all(one.converged for one in singles)
        assert len(stacked.lambda_history) == sum(
            len(one.lambda_history) for one in singles)


def test_stack_rejects_mismatched_budgets(cfg3):
    """The solvers take a stack of channels (E, N, M) and E budgets: a
    wrong count of budgets, a bad budget, a single (N, M) channel, a
    scalar budget for a stack and a start of the wrong shape raise."""
    h = np.stack([channel.generate(cfg3, 1, t) for t in range(3)])
    band = satpower.compute_band(cfg3)
    solvers = (lambda h, p: optim.wmmse(h, cfg3, p),
               lambda h, p: optim.dinkelbach_ee(h, cfg3, p),
               lambda h, p: satpower.proposed_scheme(h, cfg3, p, band))
    cases = ((h, np.full(2, 1e-8)), (h, np.array([1e-8, 0.0, 1e-8])),
             (h[0], 1e-8), (h[0], np.full(1, 1e-8)), (h, 1e-8))
    for solve in solvers:
        for channels, budgets in cases:
            with pytest.raises(ValueError):
                solve(channels, budgets)
    with pytest.raises(ValueError):
        optim.wmmse(h, cfg3, np.full(3, 1e-8), init=h[:2])
    with pytest.raises(ValueError):
        optim.wmmse(h, cfg3, np.full(3, 1e-8), init=h[0])
