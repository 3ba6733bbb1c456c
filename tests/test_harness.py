"""Experiment runner: grids, row layout, determinism, CSV, CLI."""
import ast
import concurrent.futures
import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import saturee
from saturee import beamform, channel, cli, harness, optim, satpower
from saturee.harness import CSV_HEADER, EePoint, ExperimentSpec
from saturee.sysmodel import (SystemConfig, derive_power_model, load_config,
                              transmit_power_from_dbm, transmit_power_to_dbm)

import oracles
from oracles import dinkelbach_one

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEFAULT_CONFIG = str(CONFIG_DIR / "default.json")
CELL_64X16 = str(CONFIG_DIR.parent / "perfbench" / "configs"
                 / "cell_64x16.json")


@pytest.fixture
def normalized_config_file(tmp_path):
    """Unit-bandwidth, unit-noise system so budgets in dBm map to watts
    directly: 30 dBm -> 1 W/Hz."""
    path = tmp_path / "normalized.json"
    path.write_text(json.dumps({
        "M": 3, "N": 3, "W": 1.0, "T": 1.0,
        "noise_psd_dbm_per_hz": 30.0, "noise_figure_db": 0.0,
        "xi": 1.0, "Pc_prime_dbm": 30.0, "Po_prime_dbm": 40.0,
    }))
    return str(path)


def test_dbm_grid_counts():
    spec = ExperimentSpec(kind="toy")
    grid = harness.dbm_grid(spec)
    assert grid.shape == (29,)
    assert grid[0] == -10.0 and grid[-1] == 46.0
    single = ExperimentSpec(kind="toy", pmin_dbm=30.0, pmax_dbm=30.0)
    assert harness.dbm_grid(single).tolist() == [30.0]
    frac = ExperimentSpec(kind="toy", pmin_dbm=0.0, pmax_dbm=1.0,
                          pstep_db=0.4)
    assert harness.dbm_grid(frac).shape == (3,)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="banana")
    with pytest.raises(ValueError, match="at least one trial"):
        ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG, trials=0)
    with pytest.raises(ValueError, match="at least one worker"):
        ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG, workers=0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="toy", pmin_dbm=10.0, pmax_dbm=0.0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="toy", pstep_db=0.0)


@pytest.mark.parametrize("kind", ["sweep", "tradeoff", "saturation", "compare"])
def test_spec_needs_a_config_for_every_kind_but_toy(kind):
    """A spec without a config fails when it is built, not later inside
    load_config with a TypeError."""
    with pytest.raises(ValueError, match=f"{kind} needs a config file"):
        ExperimentSpec(kind=kind)


def test_run_toy_clamping():
    spec = ExperimentSpec(kind="toy", pmin_dbm=28.0, pmax_dbm=40.0,
                          pstep_db=2.0, p_static=1.0)
    points = harness.run_toy(spec)
    assert len(points) == 14
    p_sat = satpower.p_ee_toy(1.0)
    ee_sat = float(satpower.toy_ee(p_sat, 1.0))
    for full, clamped in zip(points[0::2], points[1::2]):
        assert full.scheme == "full" and clamped.scheme == "clamped"
        assert full.P_dbm == clamped.P_dbm
        for row in (full, clamped):
            assert row.ee == pytest.approx(row.sum_rate / row.total_power,
                                           rel=1e-12)
            assert row.trials == 0 and row.stderr == 0.0
        p = 10.0 ** ((full.P_dbm - 30.0) / 10.0)
        if p <= p_sat:
            assert clamped.ee == full.ee and clamped.sum_rate == full.sum_rate
        else:
            assert clamped.ee == pytest.approx(ee_sat, rel=1e-12)
            assert full.ee < clamped.ee
            assert full.sum_rate > clamped.sum_rate


def test_run_saturation_rows():
    spec = ExperimentSpec(kind="saturation", config_path=DEFAULT_CONFIG)
    rows = harness.run_saturation(spec)
    assert [r.scheme for r in rows] == [
        "p_lb", "p_rzf", "p_prop", "p_ub",
        "gamma_lb", "gamma_rzf", "gamma_se_est", "gamma_ub", "omega"]
    cfg = load_config(DEFAULT_CONFIG)
    band = satpower.compute_band(cfg)
    by_name = {r.scheme: r for r in rows}
    assert by_name["p_lb"].total_power == band.p_lb
    assert by_name["p_ub"].total_power == band.p_ub
    assert by_name["p_prop"].total_power == band.p_prop
    assert by_name["gamma_rzf"].ee == band.gamma_rzf
    assert by_name["omega"].ee == band.omega
    for name in ("p_lb", "p_rzf", "p_prop", "p_ub"):
        row = by_name[name]
        back = transmit_power_from_dbm(row.P_dbm, cfg)
        assert back == pytest.approx(row.total_power, rel=1e-9)
    assert (by_name["p_lb"].total_power < by_name["p_rzf"].total_power
            < by_name["p_ub"].total_power)


def test_run_tradeoff_structure(normalized_config_file):
    spec = ExperimentSpec(kind="tradeoff", config_path=normalized_config_file,
                          pmin_dbm=20.0, pmax_dbm=40.0, pstep_db=4.0,
                          trials=6, seed=3)
    points = harness.run_tradeoff(spec)
    assert len(points) == 18
    triples = [points[i:i + 3] for i in range(0, 18, 3)]
    prev_se = 0.0
    for lb, se, ub in triples:
        assert (lb.scheme, se.scheme, ub.scheme) == ("lb", "se_mc", "ub")
        assert lb.P_dbm == se.P_dbm == ub.P_dbm
        assert lb.trials == 0 and ub.trials == 0
        assert se.trials == 6 and se.stderr > 0.0
        assert lb.sum_rate < ub.sum_rate
        # the optimized rate clears the pessimistic envelope at every
        # budget; the interference-free ceiling only binds at high power
        assert se.sum_rate >= 1.02 * lb.sum_rate
        assert se.sum_rate > prev_se
        prev_se = se.sum_rate
    top = triples[-1]
    assert top[1].sum_rate <= 0.98 * top[2].sum_rate


def test_run_sweep_rows_and_determinism():
    spec = ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG,
                          pmin_dbm=30.0, pmax_dbm=32.0, pstep_db=2.0,
                          trials=3, seed=5)
    points = harness.run_sweep(spec)
    assert len(points) == 16
    order = ["mrt_mc", "mrt_asym", "lb", "noiui_mc", "ub", "rzf_asym",
             "proposed", "baseline"]
    assert [r.scheme for r in points[:8]] == order
    assert [r.scheme for r in points[8:]] == order
    mc_schemes = {"mrt_mc", "noiui_mc", "proposed", "baseline"}
    for row in points:
        assert row.ee == pytest.approx(row.sum_rate / row.total_power,
                                       rel=1e-12)
        if row.scheme in mc_schemes:
            assert row.trials == 3
        else:
            assert row.trials == 0 and row.stderr == 0.0
    again = harness.run_sweep(spec)
    assert again == points
    parallel = dataclasses.replace(spec, workers=2)
    assert (harness.format_csv(harness.run_sweep(parallel))
            == harness.format_csv(points))


def _inline_pool(monkeypatch) -> list[int]:
    """Replace the process pool by one that runs each chunk inline, so no
    process starts; returns the list its max_workers arguments go to."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_pool_gets_one_worker_per_chunk(monkeypatch):
    """A forking pool starts all of its processes at the first submit, so
    asking for more workers than trials must size it by the chunks that
    hold work."""
    spec = ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG,
                          pmin_dbm=30.0, pmax_dbm=32.0, trials=2, seed=5)
    serial = harness.format_csv(harness.run_sweep(spec))
    sizes = _inline_pool(monkeypatch)
    monkeypatch.setattr(harness.os, "sched_getaffinity",
                        lambda pid: set(range(64)), raising=False)
    wide = dataclasses.replace(spec, workers=64)
    assert harness.format_csv(harness.run_sweep(wide)) == serial
    assert sizes == [2]


@pytest.mark.parametrize("affinity, cores, pool",
                         [({0, 5, 7}, 64, 3), (None, 3, 3), (None, None, 1)])
def test_pool_gets_at_most_one_worker_per_core(affinity, cores, pool,
                                               monkeypatch):
    """More workers than cores size the pool by the CPUs the process may
    run on: its affinity set, not the machine's count, where the platform
    keeps one; else the machine's count, or one where that is unknown.
    The trials are still split into one chunk per worker, so the CSV
    bytes do not change."""
    spec = ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG,
                          pmin_dbm=30.0, pmax_dbm=32.0, trials=8, seed=5)
    serial = harness.format_csv(harness.run_sweep(spec))
    sizes = _inline_pool(monkeypatch)
    chunks = []
    trial_chunk = harness._trial_chunk

    def record(*args):
        chunks.append(args[-2:])
        return trial_chunk(*args)

    monkeypatch.setattr(harness, "_trial_chunk", record)
    if affinity is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: affinity)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
    many = dataclasses.replace(spec, workers=6)
    assert harness.format_csv(harness.run_sweep(many)) == serial
    assert sizes == [pool]
    assert len(chunks) == 6


def test_sweep_proposed_flat_above_p_prop(monkeypatch):
    """The one-shot scheme reads the budget only through min(p_prop,
    budget): its rows agree exactly at every budget at or above p_prop,
    and each draw pays for a single solved entry there."""
    cfg = load_config(DEFAULT_CONFIG)
    band = satpower.compute_band(cfg)
    solve = satpower.proposed_scheme
    solved_at = []

    def counted(h, cfg, p, band):
        solved_at.extend(np.broadcast_to(p, h.shape[:-2]).tolist())
        return solve(h, cfg, p, band)

    monkeypatch.setattr(satpower, "proposed_scheme", counted)
    spec = ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG,
                          pmin_dbm=20.0, pmax_dbm=30.0, pstep_db=2.0,
                          trials=2, seed=4)
    rows = [r for r in harness.run_sweep(spec) if r.scheme == "proposed"]
    above = [r for r in rows
             if transmit_power_from_dbm(r.P_dbm, cfg) >= band.p_prop]
    assert 2 <= len(above) < len(rows)
    for row in above[1:]:
        assert (row.sum_rate, row.ee, row.stderr) == (
            above[0].sum_rate, above[0].ee, above[0].stderr)
    below = len(rows) - len(above)
    assert len(solved_at) == spec.trials * (below + 1)
    assert sorted(set(solved_at)) == sorted(
        min(band.p_prop, transmit_power_from_dbm(r.P_dbm, cfg))
        for r in rows[:below + 1])


def _slack(p_sum, budget):
    return p_sum < budget * (1.0 - harness._SLACK_RTOL)


def _cold_baseline(cell, h, p):
    """One Dinkelbach solve of a single draw and budget, scored as the
    harness scores it: (sum rate, sum power, slack)."""
    b = dinkelbach_one(h, cell.cfg, p).b
    power = float(np.sum(np.abs(b) ** 2))
    return (beamform.sum_rate(beamform.sinr(h, b, cell.pm.n0)), power,
            _slack(power, p))


def _count_baseline_entries(monkeypatch, cfg, seed, trials):
    """Record the (trial, budget) entries of every baseline solve call, a
    list per call in stack order."""
    draws = {channel.generate(cfg, seed, t).tobytes(): t
             for t in range(trials)}
    solve = optim.dinkelbach_ee
    solved = []

    def counted(h, cfg, p):
        solved.append(list(zip((draws[g.tobytes()] for g in h),
                               np.broadcast_to(p, h.shape[:-2]).tolist())))
        return solve(h, cfg, p)

    monkeypatch.setattr(optim, "dinkelbach_ee", counted)
    return solved


def test_sweep_baseline_flat_past_first_slack_budget(monkeypatch):
    """A baseline solution that leaves its budget slack answers for every
    larger budget of its draw.  Each draw solves a prefix of the grid:
    the budgets up to the first above p_ub in the first wave, then one
    at a time until a solution is slack.  The rows agree exactly from
    the first slack budget on."""
    cfg = load_config(DEFAULT_CONFIG)
    band = satpower.compute_band(cfg)
    spec = ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG,
                          pmin_dbm=20.0, pmax_dbm=34.0, pstep_db=2.0,
                          trials=2, seed=4)
    p_list = [transmit_power_from_dbm(d, cfg) for d in harness.dbm_grid(spec)]
    solved = _count_baseline_entries(monkeypatch, cfg, spec.seed,
                                     spec.trials)
    rows = [r for r in harness.run_sweep(spec) if r.scheme == "baseline"]
    monkeypatch.undo()
    wave = next(k for k, p in enumerate(p_list) if p > band.p_ub)
    cell = harness._Cell(cfg, derive_power_model(cfg), band)
    firsts = []
    for t in range(spec.trials):
        budgets = [p for call in solved for trial, p in call if trial == t]
        assert budgets == p_list[:len(budgets)]
        h = channel.generate(cfg, spec.seed, t)
        slack = [_cold_baseline(cell, h, p)[2] for p in budgets]
        assert slack[-1] or len(budgets) == wave + 1
        firsts.append(slack.index(True))
        assert len(budgets) == max(wave, firsts[-1]) + 1
    first = max(firsts)
    assert 1 <= first < len(rows) - 2
    for row in rows[first + 1:]:
        assert (row.sum_rate, row.total_power, row.ee, row.stderr) == (
            rows[first].sum_rate, rows[first].total_power, rows[first].ee,
            rows[first].stderr)


@pytest.mark.parametrize("name", ["default", "high_power"])
def test_baseline_reuse_matches_cold_solves(name, monkeypatch):
    """Every budget up to a draw's first slack one gets the cold solve's
    point bit for bit; every budget past it is answered from the slack
    solution without a solve of its own beyond the first wave, and
    agrees with a cold solve there: the efficiency to 1e-9 and the sum
    rate to 1e-5 relative (the operating point slides along a flat
    ridge).

    The first solve call stacks every draw's budgets up to the first
    above p_ub, draw-major; each later call stacks the next budget of
    every draw without a slack solution yet, in draw order.  With p_ub
    moved down to p_lb the first wave ends before any slack solution,
    and the later waves give the same points."""
    path = str(CONFIG_DIR / f"{name}.json")
    cfg = load_config(path)
    band = satpower.compute_band(cfg)
    cell = harness._Cell(cfg, derive_power_model(cfg), band)
    grid = harness.dbm_grid(ExperimentSpec(kind="sweep", config_path=path))
    p_list = np.array([transmit_power_from_dbm(d, cfg) for d in grid])
    trials, seed = 4, 7
    h = np.stack([channel.generate(cfg, seed, t) for t in range(trials)])
    colds = [[_cold_baseline(cell, h[t], p) for p in p_list]
             for t in range(trials)]
    firsts = [[slack for _, _, slack in cold].index(True) for cold in colds]
    for p_ub in (band.p_ub, band.p_lb):
        moved = dataclasses.replace(cell, band=dataclasses.replace(
            band, p_ub=p_ub))
        solved = _count_baseline_entries(monkeypatch, cfg, seed, trials)
        got = harness._baseline(moved, h, p_list)
        monkeypatch.undo()
        wave = int(np.argmax(p_list > p_ub))
        waves = [[(t, p) for t in range(trials) for p in p_list[:wave + 1]]]
        for k in range(wave + 1, p_list.size):
            waves.append([(t, p_list[k]) for t in range(trials)
                          if firsts[t] >= k])
        assert solved == [calls for calls in waves if calls]
        if p_ub == band.p_ub:
            rate, power = got
        else:
            assert len(solved) > 2
            assert np.array_equal(got, (rate, power))
    _, _, ee = harness._evaluate(cell, rate, power)
    reused = 0
    for t, (cold, first) in enumerate(zip(colds, firsts)):
        for k, (cold_rate, cold_power, _) in enumerate(cold):
            if k <= first:
                assert (rate[t, k], power[t, k]) == (cold_rate, cold_power)
                continue
            reused += 1
            _, _, cold_ee = harness._evaluate(cell, cold_rate, cold_power)
            assert ee[t, k] == pytest.approx(cold_ee, rel=1e-9, abs=0.0)
            assert rate[t, k] == pytest.approx(cold_rate, rel=1e-5, abs=0.0)
    assert reused > 0


@pytest.mark.parametrize("kind, name", [
    ("sweep", "default"), ("sweep", "high_power"), ("tradeoff", "default"),
    ("compare", "default")])
def test_csv_independent_of_draw_groups_and_waves(kind, name, monkeypatch):
    """Each entry of a stacked solve follows the single solve to the last
    bit, so the CSV bytes do not depend on how many draws one call
    stacks, nor on how the baseline's budgets are split into waves: a
    first wave of one budget, or of every budget (solving past each
    draw's first slack budget), gives the same rows as one that reaches
    just past p_ub."""
    spec = ExperimentSpec(kind=kind, trials=7, seed=3,
                          config_path=str(CONFIG_DIR / f"{name}.json"))
    want = harness.format_csv(harness.run(spec)[0])
    cfg = load_config(spec.config_path)
    budgets = 1 if kind == "compare" else harness.dbm_grid(spec).size
    for group in (1, 3, 7):
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_STACK_CAP", group * budgets * cfg.N * cfg.M)
            assert harness._draw_group(cfg, budgets) == group
            assert harness.format_csv(harness.run(spec)[0]) == want
    band = satpower.compute_band
    for p_ub in (0.0, math.inf):
        with monkeypatch.context() as mp:
            mp.setattr(satpower, "compute_band", lambda cfg: (
                dataclasses.replace(band(cfg), p_ub=p_ub)))
            assert harness.format_csv(harness.run(spec)[0]) == want


def test_draw_group_counts_stacked_elements():
    """A group holds as many draws as fit harness._STACK_CAP channel
    elements, one entry per budget each: ten on a default-grid 64x16
    sweep, a whole compare block at 64x16 and a whole 100-trial sweep at
    3x3, and one draw where a single draw is over the cap."""
    wide, small = load_config(CELL_64X16), load_config(DEFAULT_CONFIG)
    assert harness._draw_group(wide, 29) == 10
    assert harness._draw_group(wide, 15) == 19
    assert harness._draw_group(wide, 1) >= 20
    assert harness._draw_group(small, 29) >= 100
    huge = SystemConfig(M=128, N=128)
    assert 29 * huge.N * huge.M > harness._STACK_CAP
    assert harness._draw_group(huge, 29) == 1


def _stacked_calls(monkeypatch):
    """Record the channel stack of every optim.wmmse and
    optim.dinkelbach_ee call as (solver name, elements)."""
    calls = []
    for name in ("wmmse", "dinkelbach_ee"):
        solve = getattr(optim, name)

        def counted(h, *args, _name=name, _solve=solve, **kwargs):
            calls.append((_name, h.size))
            return _solve(h, *args, **kwargs)
        monkeypatch.setattr(optim, name, counted)
    return calls


def test_compare_block_is_one_solver_call_per_arm(monkeypatch):
    """The 20 draws of a 64x16 compare block form one group, so each arm
    solves them in one stacked call.  The one-shot arm factors the wide
    cell before its WMMSE solve, which runs on the 16 x 16 effective
    channels."""
    calls = _stacked_calls(monkeypatch)
    harness.run(ExperimentSpec(kind="compare", config_path=CELL_64X16,
                               trials=20, seed=1))
    assert sorted(calls) == [("dinkelbach_ee", 20 * 64 * 16),
                             ("wmmse", 20 * 16 * 16)]


def test_sweep_stacks_stay_under_the_cap(monkeypatch):
    """No solver call of a default-grid 64x16 sweep stacks more channel
    elements than harness._STACK_CAP; 11 trials make a full group of 10
    draws and a group of one."""
    calls = _stacked_calls(monkeypatch)
    harness.run(ExperimentSpec(kind="sweep", config_path=CELL_64X16,
                               trials=11, seed=1))
    assert max(size for _, size in calls) <= harness._STACK_CAP
    # proposed stacks the same budgets for every draw.
    proposed = [size for name, size in calls if name == "wmmse"]
    assert proposed == [10 * proposed[1], proposed[1]]


@pytest.mark.parametrize("trials", [1, 2, 9, 200])
def test_mc_rows_match_exact_sums(trials):
    """Each budget's row holds the mean rate and efficiency over the trials
    and the standard error of the mean efficiency, here against sums by
    math.fsum; the trial counts cover numpy's 8-wide and 128-block
    pairwise sums.  One trial has no spread, and every row's total power
    is its sum rate over its efficiency."""
    rng = np.random.default_rng(trials)
    per_trial = rng.lognormal(size=(trials, 3, 2)) * [40.0, 3e6]
    grid = [-10.0, 18.0, 46.0]
    rows = harness._mc_rows("baseline", grid, per_trial)
    assert [(r.scheme, r.P_dbm, r.trials) for r in rows] == [
        ("baseline", d, trials) for d in grid]
    for row, values in zip(rows, np.moveaxis(per_trial, 1, 0)):
        rates, ees = values[:, 0].tolist(), values[:, 1].tolist()
        mean_ee = math.fsum(ees) / trials
        assert row.sum_rate == pytest.approx(math.fsum(rates) / trials,
                                             rel=1e-13)
        assert row.ee == pytest.approx(mean_ee, rel=1e-13)
        if trials == 1:
            assert row.stderr == 0.0
        else:
            var = math.fsum((x - mean_ee) ** 2 for x in ees) / (trials - 1)
            assert row.stderr == pytest.approx(math.sqrt(var / trials),
                                               rel=1e-13)
        assert row.total_power == row.sum_rate / row.ee


def test_compare_draws_each_trial_once(monkeypatch):
    """compare_schemes draws each trial's channel once for both schemes,
    outside their clocks, and its rows, which the report's means read,
    are those of one _trial_chunk call per scheme."""
    cfg = load_config(CELL_64X16)
    budget = transmit_power_from_dbm(46.0, cfg)
    draws = []
    generate = channel.generate

    def counted(*args):
        draws.append(args)
        return generate(*args)

    monkeypatch.setattr(channel, "generate", counted)
    trials = 23
    report, prop, base = harness.compare_schemes(cfg, 46.0, trials, 3)
    assert len(draws) == trials
    assert report.seconds_proposed > 0.0 and report.seconds_baseline > 0.0
    assert (report.mean_ee_proposed, report.mean_ee_baseline) == (prop.ee,
                                                                  base.ee)
    cell = harness._Cell(cfg, derive_power_model(cfg),
                         satpower.compute_band(cfg))
    for name, got in (("proposed", prop), ("baseline", base)):
        per_trial, seconds = harness._trial_chunk(cell, [name], (budget,),
                                                  3, 0, trials)
        assert list(seconds) == [name]
        assert got == harness._mc_rows(name, [report.budget_dbm],
                                       per_trial[name])[0]


def test_run_compare_report():
    spec = ExperimentSpec(kind="compare", config_path=DEFAULT_CONFIG,
                          pmax_dbm=40.0, trials=5, seed=7)
    points, report = harness.run_compare(spec)
    assert [r.scheme for r in points] == ["proposed", "baseline"]
    assert all(r.P_dbm == 40.0 and r.trials == 5 for r in points)
    assert report.budget_dbm == 40.0
    assert 0.8 < report.ee_ratio < 1.001
    assert report.mean_ee_proposed == points[0].ee
    assert report.mean_ee_baseline == points[1].ee
    assert report.speedup > 1.5
    text = harness.describe_report(report, False)
    assert "mean EE" in text and "speedup" in text


def test_compare_carries_budget_as_given():
    """compare_schemes takes its budget in dBm and reports that figure; a
    dBm -> W/Hz -> dBm round trip moves this one in its last bit."""
    dbm = -29.845363383139816
    cfg = load_config(DEFAULT_CONFIG)
    assert transmit_power_to_dbm(transmit_power_from_dbm(dbm, cfg), cfg) != dbm
    report, prop, base = harness.compare_schemes(cfg, dbm, 2, 1)
    assert report.budget_dbm == prop.P_dbm == base.P_dbm == dbm


def test_format_csv_units_and_roundtrip():
    pts = [EePoint(scheme="x", P_dbm=30.0, sum_rate=2.0, total_power=4.0,
                   ee=0.5, stderr=0.25, trials=7)]
    nat = harness.format_csv(pts)
    lines = nat.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "x" and fields[6] == "7"
    assert [float(f) for f in fields[1:6]] == [30.0, 2.0, 4.0, 0.5, 0.25]
    bits = harness.format_csv(pts, bits=True).strip().split("\n")[1].split(",")
    ln2 = math.log(2.0)
    assert float(bits[2]) == 2.0 / ln2
    assert float(bits[3]) == 4.0          # power is unit-independent
    assert float(bits[4]) == 0.5 / ln2
    assert float(bits[5]) == 0.25 / ln2


def test_cli_toy_stdout_and_file(tmp_path, capsys):
    rc = cli.main(["toy", "--pmin-dbm", "30", "--pmax-dbm", "30"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)
    assert "full,30" in captured.out

    out = tmp_path / "toy.csv"
    rc = cli.main(["toy", "--pmin-dbm", "30", "--pmax-dbm", "30",
                   "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert out.read_text().startswith(CSV_HEADER)


def test_cli_bits_scaling(capsys):
    rc = cli.main(["toy", "--pmin-dbm", "30", "--pmax-dbm", "30", "--bits"])
    assert rc == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    # at 30 dBm the toy transmit power is 1, so the rate is exactly
    # one bit once converted out of nats
    assert float(row[2]) == 1.0


@pytest.mark.parametrize("bits, unit", [([], "nat/J"), (["--bits"], "bit/J")],
                         ids=["nats", "bits"])
def test_cli_compare_report_follows_csv_units(bits, unit, capsys):
    """compare's printed mean EE is the CSV's ee column, in the CSV's
    unit, to the printed digits, and the report names that unit."""
    rc = cli.main(["compare", "--config", DEFAULT_CONFIG, "--trials", "3"]
                  + bits)
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    ee = {row.split(",")[0]: float(row.split(",")[4]) for row in out[1:3]}
    line = next(text for text in out if text.startswith("mean EE"))
    printed = dict(re.findall(r"(proposed|baseline)=(\S+)", line))
    assert f"[{unit}]" in line
    for scheme in ("proposed", "baseline"):
        assert printed[scheme] == f"{ee[scheme]:.6e}"


def test_cli_defaults_come_from_spec():
    args = cli._build_parser().parse_args(["sweep", "--config", "X"])
    assert vars(args) == {"kind": "sweep", "config_path": "X"}
    assert ExperimentSpec(**vars(args)) == ExperimentSpec(kind="sweep",
                                                          config_path="X")


def test_cli_error_codes(tmp_path, capsys):
    assert cli.main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    assert cli.main(["toy", "--pmin-dbm", "10", "--pmax-dbm", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("option", ["--pmin-dbm", "--pmax-dbm", "--pstep-db"])
def test_cli_rejects_non_finite_power_grid(option, value, capsys):
    """A non-finite grid bound or step is a usage error (exit 2), not a
    crash in building the grid."""
    assert cli.main(["toy", f"{option}={value}"]) == 2
    assert "finite" in capsys.readouterr().err


def test_spec_caps_grid_size(monkeypatch, capsys):
    """A step so fine that the grid would hold billions of budgets is a
    usage error (exit 2), raised before any grid is built."""
    def no_grid(spec):
        raise AssertionError("the grid was built")
    monkeypatch.setattr(harness, "dbm_grid", no_grid)
    assert cli.main(["toy", "--pmin-dbm", "0", "--pmax-dbm", "1",
                     "--pstep-db", "1e-9"]) == 2
    assert "more than 10000 budgets" in capsys.readouterr().err
    monkeypatch.undo()
    top = ExperimentSpec(kind="toy", pmin_dbm=0.0, pmax_dbm=9999.0,
                         pstep_db=1.0)
    assert harness.dbm_grid(top).shape == (harness.MAX_BUDGETS,)
    for pmin, pmax in ((0.0, 10_000.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="budgets"):
            ExperimentSpec(kind="toy", pmin_dbm=pmin, pmax_dbm=pmax,
                           pstep_db=1.0)


@pytest.mark.parametrize("kind", ["sweep", "tradeoff", "compare", "toy"])
def test_cli_rejects_budget_past_float_range(kind, capsys):
    """A finite dBm budget whose power overflows is a usage error (exit 2)
    that names the budget, not a warning followed by inf or nan rows."""
    args = [kind, "--pmax-dbm", "4000"]
    if kind != "compare":
        args += ["--pmin-dbm", "0", "--pstep-db", "2000"]
    if kind != "toy":
        args += ["--config", DEFAULT_CONFIG, "--trials", "1"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "4000" in captured.err and captured.out == ""


@pytest.mark.parametrize("dbm", ["3000", "-4000"])
@pytest.mark.parametrize("kind", ["sweep", "tradeoff", "compare"])
def test_cli_rejects_budget_outside_snr_range(kind, dbm, capsys):
    """A finite budget whose transmit SNR overflows (3000 dBm) or
    underflows to zero (-4000 dBm) is a usage error (exit 2) naming the
    budget, not a solver crash or a message about a 0 W/Hz power."""
    args = [kind, "--config", DEFAULT_CONFIG, "--pmax-dbm", dbm, "--trials", "1"]
    if kind != "compare":
        args += ["--pmin-dbm", dbm]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert f"{dbm}.0 dBm" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind, dbm, scheme", [("tradeoff", "-1900", "se_mc"),
                                               ("compare", "2000", "baseline")])
def test_cli_zero_mean_efficiency_is_numerical_error(kind, dbm, scheme, capsys):
    """Budgets inside the SNR range at which the solvers return zero
    beamformers give a zero mean efficiency: a numerical failure (exit 3)
    naming the scheme and the budget, not a traceback or a NaN row."""
    args = [kind, "--config", DEFAULT_CONFIG, "--pmax-dbm", dbm, "--trials", "2"]
    if kind != "compare":
        args += ["--pmin-dbm", dbm]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical error: {scheme} ")
    assert f"at {dbm}.0 dBm" in captured.err and captured.out == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_float_overflow_is_numerical_error(workers, capsys):
    """A budget whose baseline solve overflows a float is a numerical
    failure (exit 3), in a worker process too, not a warning followed by
    a meaningless row."""
    args = ["sweep", "--config", DEFAULT_CONFIG, "--pmin-dbm", "1800",
            "--pmax-dbm", "1800", "--trials", "2", "--workers", workers]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical error: overflow encountered")
    assert captured.out == ""


def test_compare_warms_both_arms_once_per_process(monkeypatch):
    """The first compare of a process solves both arms on its first draw
    before the clocks start, so the arm that runs first does not pay the
    process's one-time costs alone; later calls solve only the timed
    draws, and the warm-up changes no row."""
    cfg = load_config(DEFAULT_CONFIG)
    calls = []

    def spy(module, name, arm):
        inner = getattr(module, name)

        def call(h, *args):
            calls.append((arm, len(h)))
            return inner(h, *args)
        monkeypatch.setattr(module, name, call)

    spy(satpower, "proposed_scheme", "proposed")
    spy(optim, "dinkelbach_ee", "baseline")
    monkeypatch.setattr(harness, "_warm", False)
    cold = harness.compare_schemes(cfg, 46.0, 3, 5)
    assert calls == [("proposed", 1), ("baseline", 1),
                     ("proposed", 3), ("baseline", 3)]
    calls.clear()
    warm = harness.compare_schemes(cfg, 46.0, 3, 5)
    assert calls == [("proposed", 3), ("baseline", 3)]
    assert cold[1:] == warm[1:]


def test_cli_compare_rejects_workers(capsys):
    """compare times its two arms in one process, so it takes no worker
    count: --workers is a usage error (exit 2) at any count, not a
    request quietly run on one.  A spec at the default single worker and
    grid, as the benchmark builds it, stands."""
    for workers in ("1", "3"):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["compare", "--config", DEFAULT_CONFIG, "--trials", "2",
                      "--workers", workers])
        assert exit_.value.code == 2
    assert capsys.readouterr().out == ""
    ExperimentSpec(kind="compare", config_path=DEFAULT_CONFIG, pmin_dbm=-10.0,
                   pstep_db=2.0, workers=1)


# Each subcommand's options besides --help.
_CLI_OPTIONS = {
    "sweep": {"--config", "--pmin-dbm", "--pmax-dbm", "--pstep-db", "--trials",
              "--seed", "--workers", "--out", "--bits"},
    "saturation": {"--config", "--out", "--bits"},
    "compare": {"--config", "--pmax-dbm", "--trials", "--seed", "--out",
                "--bits"},
    "toy": {"--pmin-dbm", "--pmax-dbm", "--pstep-db", "--pstatic", "--out",
            "--bits"},
}
_CLI_OPTIONS["tradeoff"] = _CLI_OPTIONS["sweep"]


@pytest.mark.parametrize("kind", sorted(_CLI_OPTIONS))
def test_cli_help_lists_the_options_the_kind_reads(kind, capsys):
    """Each subcommand's help lists the options of the fields it reads,
    plus --out and --bits, and no other: 33 over the five."""
    with pytest.raises(SystemExit) as exit_:
        cli.main([kind, "--help"])
    assert exit_.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed - {"--help"} == _CLI_OPTIONS[kind]
    assert sum(map(len, _CLI_OPTIONS.values())) == 33


@pytest.mark.parametrize("kind, option", [
    *[("saturation", o) for o in ("--pmin-dbm", "--pmax-dbm", "--pstep-db",
                                  "--trials", "--seed", "--workers")],
    *[("compare", o) for o in ("--pmin-dbm", "--pstep-db", "--workers")],
    *[("toy", o) for o in ("--config", "--trials", "--seed", "--workers")]])
def test_cli_rejects_an_option_the_kind_does_not_read(kind, option, capsys):
    """An option its kind never reads is a usage error (exit 2) with
    nothing on stdout, even at the field's default value, not a setting
    quietly dropped."""
    args = [kind, option, "1"]
    if kind != "toy":
        args += ["--config", DEFAULT_CONFIG]
    with pytest.raises(SystemExit) as exit_:
        cli.main(args)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and option in captured.err


@pytest.mark.parametrize("kind, field, value", [
    ("saturation", "trials", 2), ("saturation", "pmin_dbm", 10.0),
    ("compare", "pstep_db", 0.0), ("compare", "workers", 3),
    ("toy", "config_path", "default.json"),
    ("toy", "seed", 3), ("toy", "workers", 2)])
def test_spec_rejects_an_unread_field_off_its_default(kind, field, value):
    """A spec that sets a field its kind does not read raises ValueError
    naming both; the same field at its default stands."""
    config = {} if kind == "toy" else {"config_path": DEFAULT_CONFIG}
    with pytest.raises(ValueError, match=f"{kind} does not read {field}"):
        ExperimentSpec(kind=kind, **config, **{field: value})
    default = ExperimentSpec.__dataclass_fields__[field].default
    ExperimentSpec(kind=kind, **config, **{field: default})


def test_cli_saturation_bits_leaves_omega_unscaled(capsys):
    """--bits turns the gamma rows' efficiencies into bit/J, but omega is
    a weight in [0, 1] and prints the same either way."""
    rows = {}
    for bits in ([], ["--bits"]):
        assert cli.main(["saturation", "--config", DEFAULT_CONFIG] + bits) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        rows[bool(bits)] = {line.split(",")[0]: line for line in lines}
    assert rows[True]["omega"] == rows[False]["omega"]
    ln2 = math.log(2.0)
    for name in ("gamma_lb", "gamma_rzf", "gamma_se_est", "gamma_ub"):
        nat, bit = (float(rows[b][name].split(",")[4]) for b in (False, True))
        assert bit == pytest.approx(nat / ln2, rel=1e-15)


@pytest.mark.parametrize("dbm, code",[("-20", 0), ("3000", 2), ("-4000", 2)])
def test_cli_compare_reads_the_top_budget_alone(dbm, code, capsys):
    """compare reads only --pmax-dbm, so a top budget below the default
    grid floor (-10 dBm) runs; one outside the SNR range is still a
    usage error naming the budget."""
    args = ["compare", "--config", DEFAULT_CONFIG, "--pmax-dbm", dbm,
            "--trials", "1"]
    assert cli.main(args) == code
    captured = capsys.readouterr()
    if code:
        assert f"{dbm}.0 dBm" in captured.err and captured.out == ""
    else:
        assert "budget: -20.00 dBm" in captured.out


def test_cli_sweep_massive_cell(tmp_path, capsys):
    """sweep on a 64-antenna, 4-user cell over the default grid exits 0:
    its RZF loadings fall near 1e-15, where the deterministic
    equivalents must stay positive and certified."""
    cfg = tmp_path / "cell.json"
    cfg.write_text('{"M": 64, "N": 4}')
    assert cli.main(["sweep", "--config", str(cfg), "--trials", "1"]) == 0
    assert capsys.readouterr().out.count("rzf_asym,") == 29


def test_cli_reaches_every_function(capsys, tmp_path):
    """Each def in the package is entered by one of the five subcommands,
    or by compare on a cell with more users than antennas, the only kind
    of cell that selects whom to serve: code that only the tests call
    belongs beside them, in tests/oracles.py."""
    package = Path(saturee.__file__).resolve().parent
    defs = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                defs.add((path.name, first, node.name))
    calls = set()

    def trace(frame, event, arg):
        code = frame.f_code
        calls.add((code.co_filename, code.co_firstlineno, code.co_name))

    # Each kind gets the options it reads of these.
    options = {"config_path": ["--config", DEFAULT_CONFIG],
               "pmin_dbm": ["--pmin-dbm", "20"], "pmax_dbm": ["--pmax-dbm", "46"],
               "pstep_db": ["--pstep-db", "13"], "trials": ["--trials", "2"]}
    overloaded = tmp_path / "overloaded.json"
    overloaded.write_text('{"M": 2, "N": 4}')
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [cli.main([kind] + [arg for field in reads
                                    for arg in options.get(field, [])])
                 for kind, reads in harness.KINDS.items()]
        codes.append(cli.main(["compare", "--config", str(overloaded),
                               "--trials", "2"]))
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [0] * (len(harness.KINDS) + 1)
    entered = {(Path(f).name, line, name) for f, line, name in calls
               if Path(f).resolve().parent == package}
    assert sorted(defs - entered) == []


@pytest.mark.parametrize("kind", ["saturation", "sweep", "compare"])
def test_cli_rejects_overflowing_circuit_to_noise_ratio(kind, tmp_path, capsys):
    """A cell whose t = M Pconst / (N n0 xi) overflows to inf is a config
    error (exit 2) that names t, like the t = 0 cell, not a numerical
    error from inside lambert_w0."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"M": 3, "N": 3, "Pc_prime_dbm": 3000.0,
                                "Po_prime_dbm": 3000.0}))
    trials = [] if kind == "saturation" else ["--trials", "1"]
    assert cli.main([kind, "--config", str(path)] + trials) == 2
    captured = capsys.readouterr()
    assert "t = inf" in captured.err and captured.out == ""


# A fixed grid over the configuration range (M, N, xi, Pc', Po' and, where
# not the default, further fields): overloaded, square, wide and massive
# cells, single-antenna and single-user ones, xi up to 1e6, circuit and
# static powers from -60 to 120 dBm, and the bandwidth, noise figure and
# beta off their defaults.
_RANGE = [
    (1, 1, 1.0, 30.0, 40.0, {}),
    (1, 16, 1e6, -60.0, -60.0, {}),
    (64, 1, 1.0, 120.0, 120.0, {}),
    (64, 16, 1e3, 100.0, 120.0, {}),
    (2, 8, 4.0, -60.0, 120.0, {}),
    (3, 6, 1e6, 120.0, -60.0, {}),
    (8, 16, 1.0, 0.0, 0.0, {}),
    (16, 16, 30.0, 100.0, 120.0, {"noise_figure_db": 30.0}),
    (32, 2, 1e6, 70.0, 70.0, {}),
    (4, 1, 2.5, -30.0, 90.0, {}),
    (1, 4, 1.0, 60.0, -60.0, {}),
    (48, 12, 1.0, -60.0, -60.0, {}),
    (5, 3, 100.0, 40.0, 50.0, {}),
    (7, 11, 1.5, 90.0, 10.0, {}),
    (12, 16, 1e4, -20.0, 110.0, {}),
    (16, 4, 1.0, 30.0, 40.0, {"beta": 1e-3}),
    (8, 1, 1.0, 30.0, 40.0, {"beta": 0.5}),
    (24, 9, 3.0, 120.0, 120.0, {"W": 1e3}),
    (3, 3, 1e6, -60.0, 120.0, {"W": 1e9}),
    (10, 5, 1.0, 110.0, -40.0, {"beta": 100.0}),
    (2, 2, 7.0, 50.0, 0.0, {}),
    (40, 16, 1.2, -45.0, 75.0, {}),
    (6, 13, 20.0, 15.0, 100.0, {}),
    (1, 2, 1e5, 120.0, 60.0, {}),
]


@pytest.mark.parametrize("M, N, xi, pc, po, more", _RANGE,
                         ids=[f"{m}x{n}-xi{xi:g}-pc{pc:g}-po{po:g}"
                              for m, n, xi, pc, po, _ in _RANGE])
def test_cli_contract_over_the_configuration_range(M, N, xi, pc, po, more,
                                                   tmp_path, capsys):
    """saturation and a 2-trial compare on each config of the grid exit 0,
    2 (config error) or 3 (numerical error), the last two with a message
    on stderr; on exit 0 every row is finite.  No run warns, and the
    mean proposed efficiency stays at or below the mean of the
    interference-free bound on any linear beamformer over the same
    draws."""
    fields = dict(M=M, N=N, xi=xi, Pc_prime_dbm=pc, Po_prime_dbm=po, **more)
    header = CSV_HEADER.split(",")
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(fields))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for args in (["saturation"], ["compare", "--trials", "2"]):
            code = cli.main(args + ["--config", str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (args, code)
            if code:
                assert err.strip(), (args, code)
                continue
            rows = {}
            for line in out.splitlines()[1:]:
                cells = line.split(",")
                if len(cells) != len(header):
                    continue                # compare's timing note
                row = dict(zip(header[1:], map(float, cells[1:])))
                assert all(map(math.isfinite, row.values())), (args, line)
                rows[cells[0]] = row
            if args[0] == "compare":
                cfg = SystemConfig(**fields)
                budget = transmit_power_from_dbm(46.0, cfg)
                bound = np.mean([oracles.linear_ee_upper_bound(
                    channel.generate(cfg, 1, t), cfg, budget)
                    for t in range(2)])
                assert rows["proposed"]["ee"] <= bound * (1.0 + 1e-9)
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], caught
