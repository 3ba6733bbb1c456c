"""Experiment runner: grids, row layout, determinism, CSV, CLI."""
import ast
import concurrent.futures
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import saturee
from saturee import beamform, channel, cli, harness, optim, satpower
from saturee.harness import CSV_HEADER, EePoint, ExperimentSpec
from saturee.sysmodel import (derive_power_model, load_config,
                              transmit_power_from_dbm)

from oracles import dinkelbach_one

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEFAULT_CONFIG = str(CONFIG_DIR / "default.json")


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
    with pytest.raises(ValueError):
        ExperimentSpec(kind="toy", trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="toy", workers=0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="toy", pmin_dbm=10.0, pmax_dbm=0.0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="toy", pstep_db=0.0)


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


def test_pool_gets_one_worker_per_chunk(monkeypatch):
    """A forking pool starts all of its processes at the first submit, so
    asking for more workers than trials must size it by the chunks that
    hold work.  The pool here runs each chunk inline: no process starts."""
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

    spec = ExperimentSpec(kind="sweep", config_path=DEFAULT_CONFIG,
                          pmin_dbm=30.0, pmax_dbm=32.0, trials=2, seed=5)
    serial = harness.format_csv(harness.run_sweep(spec))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    wide = dataclasses.replace(spec, workers=64)
    assert harness.format_csv(harness.run_sweep(wide)) == serial
    assert sizes == [2]


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
    """Record the (trial, budget) of every entry the baseline solves."""
    draws = {channel.generate(cfg, seed, t).tobytes(): t
             for t in range(trials)}
    solve = optim.dinkelbach_ee
    solved = []

    def counted(h, cfg, p):
        solved.extend(zip((draws[g.tobytes()] for g in h),
                          np.broadcast_to(p, h.shape[:-2]).tolist()))
        return solve(h, cfg, p)

    monkeypatch.setattr(optim, "dinkelbach_ee", counted)
    return solved


def test_sweep_baseline_flat_past_first_slack_budget(monkeypatch):
    """A baseline solution that leaves its budget slack answers for every
    larger budget of its draw.  Each draw solves a prefix of the grid:
    the budgets up to the first above p_ub in the first wave, then one
    at a time until a solution is slack.  The rows agree exactly from
    the first slack budget on, and the rows do not depend on the order
    the budgets come in."""
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
        budgets = [p for trial, p in solved if trial == t]
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

    h = np.stack([channel.generate(cfg, spec.seed, t)
                  for t in range(spec.trials)])
    budgets = np.array(p_list)
    rate, power = harness._baseline(cell, h, budgets)
    shuffled = np.array([5, 0, 7, 2, 6, 1, 4, 3])
    again = harness._baseline(cell, h, budgets[shuffled])
    assert np.array_equal(again[0], rate[:, shuffled])
    assert np.array_equal(again[1], power[:, shuffled])


@pytest.mark.parametrize("name", ["default", "high_power"])
def test_baseline_reuse_matches_cold_solves(name, monkeypatch):
    """Every budget up to a draw's first slack one gets the cold solve's
    point bit for bit; every budget past it is answered from the slack
    solution without a solve of its own beyond the first wave, and
    agrees with a cold solve there: the efficiency to 1e-9 and the sum
    rate to 1e-5 relative (the operating point slides along a flat
    ridge)."""
    cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
    band = satpower.compute_band(cfg)
    cell = harness._Cell(cfg, derive_power_model(cfg), band)
    p_list = np.array([transmit_power_from_dbm(d, cfg) for d in
                       harness.dbm_grid(ExperimentSpec(kind="sweep"))])
    wave = int(np.argmax(p_list > band.p_ub))
    trials, seed = 4, 7
    solved = _count_baseline_entries(monkeypatch, cfg, seed, trials)
    h = np.stack([channel.generate(cfg, seed, t) for t in range(trials)])
    rate, power = harness._baseline(cell, h, p_list)
    monkeypatch.undo()
    _, _, ee = harness._evaluate(cell, rate, power)
    reused = 0
    for t in range(trials):
        cold = [_cold_baseline(cell, h[t], p) for p in p_list]
        first = [slack for _, _, slack in cold].index(True)
        assert (sorted(p for trial, p in solved if trial == t)
                == p_list[:max(wave, first) + 1].tolist())
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
    ("sweep", "default"), ("sweep", "high_power"), ("compare", "default")])
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
    for group in (1, 3):
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_DRAW_GROUP", group)
            assert harness.format_csv(harness.run(spec)[0]) == want
    band = satpower.compute_band
    for p_ub in (0.0, math.inf):
        with monkeypatch.context() as mp:
            mp.setattr(satpower, "compute_band", lambda cfg: (
                dataclasses.replace(band(cfg), p_ub=p_ub)))
            assert harness.format_csv(harness.run(spec)[0]) == want


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
    outside their clocks, and its per-trial arrays are those of one
    _trial_chunk call per scheme."""
    cfg = load_config(str(CONFIG_DIR.parent / "perfbench" / "configs"
                          / "cell_64x16.json"))
    budget = transmit_power_from_dbm(46.0, cfg)
    draws = []
    generate = channel.generate

    def counted(*args):
        draws.append(args)
        return generate(*args)

    monkeypatch.setattr(channel, "generate", counted)
    trials = 23
    report, prop, base = harness.compare_schemes(cfg, budget, trials, 3)
    assert len(draws) == trials
    assert report.seconds_proposed > 0.0 and report.seconds_baseline > 0.0
    cell = harness._Cell(cfg, derive_power_model(cfg),
                         satpower.compute_band(cfg))
    for name, got in (("proposed", prop), ("baseline", base)):
        per_trial, seconds = harness._trial_chunk(cell, [name], (budget,),
                                                  3, 0, trials)
        assert list(seconds) == [name]
        assert np.array_equal(got, per_trial[name][:, 0])


def test_run_compare_report():
    spec = ExperimentSpec(kind="compare", config_path=DEFAULT_CONFIG,
                          pmax_dbm=40.0, trials=5, seed=7)
    points, report = harness.run_compare(spec)
    assert [r.scheme for r in points] == ["proposed", "baseline"]
    assert all(r.P_dbm == 40.0 and r.trials == 5 for r in points)
    assert report.budget_dbm == pytest.approx(40.0, abs=1e-6)
    assert 0.8 < report.ee_ratio < 1.001
    assert report.mean_ee_proposed == points[0].ee
    assert report.mean_ee_baseline == points[1].ee
    assert report.speedup > 1.5
    text = harness.describe_report(report)
    assert "mean EE" in text and "speedup" in text


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
    args = [kind, "--pmin-dbm", "0", "--pmax-dbm", "4000",
            "--pstep-db", "2000", "--trials", "1"]
    if kind != "toy":
        args += ["--config", DEFAULT_CONFIG]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "4000" in captured.err and captured.out == ""


@pytest.mark.parametrize("dbm", ["3000", "-4000"])
@pytest.mark.parametrize("kind", ["sweep", "tradeoff", "compare"])
def test_cli_rejects_budget_outside_snr_range(kind, dbm, capsys):
    """A finite budget whose transmit SNR overflows (3000 dBm) or
    underflows to zero (-4000 dBm) is a usage error (exit 2) naming the
    budget, not a solver crash or a message about a 0 W/Hz power."""
    args = [kind, "--config", DEFAULT_CONFIG, "--pmin-dbm", dbm,
            "--pmax-dbm", dbm, "--trials", "1"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert f"{dbm}.0 dBm" in captured.err and captured.out == ""


@pytest.mark.parametrize("dbm, code", [("-20", 0), ("3000", 2), ("-4000", 2)])
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


def test_cli_reaches_every_function(capsys):
    """Each def in the package is entered by one of the five subcommands:
    code that only the tests call belongs beside them, in tests/oracles.py."""
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

    grid = ["--pmin-dbm", "20", "--pmax-dbm", "46", "--pstep-db", "13",
            "--trials", "2"]
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [cli.main([kind] + grid
                          + ([] if kind == "toy" else ["--config", DEFAULT_CONFIG]))
                 for kind in harness.KINDS]
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [0] * len(harness.KINDS)
    entered = {(Path(f).name, line, name) for f, line, name in calls
               if Path(f).resolve().parent == package}
    assert sorted(defs - entered) == []
