"""Experiment runner: grids, row layout, determinism, CSV, CLI."""
import concurrent.futures
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from saturee import cli, harness, satpower
from saturee.harness import CSV_HEADER, EePoint, ExperimentSpec
from saturee.sysmodel import load_config, transmit_power_from_dbm

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
    and each draw pays for a single solve there."""
    cfg = load_config(DEFAULT_CONFIG)
    band = satpower.compute_band(cfg)
    solve = satpower.proposed_scheme
    solved_at = []

    def counted(ch, cfg, p, band):
        solved_at.append(p)
        return solve(ch, cfg, p, band)

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


def test_write_csv(tmp_path):
    pts = [EePoint(scheme="x", P_dbm=0.0, sum_rate=1.0, total_power=2.0,
                   ee=0.5, stderr=0.0, trials=1)]
    out = tmp_path / "rows.csv"
    harness.write_csv(pts, out)
    assert out.read_text() == harness.format_csv(pts)


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
