"""Smoke test of the benchmark on a tiny workload.

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = Workload(name="tiny", kind="sweep", config="configs/default.json",
                trials=1, pmin_dbm=20.0, pmax_dbm=30.0,
                pstep_db=5.0, reaches=("harness.run_sweep", "optim.rzf",
                                       "satpower.lambert_w0"))


def _run(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "3",
                     "--seconds", "0.1", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_tiny_run_reports_every_contract_metric(monkeypatch, capsys, trace,
                                                section):
    code, result = _run(monkeypatch, capsys, TINY, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT[section]}
    for metric in CONTRACT[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_failed_check_counts_every_solve_and_exits_nonzero(monkeypatch,
                                                           capsys):
    monkeypatch.setattr(run, "check", lambda workload, seed, text: ["forced"])
    code, result = _run(monkeypatch, capsys, TINY, trace=0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["converged_frac"]["value"] == 0.0


def test_trace_guard_fails_on_an_unreached_binding(monkeypatch, capsys):
    bypassed = Workload(**{**TINY.__dict__, "name": "tiny-bypassed",
                           "reaches": ("beamform.mrt", "optim.no_such_name")})
    code, result = _run(monkeypatch, capsys, bypassed, trace=1)
    assert code == 1
    assert result["metrics"] == {}


def test_timings_are_scaled_by_host_speed():
    ref = run.hostspeed.REFERENCE_S
    ref_import = run.hostspeed.REFERENCE_IMPORT_S
    fast = run.Block(k=0, seed=1, trials=10, wall_s=1.0, cpu_s=1.0,
                     kernel_s=ref)
    slow = run.Block(k=0, seed=1, trials=10, wall_s=2.0, cpu_s=2.0,
                     kernel_s=2 * ref)
    readings = [run.end_to_end([block], [(0.5 * f, ref_import * f)], 1024)
                for block, f in ((fast, 1.0), (slow, 2.0))]
    (m_fast, x_fast), (m_slow, x_slow) = readings
    for name in ("setup_s", "trials_per_s", "cpu_s_per_trial"):
        assert m_slow[name][0] == pytest.approx(m_fast[name][0])
    assert x_slow["trials_per_s_raw"][0] == pytest.approx(
        x_fast["trials_per_s_raw"][0] / 2)
    slow.host_scaled = False
    unscaled, _ = run.end_to_end([slow], [(0.5, ref_import)], 1024)
    assert unscaled["trials_per_s"][0] == pytest.approx(5.0)


def _edit(text, scheme, p_dbm, column, factor):
    lines = []
    for line in text.splitlines():
        fields = line.split(",")
        if fields[:2] == [scheme, p_dbm]:
            fields[column] = repr(factor * float(fields[column]))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def test_output_check_accepts_reference_and_rejects_changes():
    workload = WORKLOADS["sweep-3x3"]
    text = workload.reference().read_text()
    assert check(workload, DEFAULT_SEED, text) == []
    # Invariants hold on every seed.
    weak = _edit(text, "proposed", "46", 4, 0.9)
    assert any("below 0.95" in p for p in check(workload, 2, weak))
    # The reference holds at the default seed only.
    drifted = _edit(text, "mrt_asym", "20", 2, 1.0 + 1e-6)
    assert check(workload, 2, drifted) == []
    assert any("reference" in p for p in check(workload, DEFAULT_SEED,
                                                drifted))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-3x3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "{" not in out.stdout
