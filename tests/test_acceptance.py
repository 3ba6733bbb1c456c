"""End-to-end acceptance checks for the whole pipeline.

Each test records one PASS/FAIL line; conftest echoes the collected
checklist at the end of the run, so plain pytest doubles as a report.
"""
import math
import time
from pathlib import Path

import numpy as np

from saturee import asympt, beamform, channel, cli, harness, satpower
from saturee.scalar_opt import golden_section_max
from saturee.specfun import lambert_w0
from saturee.sysmodel import (SystemConfig, derive_power_model, load_config,
                              transmit_power_from_dbm, transmit_power_to_dbm)

from oracles import (dinkelbach_one, instantaneous_ee, normalized_config,
                     wmmse_one)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEFAULT_CONFIG = str(CONFIG_DIR / "default.json")
HIGH_CONFIG = str(CONFIG_DIR / "high_power.json")

RHO_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)


CHECKLIST: list[str] = []


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}"
    CHECKLIST.append(line)
    print(line)
    assert ok, line


def _random_cfg(rng) -> SystemConfig:
    return SystemConfig(
        M=int(rng.integers(1, 17)),
        N=int(rng.integers(1, 17)),
        xi=float(rng.uniform(1.0, 4.0)),
        Pc_prime_dbm=float(rng.uniform(20.0, 40.0)),
        Po_prime_dbm=float(rng.uniform(30.0, 50.0)),
        noise_figure_db=float(rng.uniform(0.0, 10.0)),
    )


def _mrt_equal_power_rate(h, cfg, p, n0) -> float:
    b = beamform.mrt(h) * math.sqrt(p / cfg.N)
    return beamform.sum_rate(beamform.sinr(h, b, n0))


def test_c01_lambert_identity_certified():
    tic = time.perf_counter()
    offsets = np.logspace(-9.0, math.log10(1e12 + 1.0 / math.e), 10_000)
    x = offsets - 1.0 / math.e
    w = np.array([lambert_w0(float(v)) for v in x])
    residual = np.abs(w * np.exp(w) - x) / np.maximum(1.0, np.abs(x))
    worst = float(np.max(residual))
    anchors = max(abs(lambert_w0(0.0)),
                  abs(lambert_w0(math.e) - 1.0),
                  abs(lambert_w0(-1.0 / math.e) + 1.0))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-12 and anchors <= 1e-10 and elapsed < 1.0
    _report("c01 lambert-identity", ok,
            f"worst residual {worst:.2e} (<=1e-12), anchors {anchors:.2e} "
            f"(<=1e-10), {elapsed:.2f}s (<1s)")


def test_c02_lower_envelope_peak_closed_form():
    tic = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        cfg = _random_cfg(rng)
        closed = satpower.p_lb(cfg)
        direct = golden_section_max(
            lambda p: float(asympt.ee_lower_bound(p, cfg)),
            1e-18, 1e-1, rel_tol=1e-8)
        worst = max(worst, abs(closed - direct) / direct)
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-3 and elapsed < 5.0
    _report("c02 lower-envelope-peak", ok,
            f"worst rel err {worst:.2e} (<=1e-3) over 50 configs, "
            f"{elapsed:.2f}s (<5s)")


def test_c03_upper_envelope_peak_closed_form():
    tic = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        cfg = _random_cfg(rng)
        closed = satpower.p_ub(cfg)
        direct = golden_section_max(
            lambda p: float(asympt.ee_upper_bound(p, cfg)),
            1e-18, 1e-1, rel_tol=1e-8)
        worst = max(worst, abs(closed - direct) / direct)
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-3 and elapsed < 5.0
    _report("c03 upper-envelope-peak", ok,
            f"worst rel err {worst:.2e} (<=1e-3) over 50 configs, "
            f"{elapsed:.2f}s (<5s)")


def test_c04_toy_peak_closed_form():
    worst = 0.0
    for p_static in np.logspace(-3.0, 3.0, 100):
        closed = satpower.p_ee_toy(float(p_static))
        direct = golden_section_max(
            lambda p: float(satpower.toy_ee(p, float(p_static))),
            1e-8, 1e6, rel_tol=1e-10)
        worst = max(worst, abs(closed - direct) / max(direct, 1e-300))
    unit_err = abs(satpower.p_ee_toy(1.0) - (math.e - 1.0))
    ok = worst <= 1e-6 and unit_err <= 1e-10
    _report("c04 toy-peak", ok,
            f"worst rel err {worst:.2e} (<=1e-6) over 100 static powers, "
            f"unit case err {unit_err:.2e} (<=1e-10)")


def test_c05_mrt_rate_large_system_accuracy():
    tic = time.perf_counter()
    trials = 1000
    worst = {}
    for dim, tol in ((3, 0.10), (32, 0.03)):
        cfg = normalized_config(dim, dim, dim + 1.0)
        pm = derive_power_model(cfg)
        worst_err = 0.0
        for rho in RHO_GRID:
            acc = 0.0
            for t in range(trials):
                h = channel.generate(cfg, 101, t)
                acc += _mrt_equal_power_rate(h, cfg, rho, pm.n0)
            mc = acc / (trials * cfg.N)
            asym = math.log1p(asympt.sinr_mrt_asymptotic(rho, cfg, pm.n0))
            worst_err = max(worst_err, abs(mc - asym) / asym)
        worst[dim] = (worst_err, tol)
    elapsed = time.perf_counter() - tic
    ok = all(err <= tol for err, tol in worst.values()) and elapsed < 120.0
    _report("c05 mrt-large-system", ok,
            f"worst rel err {worst[3][0]:.3f} at 3x3 (<=0.10), "
            f"{worst[32][0]:.3f} at 32x32 (<=0.03), 1000 trials, "
            f"{elapsed:.1f}s (<120s)")


def test_c06_rzf_deterministic_equivalent_accuracy():
    dim = 128
    cfg = normalized_config(dim, dim, dim + 2.0)
    pm = derive_power_model(cfg)
    worst = 0.0
    for i, rho in enumerate(RHO_GRID):
        alpha = beamform.mmse_loading_alpha(cfg, rho)
        h = channel.generate(cfg, 202, i)
        dirs = beamform.rzf(h, alpha)
        b = dirs * math.sqrt(rho / cfg.N)
        empirical = float(np.mean(beamform.sinr(h, b, pm.n0)))
        de = asympt.det_equiv_rzf(cfg, alpha)
        asym = asympt.sinr_rzf_asymptotic(rho, de, pm.n0)
        worst = max(worst, abs(empirical - asym) / asym)
    ok = worst <= 0.02
    _report("c06 rzf-deterministic-equivalent", ok,
            f"worst rel SINR err {worst:.4f} (<=0.02) at 128x128")


def test_c07_wmmse_ascent_and_mrt_dominance():
    cfg = load_config(DEFAULT_CONFIG)
    pm = derive_power_model(cfg)
    budget = transmit_power_from_dbm(30.0, cfg)
    trials = 200
    worst_dip = 0.0
    dominated = 0
    for t in range(trials):
        h = channel.generate(cfg, 303, t)
        res = wmmse_one(h, cfg, budget)
        hist = res.objective_history
        scale = max(1.0, float(np.max(np.abs(hist))))
        worst_dip = min(worst_dip, float(np.min(np.diff(hist))) / scale)
        mrt_rate = _mrt_equal_power_rate(h, cfg, budget, pm.n0)
        if res.sum_rate >= mrt_rate * (1.0 - 1e-9):
            dominated += 1
    ok = worst_dip >= -1e-9 and dominated >= int(0.95 * trials)
    _report("c07 wmmse-ascent", ok,
            f"worst objective dip {worst_dip:.2e} (>=-1e-9), beats "
            f"equal-power start on {dominated}/{trials} (>= {int(0.95 * trials)})")


def test_c08_dinkelbach_termination_and_flat_tail():
    cfg = load_config(DEFAULT_CONFIG)
    grid_dbm = [22.0, 26.0, 30.0, 34.0, 38.0, 42.0, 46.0]
    trials = 50
    bad_term = 0
    worst_lam_dip = 0.0
    worst_lam_err = 0.0
    means = []
    for d in grid_dbm:
        budget = transmit_power_from_dbm(d, cfg)
        acc = 0.0
        for t in range(trials):
            h = channel.generate(cfg, 404, t)
            res = dinkelbach_one(h, cfg, budget)
            if not (res.converged and abs(res.f_history[-1]) <= 1e-3):
                bad_term += 1
            lam = res.lambda_history
            if lam.size > 1:
                worst_lam_dip = min(
                    worst_lam_dip, float(np.min(np.diff(lam))) / lam[-1])
            ach = instantaneous_ee(h, res.b, cfg)
            worst_lam_err = max(worst_lam_err,
                                abs(res.lambda_star - ach) / ach)
            acc += res.lambda_star
        means.append(acc / trials)
    peak = int(np.argmax(means))
    tail = min((means[j] / means[peak] for j in range(peak, len(means))),
               default=1.0)
    ok = (bad_term == 0 and worst_lam_dip >= -1e-12
          and worst_lam_err <= 1e-6 and tail >= 0.99)
    _report("c08 dinkelbach-termination", ok,
            f"terminal |F|<=1e-3 on {trials * len(grid_dbm) - bad_term}/"
            f"{trials * len(grid_dbm)}, lambda dip {worst_lam_dip:.1e} "
            f"(>=-1e-12), lambda-vs-EE err {worst_lam_err:.1e} (<=1e-6), "
            f"post-peak floor {tail:.5f} (>=0.99)")


def test_c09_saturation_band_brackets_baseline_onset():
    trials = 60
    details = []
    ok = True
    for config_path, lo, hi in ((DEFAULT_CONFIG, 14.0, 32.0),
                                (HIGH_CONFIG, 24.0, 42.0)):
        cfg = load_config(config_path)
        band = satpower.compute_band(cfg)
        ok = ok and band.p_lb <= band.p_prop <= band.p_ub
        grid = np.arange(lo, hi + 1e-9, 2.0)
        means = []
        for d in grid:
            budget = transmit_power_from_dbm(float(d), cfg)
            acc = 0.0
            for t in range(trials):
                h = channel.generate(cfg, 505, t)
                acc += dinkelbach_one(h, cfg, budget).lambda_star
            means.append(acc / trials)
        plateau = means[-1]
        onset = next(float(d) for d, m in zip(grid, means)
                     if m >= 0.99 * plateau)
        lb_dbm = transmit_power_to_dbm(band.p_lb, cfg)
        ub_dbm = transmit_power_to_dbm(band.p_ub, cfg)
        ok = ok and lb_dbm <= onset <= ub_dbm
        details.append(f"onset {onset:.0f} dBm in "
                       f"[{lb_dbm:.1f}, {ub_dbm:.1f}] dBm")
    _report("c09 saturation-band-brackets", ok, "; ".join(details))


def test_c10_one_shot_matches_baseline_efficiency():
    tic = time.perf_counter()
    worst = 1.0
    for pc, po in ((30.0, 40.0), (40.0, 50.0)):
        for dim in (2, 3, 4):
            cfg = SystemConfig(M=dim, N=dim, Pc_prime_dbm=pc,
                               Po_prime_dbm=po)
            budget = transmit_power_from_dbm(46.0, cfg)
            report, _, _ = harness.compare_schemes(cfg, budget, 200, 606)
            worst = min(worst, report.ee_ratio)
    elapsed = time.perf_counter() - tic
    ok = worst >= 0.95 and elapsed < 600.0
    _report("c10 one-shot-fidelity", ok,
            f"worst mean-EE ratio {worst:.4f} (>=0.95) over six setups, "
            f"200 trials each, {elapsed:.0f}s (<600s)")


def test_c11_one_shot_speedup():
    cfg = load_config(DEFAULT_CONFIG)
    budget = transmit_power_from_dbm(46.0, cfg)
    report, _, _ = harness.compare_schemes(cfg, budget, 60, 707)
    ok = report.speedup >= 3.0
    _report("c11 one-shot-speedup", ok,
            f"wall-clock speedup {report.speedup:.2f}x (>=3x), 60 trials, "
            f"single worker")


def test_c12_csv_reproducibility_across_workers(tmp_path):
    args = ["sweep", "--config", DEFAULT_CONFIG, "--pmin-dbm", "20",
            "--pmax-dbm", "28", "--pstep-db", "4", "--trials", "6",
            "--seed", "808"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    rcs = [cli.main(args + ["--workers", w, "--out", str(p)])
           for w, p in zip(("1", "3", "1"), paths)]
    blobs = [p.read_bytes() for p in paths]
    ok = rcs == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    _report("c12 csv-reproducibility", ok,
            f"exit codes {rcs}, {len(blobs[0])} CSV bytes identical for "
            f"1-worker, 3-worker, and repeated runs")
