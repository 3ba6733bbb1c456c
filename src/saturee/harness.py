"""Experiment runner: Monte Carlo sweeps, trade-off curves, CSV output.

Every runner is a budget grid times a list of schemes from one table,
scored by one evaluator.  Per-trial randomness is keyed by (seed, trial
index), and aggregation always walks the trials in index order, so the
emitted CSV bytes do not depend on how many workers computed them.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asympt, beamform, channel, optim, satpower
from .satpower import SaturationBand
from .sysmodel import (DerivedPowerModel, SystemConfig, derive_power_model,
                       load_config, total_power, transmit_power_from_dbm,
                       transmit_power_to_dbm)

KINDS = ("sweep", "tradeoff", "saturation", "compare", "toy")
CSV_HEADER = "scheme,P_dbm,sum_rate,total_power,ee,stderr,trials"
LN2 = math.log(2.0)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one CLI invocation needs."""

    kind: str
    config_path: str | None = None
    pmin_dbm: float = -10.0
    pmax_dbm: float = 46.0
    pstep_db: float = 2.0
    trials: int = 100
    seed: int = 1
    out: str | None = None
    workers: int = 1
    bits: bool = False
    p_static: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        grid = (self.pmin_dbm, self.pmax_dbm, self.pstep_db)
        if not all(math.isfinite(v) for v in grid):
            raise ValueError(f"power grid values must be finite, got {grid}")
        if self.pstep_db <= 0.0 or self.pmax_dbm < self.pmin_dbm:
            raise ValueError("power grid must be increasing")


@dataclass(frozen=True)
class EePoint:
    """One CSV row: a scheme evaluated at one budget."""

    scheme: str
    P_dbm: float
    sum_rate: float
    total_power: float
    ee: float
    stderr: float = 0.0
    trials: int = 0


def dbm_grid(spec: ExperimentSpec) -> np.ndarray:
    count = int(math.floor((spec.pmax_dbm - spec.pmin_dbm) / spec.pstep_db + 1e-9)) + 1
    return spec.pmin_dbm + spec.pstep_db * np.arange(count)


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over trials, walked in index order."""
    n = values.shape[0]
    mean = float(np.sum(values, axis=0) / n)
    if n < 2:
        return mean, 0.0
    var = float(np.sum((values - mean) ** 2, axis=0)) / (n - 1)
    return mean, math.sqrt(var / n)


def _mc_point(scheme: str, p_dbm: float, rates: np.ndarray,
              ees: np.ndarray, trials: int) -> EePoint:
    mean_rate, _ = _mean_std(rates)
    mean_ee, err = _mean_std(ees)
    # Effective power keeps every row self-consistent even when the
    # consumed power varies across trials.
    return EePoint(scheme=scheme, P_dbm=float(p_dbm), sum_rate=mean_rate,
                   total_power=mean_rate / mean_ee, ee=mean_ee, stderr=err,
                   trials=trials)


# --------------------------------------------------------------- schemes

@dataclass(frozen=True)
class _Cell:
    """What every scheme reads besides the channel draw and the budget."""

    cfg: SystemConfig
    pm: DerivedPowerModel
    band: SaturationBand | None = None


def _evaluate(cell: _Cell, rate: float, p_sum: float) -> tuple[float, float, float]:
    """Sum rate, consumed power and efficiency of one operating point."""
    consumed = total_power(p_sum, cell.pm, cell.cfg.xi)
    return rate, consumed, rate / consumed


# A Monte Carlo scheme binds to one channel draw and returns a function of
# the budget; a closed form is a function of the budget alone.  Both give
# (sum rate, radiated power): the budget itself for equal power and the
# closed forms, the beamformers' sum power for the solvers.

def _solution_point(ch, b: np.ndarray, n0: float) -> tuple[float, float]:
    return (beamform.sum_rate(beamform.sinr(ch, b, n0)),
            float(np.sum(np.abs(b) ** 2)))


def _mrt_mc(cell: _Cell, ch):
    dirs = beamform.mrt(ch)
    return lambda p: (beamform.sum_rate(beamform.sinr(
        ch, dirs * math.sqrt(p / cell.cfg.N), cell.pm.n0)), p)


def _noiui_mc(cell: _Cell, ch):
    """Equal power with the interference removed by a genie."""
    norms2 = np.sum(np.abs(ch.h) ** 2, axis=1)
    return lambda p: (float(np.sum(np.log1p(
        norms2 * (p / cell.cfg.N) / cell.pm.n0))), p)


def _proposed(cell: _Cell, ch):
    # The scheme reads the budget only through min(p_prop, budget), so all
    # budgets at or above p_prop share one solve per draw.
    solves: dict[float, tuple[float, float]] = {}

    def at(p):
        p_op = min(cell.band.p_prop, p)
        if p_op not in solves:
            b = satpower.proposed_scheme(ch, cell.cfg, p_op, cell.band)
            solves[p_op] = _solution_point(ch, b, cell.pm.n0)
        return solves[p_op]
    return at


def _baseline(cell: _Cell, ch):
    return lambda p: _solution_point(
        ch, optim.dinkelbach_ee(ch, cell.cfg, p).b, cell.pm.n0)


def _se_mc(cell: _Cell, ch):
    def at(p):
        res = optim.wmmse(ch, cell.cfg, p)
        return res.sum_rate, res.p_sum
    return at


def _rzf_asym(cell: _Cell, p):
    de = asympt.det_equiv_rzf(cell.cfg, beamform.mmse_loading_alpha(cell.cfg, p))
    return cell.cfg.N * math.log1p(
        asympt.sinr_rzf_asymptotic(p, de, cell.pm.n0)), p


# CSV scheme name -> (Monte Carlo over channel draws, scheme).
SCHEMES = {
    "mrt_mc": (True, _mrt_mc),
    "mrt_asym": (False, lambda cell, p: (cell.cfg.N * math.log1p(
        asympt.sinr_mrt_asymptotic(p, cell.cfg, cell.pm.n0)), p)),
    "lb": (False, lambda cell, p: (asympt.rate_lower_bound(p, cell.cfg), p)),
    "noiui_mc": (True, _noiui_mc),
    "ub": (False, lambda cell, p: (asympt.rate_upper_bound(p, cell.cfg), p)),
    "rzf_asym": (False, _rzf_asym),
    "proposed": (True, _proposed),
    "baseline": (True, _baseline),
    "se_mc": (True, _se_mc),
}
SWEEP_SCHEMES = ("mrt_mc", "mrt_asym", "lb", "noiui_mc", "ub", "rzf_asym",
                 "proposed", "baseline")
TRADEOFF_SCHEMES = ("lb", "se_mc", "ub")


def _trial_chunk(cell: _Cell, names: list[str], p_list, seed: int,
                 t0: int, t1: int) -> dict[str, np.ndarray]:
    """Per-trial (rate, efficiency) of the named Monte Carlo schemes for
    trials [t0, t1), as arrays of shape (trials, budgets, 2)."""
    out = {name: np.empty((t1 - t0, len(p_list), 2)) for name in names}
    for row, trial in enumerate(range(t0, t1)):
        ch = channel.generate(cell.cfg, seed, trial)
        for name in names:
            at = SCHEMES[name][1](cell, ch)
            for ip, p in enumerate(p_list):
                rate, _, ee = _evaluate(cell, *at(p))
                out[name][row, ip] = (rate, ee)
    return out


def _run_trials(spec: ExperimentSpec, args: tuple) -> dict[str, np.ndarray]:
    """Run :func:`_trial_chunk` over the trial range, possibly in parallel,
    and reassemble the chunks in trial order."""
    if spec.workers == 1:
        return _trial_chunk(*args, spec.seed, 0, spec.trials)
    bounds = np.linspace(0, spec.trials, spec.workers + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    # A forking pool starts all its processes at the first submit, so it
    # is sized by the chunks that hold work, not by the worker count.
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futures = [pool.submit(_trial_chunk, *args, spec.seed, a, b)
                   for a, b in spans]
        chunks = [f.result() for f in futures]
    return {key: np.concatenate([c[key] for c in chunks], axis=0)
            for key in chunks[0]}


def _grid_rows(spec: ExperimentSpec, cell: _Cell,
               names: tuple[str, ...]) -> list[EePoint]:
    """One row per budget of the grid and scheme in names, budget-major."""
    grid = dbm_grid(spec)
    p_list = np.array([transmit_power_from_dbm(d, cell.cfg) for d in grid])
    mc = _run_trials(spec, (cell, [n for n in names if SCHEMES[n][0]], p_list))
    points: list[EePoint] = []
    for ip, (d, p) in enumerate(zip(grid, p_list)):
        for name in names:
            if name in mc:
                points.append(_mc_point(name, d, mc[name][:, ip, 0],
                                        mc[name][:, ip, 1], spec.trials))
                continue
            rate, consumed, ee = _evaluate(cell, *SCHEMES[name][1](cell, p))
            points.append(EePoint(scheme=name, P_dbm=float(d),
                                  sum_rate=float(rate),
                                  total_power=float(consumed), ee=float(ee)))
    return points


# ---------------------------------------------------------------- runners

def run_sweep(spec: ExperimentSpec) -> list[EePoint]:
    """Efficiency versus budget for every scheme on the configured grid."""
    cfg = load_config(spec.config_path)
    band = satpower.compute_band(cfg)
    return _grid_rows(spec, _Cell(cfg, derive_power_model(cfg), band),
                      SWEEP_SCHEMES)


def run_tradeoff(spec: ExperimentSpec) -> list[EePoint]:
    """Rate versus consumed power for the two envelopes and the Monte
    Carlo spectral-efficiency solver."""
    cfg = load_config(spec.config_path)
    return _grid_rows(spec, _Cell(cfg, derive_power_model(cfg)),
                      TRADEOFF_SCHEMES)


def run_saturation(spec: ExperimentSpec) -> list[EePoint]:
    """Band summary encoded in the common row format.

    Each quantity gets a row: powers carry their W/Hz value in the
    total_power column with unit efficiency fields; efficiencies carry
    their value in the ee column.
    """
    cfg = load_config(spec.config_path)
    band = satpower.compute_band(cfg)
    rows = [EePoint(scheme=name, P_dbm=transmit_power_to_dbm(p, cfg),
                    sum_rate=0.0, total_power=p, ee=0.0)
            for name, p in (("p_lb", band.p_lb), ("p_rzf", band.p_rzf),
                            ("p_prop", band.p_prop), ("p_ub", band.p_ub))]
    rows += [EePoint(scheme=name, P_dbm=0.0, sum_rate=0.0, total_power=0.0,
                     ee=g)
             for name, g in (("gamma_lb", band.gamma_lb),
                             ("gamma_rzf", band.gamma_rzf),
                             ("gamma_se_est", band.gamma_se_est),
                             ("gamma_ub", band.gamma_ub),
                             ("omega", band.omega))]
    return rows


@dataclass(frozen=True)
class CompareReport:
    band: SaturationBand
    budget_dbm: float
    mean_ee_proposed: float
    mean_ee_baseline: float
    ee_ratio: float
    seconds_proposed: float
    seconds_baseline: float
    speedup: float


def compare_schemes(cfg: SystemConfig, budget: float, trials: int,
                    seed: int) -> tuple[CompareReport, np.ndarray, np.ndarray]:
    """Timed head-to-head of the one-shot scheme against the fractional
    baseline over identical channel draws, single worker.

    Returns the report plus the per-trial (rate, ee) arrays of both
    schemes in trial order.
    """
    tic = time.perf_counter()
    band = satpower.compute_band(cfg)
    cell = _Cell(cfg, derive_power_model(cfg), band)
    prop = _trial_chunk(cell, ["proposed"], (budget,), seed, 0, trials)
    t_prop = time.perf_counter() - tic

    tic = time.perf_counter()
    base = _trial_chunk(cell, ["baseline"], (budget,), seed, 0, trials)
    t_base = time.perf_counter() - tic

    prop, base = prop["proposed"][:, 0], base["baseline"][:, 0]
    mean_p, _ = _mean_std(prop[:, 1])
    mean_b, _ = _mean_std(base[:, 1])
    report = CompareReport(
        band=band, budget_dbm=transmit_power_to_dbm(budget, cfg),
        mean_ee_proposed=mean_p, mean_ee_baseline=mean_b,
        ee_ratio=mean_p / mean_b, seconds_proposed=t_prop,
        seconds_baseline=t_base, speedup=t_base / t_prop)
    return report, prop, base


def run_compare(spec: ExperimentSpec) -> tuple[list[EePoint], CompareReport]:
    """CSV rows plus the timing report at the top budget of the grid."""
    cfg = load_config(spec.config_path)
    budget = transmit_power_from_dbm(spec.pmax_dbm, cfg)
    report, prop, base = compare_schemes(cfg, budget, spec.trials, spec.seed)
    points = [_mc_point(name, spec.pmax_dbm, per_trial[:, 0], per_trial[:, 1],
                        spec.trials)
              for name, per_trial in (("proposed", prop), ("baseline", base))]
    return points, report


def run_toy(spec: ExperimentSpec) -> list[EePoint]:
    """Single-link toy curves; the grid values are read as dB over unit
    power, full-power versus clamped-at-saturation policies."""
    p_sat = satpower.p_ee_toy(spec.p_static)
    points: list[EePoint] = []
    for d in dbm_grid(spec):
        p = 10.0 ** ((d - 30.0) / 10.0)
        for name, q in (("full", p), ("clamped", min(p, p_sat))):
            points.append(EePoint(scheme=name, P_dbm=float(d),
                                  sum_rate=float(satpower.toy_rate(q)),
                                  total_power=q + spec.p_static,
                                  ee=float(satpower.toy_ee(q, spec.p_static))))
    return points


# ------------------------------------------------------------------- io

def format_csv(points: list[EePoint], bits: bool = False) -> str:
    """Render rows; rates and efficiencies switch to base-2 units when
    bits is set.  Full float precision so rows re-parse exactly."""
    scale = 1.0 / LN2 if bits else 1.0
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(",".join((
            pt.scheme,
            format(pt.P_dbm, ".17g"),
            format(pt.sum_rate * scale, ".17g"),
            format(pt.total_power, ".17g"),
            format(pt.ee * scale, ".17g"),
            format(pt.stderr * scale, ".17g"),
            str(pt.trials),
        )))
    return "\n".join(lines) + "\n"


def write_csv(points: list[EePoint], path: str | Path, bits: bool = False) -> None:
    Path(path).write_text(format_csv(points, bits=bits))


def describe_report(report: CompareReport) -> str:
    band = report.band
    return "\n".join([
        f"budget: {report.budget_dbm:.2f} dBm",
        (f"band [W/Hz]: p_lb={band.p_lb:.6e} p_rzf={band.p_rzf:.6e} "
         f"p_prop={band.p_prop:.6e} p_ub={band.p_ub:.6e}"),
        f"omega={band.omega:.6f} beta={band.beta}",
        (f"mean EE: proposed={report.mean_ee_proposed:.6e} "
         f"baseline={report.mean_ee_baseline:.6e} "
         f"ratio={report.ee_ratio:.4f}"),
        (f"wall clock [s]: proposed={report.seconds_proposed:.3f} "
         f"baseline={report.seconds_baseline:.3f} "
         f"speedup={report.speedup:.2f}x"),
    ])


def run(spec: ExperimentSpec) -> tuple[list[EePoint], str | None]:
    """Dispatch one experiment; returns rows plus an optional stdout note."""
    if spec.kind == "compare":
        points, report = run_compare(spec)
        return points, describe_report(report)
    runner = {"sweep": run_sweep, "tradeoff": run_tradeoff,
              "saturation": run_saturation, "toy": run_toy}[spec.kind]
    return runner(spec), None
