"""Experiment runner: Monte Carlo sweeps, trade-off curves, CSV output.

Every runner is a budget grid times a list of schemes from one table,
scored by one evaluator.  Per-trial randomness is keyed by (seed, trial
index), and aggregation always walks the trials in index order, so the
emitted CSV bytes do not depend on how many workers computed them.  The
solvers give every entry of a stacked call the bits of a single solve,
so the bytes do not depend on how many draws one call stacks either.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import asympt, beamform, channel, optim, satpower
from .satpower import SaturationBand
from .sysmodel import (DerivedPowerModel, SystemConfig, dbm_to_watt,
                       derive_power_model, load_config, total_power,
                       transmit_power_from_dbm, transmit_power_to_dbm)

KINDS = ("sweep", "tradeoff", "saturation", "compare", "toy")
CSV_HEADER = "scheme,P_dbm,sum_rate,total_power,ee,stderr,trials"
MAX_BUDGETS = 10_000    # the default grid has 29
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
        if self.kind == "compare":
            # compare reads pmax_dbm alone, and transmit_power_from_dbm
            # rejects a budget outside the float range.
            return
        grid = (self.pmin_dbm, self.pmax_dbm, self.pstep_db)
        if not all(math.isfinite(v) for v in grid):
            raise ValueError(f"power grid values must be finite, got {grid}")
        if self.pstep_db <= 0.0 or self.pmax_dbm < self.pmin_dbm:
            raise ValueError("power grid must be increasing")
        # Checked before dbm_grid allocates billions of budgets for a tiny step.
        steps = (self.pmax_dbm - self.pmin_dbm) / self.pstep_db
        if not steps + 1e-9 < MAX_BUDGETS:
            raise ValueError(f"power grid step {self.pstep_db} dB gives more "
                             f"than {MAX_BUDGETS} budgets")


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


def _mc_rows(scheme: str, grid, per_trial: np.ndarray) -> list[EePoint]:
    """One row per budget of grid (dBm) from the per-trial (rate,
    efficiency) array (trials, budgets, 2): the mean rate and efficiency
    over the trials, walked in index order, and the standard error of the
    mean efficiency.

    The trial axis is moved last and made contiguous, so every budget's
    sum runs numpy's pairwise reduction over its trials, as the sum of a
    single budget's slice does; a sum along axis 0 would add the trials
    row by row and move the last bits.
    """
    n = per_trial.shape[0]
    values = np.ascontiguousarray(np.moveaxis(per_trial, 0, -1))
    means = values.sum(axis=-1) / n
    errs = np.zeros(len(means))
    if n > 1:
        dev = values[:, 1] - means[:, 1:]
        errs = np.sqrt((dev ** 2).sum(axis=-1) / (n - 1) / n)
    # Effective power keeps every row self-consistent even when the
    # consumed power varies across trials.
    return [EePoint(scheme=scheme, P_dbm=float(d), sum_rate=rate,
                    total_power=rate / ee, ee=ee, stderr=err, trials=n)
            for d, (rate, ee), err in zip(grid, means.tolist(), errs.tolist())]


# --------------------------------------------------------------- schemes

@dataclass(frozen=True)
class _Cell:
    """What every scheme reads besides the channel draw and the budget."""

    cfg: SystemConfig
    pm: DerivedPowerModel
    band: SaturationBand | None = None


def _evaluate(cell: _Cell, rate, p_sum):
    """Sum rate, consumed power and efficiency of one operating point, or
    of arrays of them."""
    consumed = total_power(p_sum, cell.pm, cell.cfg.xi)
    return rate, consumed, rate / consumed


# A Monte Carlo scheme takes a stack of channel draws h (T, N, M) and the
# budgets p_list (B,) and gives (T, B) arrays of sum rate and radiated
# power; a closed form is a function of one budget alone giving the pair.
# The radiated power is the budget itself for equal power and the closed
# forms, the beamformers' sum power for the solvers, which solve all
# their (draw, budget) entries in one stacked call.

def _each_budget(h, p_list):
    """Every (draw, budget) pair as one stack entry, draw-major."""
    return np.repeat(h, p_list.size, axis=0), np.tile(p_list, len(h))


def _mrt_mc(cell: _Cell, h, p_list):
    dirs = beamform.mrt(h)[:, None]
    b = dirs * np.sqrt(p_list / cell.cfg.N)[:, None, None]
    rate = beamform.sum_rate(beamform.sinr(h[:, None], b, cell.pm.n0))
    return rate, np.broadcast_to(p_list, rate.shape)


def _noiui_mc(cell: _Cell, h, p_list):
    """Equal power with the interference removed by a genie."""
    norms2 = np.sum(np.abs(h) ** 2, axis=-1)[:, None]
    rate = np.sum(np.log1p(
        norms2 * (p_list / cell.cfg.N)[:, None] / cell.pm.n0), axis=-1)
    return rate, np.broadcast_to(p_list, rate.shape)


def _proposed(cell: _Cell, h, p_list):
    # The scheme reads the budget only through min(p_prop, budget), so all
    # budgets at or above p_prop share one solve per draw.
    p_ops, at = np.unique(np.minimum(cell.band.p_prop, p_list),
                          return_inverse=True)
    hs, budgets = _each_budget(h, p_ops)
    res = satpower.proposed_scheme(hs, cell.cfg, budgets, cell.band)
    shape = (len(h), p_ops.size)
    return res.sum_rate.reshape(shape)[:, at], res.p_sum.reshape(shape)[:, at]


# A baseline solution whose sum power sits this far below its budget leaves
# power unused; the solver lands binding ones within optim._POWER_RTOL.
_SLACK_RTOL = 1e-6


def _baseline(cell: _Cell, h, p_list):
    # Past saturation the efficient beamformers stop using extra power: a
    # solution that leaves its budget slack is a KKT point of every larger
    # budget, so each draw solves its budgets in increasing order up to
    # the first slack one, which answers for all larger budgets.
    #
    # The solves run in waves.  The first takes each draw's budgets up to
    # the first above p_ub, where slack solutions set in; each later wave
    # takes the next budget of every draw without a slack solution yet.
    # Solutions past a draw's first slack budget are dropped, so the rows
    # do not depend on the waves.
    order = np.argsort(p_list, kind="stable")
    budgets = p_list[order]
    rate = np.empty((len(h), budgets.size))
    power = np.empty_like(rate)
    first = int(np.searchsorted(budgets, cell.band.p_ub, side="right"))
    wave = {t: list(range(min(first + 1, budgets.size)))
            for t in range(len(h))}
    while wave:
        draws = [t for t, ks in wave.items() for _ in ks]
        ks = [k for ks in wave.values() for k in ks]
        hs = h[draws]
        res = optim.dinkelbach_ee(hs, cell.cfg, budgets[ks])
        # A Dinkelbach result carries no sum rate or power; score its
        # beamformers.
        rate[draws, ks] = beamform.sum_rate(
            beamform.sinr(hs, res.b, cell.pm.n0))
        power[draws, ks] = np.sum(np.abs(res.b) ** 2, axis=(-2, -1))
        slack = power[draws, ks] < budgets[ks] * (1.0 - _SLACK_RTOL)
        settled, wave = set(), {}
        for t, k, stop in zip(draws, ks, slack.tolist()):
            if t in settled:
                continue
            if stop:
                rate[t, k + 1:], power[t, k + 1:] = rate[t, k], power[t, k]
                settled.add(t)
                wave.pop(t, None)
            elif k + 1 < budgets.size:
                wave[t] = [k + 1]
    back = np.argsort(order)
    return rate[:, back], power[:, back]


def _se_mc(cell: _Cell, h, p_list):
    hs, budgets = _each_budget(h, p_list)
    res = optim.wmmse(hs, cell.cfg, budgets)
    shape = (len(h), p_list.size)
    return res.sum_rate.reshape(shape), res.p_sum.reshape(shape)


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


# Draws whose entries one stacked call solves together: enough to share
# numpy's per-call cost, few enough to bound memory on long runs.
_DRAW_GROUP = 10


def _trial_chunk(cell: _Cell, names: list[str], p_list, seed: int,
                 t0: int, t1: int
                 ) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Per-trial (rate, efficiency) of the named Monte Carlo schemes for
    trials [t0, t1), as arrays of shape (trials, budgets, 2), and the
    seconds each scheme spent on them.  The schemes take turns on each
    group of draws, and the draws are made outside every scheme's
    clock."""
    p_list = np.asarray(p_list, dtype=float)
    out = {name: np.empty((t1 - t0, p_list.size, 2)) for name in names}
    seconds = dict.fromkeys(names, 0.0)
    for g0 in range(t0, t1, _DRAW_GROUP):
        g1 = min(g0 + _DRAW_GROUP, t1)
        h = np.stack([channel.generate(cell.cfg, seed, trial)
                      for trial in range(g0, g1)])
        for name in names:
            tic = time.perf_counter()
            rate, _, ee = _evaluate(cell, *SCHEMES[name][1](cell, h, p_list))
            seconds[name] += time.perf_counter() - tic
            out[name][g0 - t0:g1 - t0] = np.stack((rate, ee), axis=-1)
    return out, seconds


def _run_trials(spec: ExperimentSpec, args: tuple) -> dict[str, np.ndarray]:
    """Run :func:`_trial_chunk` over the trial range, possibly in parallel,
    and reassemble the chunks in trial order."""
    if spec.workers == 1:
        return _trial_chunk(*args, spec.seed, 0, spec.trials)[0]
    bounds = np.linspace(0, spec.trials, spec.workers + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    # A forking pool starts all its processes at the first submit, so it
    # is sized by the chunks that hold work, not by the worker count.
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futures = [pool.submit(_trial_chunk, *args, spec.seed, a, b)
                   for a, b in spans]
        chunks = [f.result()[0] for f in futures]
    return {key: np.concatenate([c[key] for c in chunks], axis=0)
            for key in chunks[0]}


def _grid_rows(spec: ExperimentSpec, cell: _Cell,
               names: tuple[str, ...]) -> list[EePoint]:
    """One row per budget of the grid and scheme in names, budget-major."""
    grid = dbm_grid(spec)
    p_list = np.array([transmit_power_from_dbm(d, cell.cfg) for d in grid])
    mc = _run_trials(spec, (cell, [n for n in names if SCHEMES[n][0]], p_list))
    rows = {name: _mc_rows(name, grid, per_trial)
            for name, per_trial in mc.items()}
    points: list[EePoint] = []
    for ip, (d, p) in enumerate(zip(grid, p_list)):
        for name in names:
            if name in rows:
                points.append(rows[name][ip])
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

    Each group of draws is made once, outside both clocks, and the two
    schemes solve it in turn, so the host's drifts fall on both arms
    alike; the band computation counts to the one-shot scheme.

    Returns the report plus the per-trial (rate, ee) arrays of both
    schemes in trial order.
    """
    tic = time.perf_counter()
    band = satpower.compute_band(cfg)
    cell = _Cell(cfg, derive_power_model(cfg), band)
    t_band = time.perf_counter() - tic
    per_trial, seconds = _trial_chunk(cell, ["proposed", "baseline"],
                                      (budget,), seed, 0, trials)
    t_prop = t_band + seconds["proposed"]
    t_base = seconds["baseline"]

    prop, base = per_trial["proposed"][:, 0], per_trial["baseline"][:, 0]
    budget_dbm = transmit_power_to_dbm(budget, cfg)
    mean_p, mean_b = (_mc_rows(name, [budget_dbm], per_trial[:, None])[0].ee
                      for name, per_trial in (("proposed", prop),
                                              ("baseline", base)))
    report = CompareReport(
        band=band, budget_dbm=budget_dbm,
        mean_ee_proposed=mean_p, mean_ee_baseline=mean_b,
        ee_ratio=mean_p / mean_b, seconds_proposed=t_prop,
        seconds_baseline=t_base, speedup=t_base / t_prop)
    return report, prop, base


def run_compare(spec: ExperimentSpec) -> tuple[list[EePoint], CompareReport]:
    """CSV rows plus the timing report at the top budget of the grid."""
    cfg = load_config(spec.config_path)
    budget = transmit_power_from_dbm(spec.pmax_dbm, cfg)
    report, prop, base = compare_schemes(cfg, budget, spec.trials, spec.seed)
    points = [_mc_rows(name, [spec.pmax_dbm], per_trial[:, None])[0]
              for name, per_trial in (("proposed", prop), ("baseline", base))]
    return points, report


def run_toy(spec: ExperimentSpec) -> list[EePoint]:
    """Single-link toy curves; the grid values are read as dB over unit
    power, full-power versus clamped-at-saturation policies."""
    p_sat = satpower.p_ee_toy(spec.p_static)
    points: list[EePoint] = []
    for d in dbm_grid(spec):
        p = dbm_to_watt(float(d))
        if not math.isfinite(p):
            raise ValueError(f"a budget of {d} dB is past the float range")
        for name, q in (("full", p), ("clamped", min(p, p_sat))):
            points.append(EePoint(scheme=name, P_dbm=float(d),
                                  sum_rate=float(satpower.toy_rate(q)),
                                  total_power=q + spec.p_static,
                                  ee=float(satpower.toy_ee(q, spec.p_static))))
    return points


# ------------------------------------------------------------------- io

def _unit_scale(bits: bool) -> float:
    """Factor taking nats to the reported unit, bits when bits is set."""
    return 1.0 / LN2 if bits else 1.0


def format_csv(points: list[EePoint], bits: bool = False) -> str:
    """Render rows; rates and efficiencies switch to base-2 units when
    bits is set.  Full float precision so rows re-parse exactly."""
    scale = _unit_scale(bits)
    lines = [CSV_HEADER]
    for pt in points:
        lines.append("%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
            pt.scheme, pt.P_dbm, pt.sum_rate * scale, pt.total_power,
            pt.ee * scale, pt.stderr * scale, pt.trials))
    return "\n".join(lines) + "\n"


def describe_report(report: CompareReport, bits: bool = False) -> str:
    """The compare report as text; mean efficiencies in bit/J when bits
    is set, scaled as :func:`format_csv` scales the CSV's."""
    band = report.band
    scale = _unit_scale(bits)
    return "\n".join([
        f"budget: {report.budget_dbm:.2f} dBm",
        (f"band [W/Hz]: p_lb={band.p_lb:.6e} p_rzf={band.p_rzf:.6e} "
         f"p_prop={band.p_prop:.6e} p_ub={band.p_ub:.6e}"),
        f"omega={band.omega:.6f} beta={band.beta}",
        (f"mean EE [{'bit' if bits else 'nat'}/J]: "
         f"proposed={report.mean_ee_proposed * scale:.6e} "
         f"baseline={report.mean_ee_baseline * scale:.6e} "
         f"ratio={report.ee_ratio:.4f}"),
        (f"wall clock [s], channel draws excluded: "
         f"proposed={report.seconds_proposed:.3f} "
         f"baseline={report.seconds_baseline:.3f} "
         f"speedup={report.speedup:.2f}x"),
    ])


def run(spec: ExperimentSpec) -> tuple[list[EePoint], str | None]:
    """Dispatch one experiment; returns rows plus an optional stdout note."""
    if spec.kind == "compare":
        points, report = run_compare(spec)
        return points, describe_report(report, spec.bits)
    runner = {"sweep": run_sweep, "tradeoff": run_tradeoff,
              "saturation": run_saturation, "toy": run_toy}[spec.kind]
    return runner(spec), None
