"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``saturee`` experiment, driven through the package's
public functions exactly as the CLI drives them, and repeated by a single
client in a closed loop.  The channel draws come from the run's seed.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
# c10's bound on the one-shot scheme against the fractional baseline.
EE_RATIO_MIN = 0.95
# Relative tolerance against the committed reference CSVs.  Rows that come
# out of an iterative solve (stopping at a relative objective change of
# 1e-4) get room for a different but equally converged iterate; every
# other row is closed-form or a direct Monte Carlo average.
SOLVER_SCHEMES = ("proposed", "baseline", "se_mc")
SOLVER_RTOL = 1e-3
EXACT_RTOL = 1e-9
ROWS_PER_BUDGET = {"sweep": 8, "tradeoff": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # the saturee subcommand
    config: str               # relative to the checkout root
    trials: int
    workers: int = 1
    # Whether timings are scaled by the host kernel (hostspeed.py).  Only
    # where one thread does the work, in the kernel's mix of small numpy
    # calls and interpreter work, does the kernel follow the host's drift.
    host_scaled: bool = True
    pmin_dbm: float = -10.0
    pmax_dbm: float = 46.0
    pstep_db: float = 2.0
    # Bindings the traced run must see called at least once; a rename or
    # a bypass of one of them breaks the trace instead of reading zero.
    reaches: tuple[str, ...] = ()

    def spec(self, harness, root: Path, seed: int, trials: int | None = None):
        return harness.ExperimentSpec(
            kind=self.kind, config_path=str(root / self.config),
            pmin_dbm=self.pmin_dbm, pmax_dbm=self.pmax_dbm,
            pstep_db=self.pstep_db, trials=trials or self.trials, seed=seed,
            workers=self.workers)

    def budgets(self) -> int:
        if self.kind == "compare":
            return 1
        return int(math.floor((self.pmax_dbm - self.pmin_dbm) / self.pstep_db
                              + 1e-9)) + 1

    def reference(self) -> Path:
        return HERE / "reference" / f"{self.name}.csv"


def execute(harness, spec):
    """One experiment as the CLI runs it: rows rendered to CSV, plus the
    timing report for ``compare``."""
    if spec.kind == "compare":
        points, report = harness.run_compare(spec)
    else:
        points, report = harness.run(spec)[0], None
    return harness.format_csv(points), report


# Bindings every in-process sweep or compare reaches on the parent side.
_BAND = ("satpower.compute_band", "satpower.lambert_w0",
         "satpower.bisect_root_log", "asympt.det_equiv_rzf",
         "harness.derive_power_model", "satpower.derive_power_model",
         "asympt.derive_power_model", "harness.format_csv")
_SOLVES = ("channel.generate", "satpower.proposed_scheme", "beamform.rzf",
           "optim.rzf", "optim.wmmse", "optim.dinkelbach_ee",
           "optim.golden_section_max", "beamform.sinr",
           "optim.derive_power_model", "beamform.derive_power_model")

# BENCHMARK.json gates the first two.  The last two are too unsteady to
# gate (see README.md) and run only when asked for by name.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-3x3", kind="sweep", config="configs/default.json",
        trials=5,
        reaches=_BAND + _SOLVES + ("harness.run_sweep", "beamform.mrt")),
    Workload(
        name="compare-64x16", kind="compare",
        config="perfbench/configs/cell_64x16.json", trials=20,
        host_scaled=False,
        reaches=_BAND + _SOLVES + ("harness.run_compare",)),
    Workload(
        name="sweep-64x16-w2", kind="sweep",
        config="perfbench/configs/cell_64x16.json", trials=4, workers=2,
        pstep_db=4.0, host_scaled=False,
        # Trials run in the pool's processes, whose spans stay there.
        reaches=_BAND + ("harness.run_sweep",)),
    Workload(
        name="tradeoff-3x3", kind="tradeoff", config="configs/default.json",
        trials=10,
        reaches=("harness.run_tradeoff", "channel.generate", "optim.wmmse",
                 "harness.derive_power_model", "optim.derive_power_model",
                 "harness.format_csv")),
)}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(workload: Workload, seed: int, text: str) -> list[str]:
    """Problems with one run's CSV: invariants on every seed, and the
    committed reference values at the default seed."""
    rows = _rows(text)
    problems = []
    expected = (2 if workload.kind == "compare"
                else ROWS_PER_BUDGET[workload.kind] * workload.budgets())
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    ee = {}
    for row in rows:
        values = [float(row[k]) for k in
                  ("P_dbm", "sum_rate", "total_power", "ee", "stderr")]
        if not all(map(math.isfinite, values)):
            problems.append(f"non-finite value in {row}")
        if int(row["trials"]) not in (0, workload.trials):
            problems.append(f"trial count {row['trials']} in {row}")
        ee[row["scheme"], row["P_dbm"]] = float(row["ee"])
    for (scheme, p_dbm), value in ee.items():
        if scheme == "proposed":
            base = ee.get(("baseline", p_dbm))
            if base is None or not value >= EE_RATIO_MIN * base:
                problems.append(f"proposed EE {value} below {EE_RATIO_MIN} x "
                                f"baseline {base} at {p_dbm} dBm")
    if seed == DEFAULT_SEED:
        problems += _against_reference(rows, _rows(workload.reference()
                                                   .read_text()))
    return problems


def _against_reference(rows: list[dict], ref: list[dict]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for row, want in zip(rows, ref):
        key = (row["scheme"], row["P_dbm"], row["trials"])
        if key != (want["scheme"], want["P_dbm"], want["trials"]):
            problems.append(f"row {key} where the reference has "
                            f"{(want['scheme'], want['P_dbm'], want['trials'])}")
            continue
        rtol = SOLVER_RTOL if row["scheme"] in SOLVER_SCHEMES else EXACT_RTOL
        scale = abs(float(want["ee"]))
        for col in ("sum_rate", "total_power", "ee", "stderr"):
            got, ref_value = float(row[col]), float(want[col])
            # The standard error is judged on the scale of the mean it
            # qualifies, so a near-zero error cannot fail on rounding.
            tol = rtol * (scale if col == "stderr" else abs(ref_value))
            if abs(got - ref_value) > tol:
                problems.append(f"{key} {col}={got!r}, reference "
                                f"{ref_value!r} (rtol {rtol})")
    return problems
