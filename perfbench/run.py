"""Benchmark of the saturee experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One single client runs the workload's experiment in a
closed loop of blocks for about S seconds: block k draws its channels with
harness seed N + k * 1000000 (block 0 is ``saturee <kind> --seed N``), and
every block's CSV is checked.  Timings are medians over blocks; on the
workloads marked ``host_scaled`` each is scaled by the host speed read
beside it, and set-up is always scaled (see ``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs blocks
untraced for about half the time, replays the same blocks with every
traced layer wrapped, and prints the per-layer metrics.  The last line of
standard output is one JSON object; a fuller record, including the
environment, goes to ``perfbench/results/``.  The exit code is 1 when an
output check or the trace guard fails, 2 when the checkout is unusable.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import (COUNTED_STATS, HARNESS_RUNS, LAYERS,  # noqa: E402
                    SolveCounter, Tracer)
from workloads import WORKLOADS, check, execute  # noqa: E402

BLOCK_SEED_STRIDE = 1_000_000
SETUP_PROBES = 7
DEPENDENCIES = "numpy, scipy.linalg"
PROBE = ("import time; t = time.perf_counter(); import {}; "
         "print(time.perf_counter() - t)")
THREAD_VAR_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_",
                       "VECLIB_", "NUMEXPR_")


@dataclass
class Block:
    k: int
    seed: int
    trials: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    kernel_s: float = hostspeed.REFERENCE_S   # host kernel around the block
    host_scaled: bool = True
    solves: int = 0
    nonconverged: int = 0
    proposed_s: float | None = None
    baseline_s: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def scale(self) -> float:
        return hostspeed.scale(self.kernel_s) if self.host_scaled else 1.0


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_block(harness, workload, seed: int, k: int,
              counter: SolveCounter | None) -> Block:
    block = Block(k=k, seed=seed + k * BLOCK_SEED_STRIDE,
                  trials=workload.trials, host_scaled=workload.host_scaled)
    spec = workload.spec(harness, ROOT, block.seed)
    solves0 = (counter.solves, counter.nonconverged) if counter else (0, 0)
    cpu0, t0 = _cpu_seconds(), perf_counter()
    text = report = None
    try:
        text, report = execute(harness, spec)
    except Exception:  # a failing program is a result to report
        block.problems.append(traceback.format_exc())
    block.wall_s = perf_counter() - t0
    block.cpu_s = _cpu_seconds() - cpu0
    if counter:
        block.solves = counter.solves - solves0[0]
        block.nonconverged = counter.nonconverged - solves0[1]
    if report is not None:
        block.proposed_s = report.seconds_proposed
        block.baseline_s = report.seconds_baseline
    if text is not None:
        block.problems += check(workload, block.seed, text)
    return block


def run_blocks(harness, workload, seed: int, counter: SolveCounter | None,
               seconds: float = 0.0, replay: list[int] | None = None
               ) -> list[Block]:
    """Blocks 0, 1, ... until `seconds` have passed, or the blocks
    numbered in `replay`; stops at a failed block.  The host kernel runs
    before the first block and after each one."""
    blocks: list[Block] = []
    before = hostspeed.kernel_seconds()
    start = perf_counter()
    for k in (itertools.count() if replay is None else replay):
        if replay is None and blocks and perf_counter() - start >= seconds:
            break
        block = run_block(harness, workload, seed, k, counter)
        after = hostspeed.kernel_seconds()
        block.kernel_s = (before + after) / 2
        before = after
        blocks.append(block)
        if block.failed:
            break
    return blocks


def _import_seconds(module: str) -> float:
    """Seconds to import `module` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE.format(module)],
                         env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def setup_seconds() -> list[tuple[float, float]]:
    """(seconds to import the CLI entry point, seconds to import its
    dependencies), each in a fresh interpreter, once per probe."""
    return [(_import_seconds("saturee.cli"), _import_seconds(DEPENDENCIES))
            for _ in range(SETUP_PROBES)]


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return {"name": "unknown"}
    return {key: deps.get(key) for key in
            ("name", "version", "openblas configuration")}


def environment(np, scipy, thread_vars: dict) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        "thread_vars": thread_vars,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(blocks: list[Block], setup: list[tuple[float, float]],
               rss_kib: int) -> tuple[dict, dict]:
    """Contract metrics, plus the figures printed beside them.  Scaled
    timings are in reference seconds; the `_raw` figures are as
    measured."""
    solves = sum(b.solves for b in blocks)
    if solves:
        nonconverged = sum(b.nonconverged for b in blocks)
        lost = sum(b.solves for b in blocks if b.failed)
        failed_frac = (nonconverged + lost) / solves
    else:
        # Solves ran in the pool's processes: the count is per block.
        failed_frac = sum(b.failed for b in blocks) / len(blocks)
    setup_s = [s * hostspeed.import_scale(deps_s) for s, deps_s in setup]
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "trials_per_s": (median(b.trials / (b.wall_s * b.scale)
                                for b in blocks), "1/s"),
        "cpu_s_per_trial": (median(b.cpu_s * b.scale / b.trials
                                   for b in blocks), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "converged_frac": (1.0 - failed_frac, "share"),
    }
    extra = {
        "failed_frac": (failed_frac, "share"),
        "setup_s_min": (min(setup_s), "s"),
        "setup_s_max": (max(setup_s), "s"),
        "setup_s_raw": (median(s for s, _ in setup), "s"),
        "deps_import_s": (median(deps_s for _, deps_s in setup), "s"),
        "trials_per_s_raw": (median(b.trials / b.wall_s for b in blocks),
                             "1/s"),
        "cpu_s_per_trial_raw": (median(b.cpu_s / b.trials for b in blocks),
                                "s"),
        "host_kernel_s": (median(b.kernel_s for b in blocks), "s"),
    }
    timed = [b for b in blocks if b.proposed_s is not None]
    if timed:
        prop = median(1e3 * b.proposed_s * b.scale / b.trials for b in timed)
        base = median(1e3 * b.baseline_s * b.scale / b.trials for b in timed)
        extra["proposed_ms_per_trial"] = (prop, "ms")
        extra["baseline_ms_per_trial"] = (base, "ms")
        extra["speedup"] = (base / prop, "x")
    return metrics, extra


def per_layer(tracer: Tracer, blocks: list[Block], untraced: list[Block]
              ) -> tuple[dict, dict]:
    traced_s = sum(b.wall_s for b in blocks)
    trials = sum(b.trials for b in blocks)
    metrics = {}
    for layer in LAYERS:
        times = tracer.durations.get(layer) or [0.0]
        metrics[f"{layer}.calls"] = (tracer.calls(layer) / trials, "1/trial")
        metrics[f"{layer}.ms_p50"] = (1e3 * median(times), "ms")
        metrics[f"{layer}.ms_p95"] = (1e3 * _percentile(times, 0.95), "ms")
        metrics[f"{layer}.self_share"] = (
            tracer.self_seconds[layer] / traced_s, "share")
        for stat in COUNTED_STATS.get(layer, ()):
            metrics[f"{layer}.{stat}"] = (
                tracer.counts[f"{layer}.{stat}"] / trials, "1/trial")
    metrics["sysmodel.derive_power_model.calls"] = (
        sum(n for b, n in tracer.binding_calls.items()
            if b.endswith(".derive_power_model")) / trials, "1/trial")
    harness_self = sum(tracer.self_seconds[r] for r in HARNESS_RUNS)
    metrics["harness.self_share"] = (harness_self / traced_s, "share")
    # Each block ran twice on the same inputs, untraced and then traced.
    overhead = median((t.wall_s * t.scale) / (u.wall_s * u.scale)
                      for t, u in zip(blocks, untraced))
    metrics["trace.overhead"] = (overhead - 1.0, "share")
    covered = sum(tracer.self_seconds.values()) / traced_s
    extra = {"trace.self_time_covered": (covered, "share"),
             "trace.calls_traced": (sum(map(len, tracer.durations.values())),
                                    "count")}
    return metrics, extra


def guard(workload, tracer: Tracer) -> list[str]:
    """Every binding the workload is expected to reach recorded a call."""
    return [f"trace guard: {binding} recorded no call"
            for binding in workload.reaches
            if tracer.binding_calls[binding] == 0]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def untraced_run(harness, workload, args) -> tuple[list[Block], dict, dict]:
    counter = SolveCounter()
    with counter.installed():
        blocks = run_blocks(harness, workload, args.seed, counter,
                            seconds=args.seconds)
    rss_kib = sum(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return (blocks, *end_to_end(blocks, setup_seconds(), rss_kib))


def traced_run(harness, workload, args):
    """Blocks untraced for under half the time, then the same blocks
    again with every layer traced."""
    counter = SolveCounter()
    with counter.installed():
        blocks = run_blocks(harness, workload, args.seed, counter,
                            seconds=args.seconds / 2.5)
    tracer = Tracer()
    if any(b.failed for b in blocks):
        return blocks, tracer, [], {}, {}
    try:
        with tracer.installed():
            traced = run_blocks(harness, workload, args.seed, None,
                                replay=[b.k for b in blocks])
    except AttributeError as exc:       # a traced layer was renamed
        return blocks, tracer, [f"trace guard: {exc}"], {}, {}
    problems = guard(workload, tracer)
    if problems or any(b.failed for b in traced):
        return blocks + traced, tracer, problems, {}, {}
    return (blocks + traced, tracer, problems,
            *per_layer(tracer, traced, blocks))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "saturee" / "cli.py").is_file():
        print(f"error: no saturee sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from saturee import harness

    workload = WORKLOADS[args.workload]
    thread_vars = {name: value for name, value in sorted(os.environ.items())
                   if name.startswith(THREAD_VAR_PREFIXES)}
    if thread_vars:
        print(f"warning: thread variables set {thread_vars}; parent and "
              "change must run under identical settings", file=sys.stderr)

    # Let lazy set-up (BLAS pools, LAPACK bindings) finish before timing.
    execute(harness, workload.spec(harness, ROOT, args.seed, trials=1))
    binding_calls = {}
    problems: list[str] = []
    if args.trace:
        blocks, tracer, problems, metrics, extra = traced_run(
            harness, workload, args)
        binding_calls = dict(tracer.binding_calls)
    else:
        blocks, metrics, extra = untraced_run(harness, workload, args)
    failed = [b for b in blocks if b.failed]

    # After the measurement: git must not count among its children.
    env = environment(numpy, scipy, thread_vars)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "problems": problems + [p for b in failed for p in b.problems],
        "blocks": [asdict(b) for b in blocks],
        "binding_calls": binding_calls,
        "environment": env,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in record["problems"]:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  {len(blocks)} blocks "
          f"of {workload.trials} trials  record {out.relative_to(ROOT)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(b.trials for b in blocks),
        "failed": sum(b.trials for b in failed),
        "metrics": record["metrics"],
    }))
    return 0 if metrics and not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
