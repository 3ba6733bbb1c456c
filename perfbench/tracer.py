"""Spans and counters recorded around the package's public functions.

The benchmark measures the program from outside.  It replaces each traced
function at every module binding that holds it (``optim.rzf`` as well as
``beamform.rzf``, ``satpower.lambert_w0`` as well as
``specfun.lambert_w0``) and puts the originals back afterwards.  Spans nest
through a stack, so every call yields its inclusive time and its self time:
the inclusive time minus the part of it that child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "saturee"

# Layers timed in the traced run, as <module>.<function> of the package.
LAYERS = (
    "channel.generate",
    "beamform.rzf",
    "beamform.mrt",
    "beamform.sinr",
    "specfun.lambert_w0",
    "scalar_opt.golden_section_max",
    "scalar_opt.bisect_root_log",
    "asympt.det_equiv_rzf",
    "satpower.compute_band",
    "satpower.proposed_scheme",
    "optim.wmmse",
    "optim.dinkelbach_ee",
    "harness.format_csv",
)
# The experiment runners; their self time is the harness layer's.
HARNESS_RUNS = ("harness.run_sweep", "harness.run_tradeoff",
                "harness.run_compare")
# Counted but not timed: too cheap and too frequent for a span.
COUNTED = ("sysmodel.derive_power_model",)
# Solvers whose results carry a converged flag.
SOLVERS = ("optim.wmmse", "optim.dinkelbach_ee")
# Searches whose first argument is the objective; its calls are counted.
SEARCHES = ("scalar_opt.golden_section_max", "scalar_opt.bisect_root_log")


def resolve(layer: str):
    """The package function named by a layer; a rename raises here."""
    module, name = layer.split(".")
    return getattr(importlib.import_module(f"{PACKAGE}.{module}"), name)


def bindings(fn) -> list[tuple[str, object, str]]:
    """Every (label, module, attribute) of a loaded package module whose
    global namespace holds fn; callers reach it through one of these."""
    found = []
    for modname, module in sorted(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        short = modname.split(".", 1)[1] if "." in modname else PACKAGE
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((f"{short}.{attr}", module, attr))
    return found


@contextmanager
def patched(make_wrapper, layers):
    """Replace each layer's function at all its bindings with
    make_wrapper(layer, binding, fn) while the block runs."""
    saved = []
    try:
        for layer in layers:
            fn = resolve(layer)
            for label, module, attr in bindings(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, make_wrapper(layer, label, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class SolveCounter:
    """Flag-only count of solver results: no timing, so the end-to-end
    run pays one attribute read per solve."""

    def __init__(self) -> None:
        self.solves = 0
        self.nonconverged = 0

    def wrap(self, layer, binding, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.solves += 1
            if not result.converged:
                self.nonconverged += 1
            return result
        return counted

    @contextmanager
    def installed(self):
        with patched(self.wrap, SOLVERS):
            yield


class Tracer:
    """Per-layer call durations, self times and work counters."""

    def __init__(self) -> None:
        self._stack: list[float] = []      # child time covered, per open span
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()   # "<layer>.<stat>" -> total
        self.binding_calls: Counter = Counter()

    def span(self, layer, binding, fn):
        after = _RESULT_HOOKS.get(layer)
        searches = layer in SEARCHES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[binding] += 1
            if searches:
                args = (self._count_evals(layer, args[0]),) + args[1:]
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                covered = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.durations[layer].append(elapsed)
                self.self_seconds[layer] += elapsed - covered
            if after is not None:
                after(self.counts, layer, result)
            return result
        return traced

    def count(self, layer, binding, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.binding_calls[binding] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_evals(self, layer, objective):
        key = f"{layer}.evals"

        def counted(x):
            self.counts[key] += 1
            return objective(x)
        return counted

    @contextmanager
    def installed(self):
        with patched(self.span, LAYERS + HARNESS_RUNS), \
                patched(self.count, COUNTED):
            yield

    def calls(self, layer: str) -> int:
        return len(self.durations.get(layer, ()))


def _wmmse_done(counts, layer, result) -> None:
    counts[f"{layer}.iters"] += result.state.iteration
    counts[f"{layer}.nonconverged"] += not result.converged


def _dinkelbach_done(counts, layer, result) -> None:
    counts[f"{layer}.outer_steps"] += len(result.lambda_history)
    counts[f"{layer}.nonconverged"] += not result.converged


_RESULT_HOOKS = {"optim.wmmse": _wmmse_done,
                 "optim.dinkelbach_ee": _dinkelbach_done}
# The work counters each layer's calls add to Tracer.counts.
COUNTED_STATS = {
    "scalar_opt.golden_section_max": ("evals",),
    "scalar_opt.bisect_root_log": ("evals",),
    "optim.wmmse": ("iters", "nonconverged"),
    "optim.dinkelbach_ee": ("outer_steps", "nonconverged"),
}
