"""Per-layer attribution of a traced run, from outside the program.

The traced repetition runs under :mod:`cProfile`, a profiler hook the
benchmark installs; nothing under ``src/`` changes.  Each function's
self time goes to the layer of its module.  Self time of functions
outside the simulator (builtins, the standard library) goes to the
layers of their callers, in proportion to the time each caller spent in
them, so ``list.append`` inside the controller counts as controller
time.  What reaches no simulator frame is ``unattributed``.

cProfile charges a fixed cost per call, which inflates call-heavy layers;
shares are an attribution, not a measurement of speed.  Call counts are
exact and repeat for a seed.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Module prefix -> layer, longest prefix first.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.memory.controller", "memory.controller"),
    ("repro.memory.rank", "memory.rank"),
    ("repro.memory.storage", "ecc"),
    ("repro.memory", "memory"),
    ("repro.core", "core"),
    ("repro.cache", "cache"),
    ("repro.ecc", "ecc"),
    ("repro.cpu", "cpu"),
    ("repro.trace", "trace"),
    # Write-back payloads of the functional workload are trace input.
    ("repro.faults.payload", "trace"),
    # The simulator's run loop only drives the engine.
    ("repro.sim.simulator", "sim.engine"),
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.metrics", "sim.metrics"),
    ("repro.telemetry", "sim.metrics"),
    ("repro.sim.runner", "sim.runner"),
    ("repro.sim.campaign", "sim.runner"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS))

#: Deterministic call counts: count name -> (module prefix, functions).
COUNTED_CALLS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "scheduler_passes": ("repro.memory.controller", ("_schedule_once",)),
    "ready_queries": (
        "repro.memory.rank", ("read_ready_time", "write_ready_time")
    ),
    "write_selections": ("repro.core", ("select_write_candidate",)),
}

Func = Tuple[str, int, str]


def module_of(filename: str, src_root: str) -> str:
    """Dotted module of a profiled code object under ``src_root``."""
    path = os.path.realpath(filename)
    if not path.startswith(src_root + os.sep) or not path.endswith(".py"):
        return ""
    return path[len(src_root) + 1:-3].replace(os.sep, ".")


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return ""


def attribute(
    stats: dict, src_root: str
) -> Tuple[Dict[str, float], float, Dict[str, int]]:
    """Fold ``pstats.Stats.stats`` into ``(layer seconds, total, counts)``."""
    modules = {func: module_of(func[0], src_root) for func in stats}
    owners: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func, visiting: set) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        layer = layer_of_module(modules.get(func, ""))
        if layer:
            share = {layer: 1.0}
        elif func in visiting or func not in stats:
            return {}
        else:
            visiting.add(func)
            callers = stats[func][4]
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[1] for c, v in callers.items()}
                total = sum(weights.values())
            share = {}
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                for name, part in owner(caller, visiting).items():
                    share[name] = share.get(name, 0.0) + part * weight / total
            visiting.discard(func)
        owners[func] = share
        return share

    seconds = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        total += tottime
        for layer, part in owner(func, set()).items():
            seconds[layer] += tottime * part

    counts = {name: 0 for name in COUNTED_CALLS}
    for func, entry in stats.items():
        module = modules[func]
        for name, (prefix, functions) in COUNTED_CALLS.items():
            if func[2] in functions and _under(module, prefix):
                counts[name] += entry[1]
    return seconds, total, counts


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def profile_call(fn, *args):
    """``(fn(*args), pstats stats dict)``."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn(*args)
    finally:
        profiler.disable()
    return value, pstats.Stats(profiler).stats

