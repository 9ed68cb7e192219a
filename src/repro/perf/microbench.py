"""Micro-timing primitives shared by the perf suite.

Deliberately dependency-free (``time.perf_counter`` only): the suite runs
in CI's smoke job, so the measurement layer must work everywhere the
simulator does.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


def time_call(fn: Callable[[], object], repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of one ``fn()`` call, in seconds.

    ``fn`` is expected to loop over its own batch internally (so per-item
    times are ``time_call(fn) / batch``).  Best-of rather than mean: the
    minimum is the least noise-contaminated estimate of the code's cost.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fn()  # untimed warmup: interpreter specialisation, memo fills, caches
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def paired_ratio(
    base: Callable[[], object],
    variant: Callable[[], object],
    pairs: int = 5,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[float, float, float]:
    """Median ``variant``/``base`` wall ratio over back-to-back pairs.

    The side that runs first alternates from pair to pair, so load drift
    lands on both sides instead of on one block of runs.  Also returns
    each side's best wall time, in seconds.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    sides = (base, variant)
    for fn in sides:
        fn()  # untimed warmup, as in time_call
    walls: Tuple[List[float], List[float]] = ([], [])
    for i in range(pairs):
        for side in (i % 2, 1 - i % 2):
            t0 = clock()
            sides[side]()
            walls[side].append(clock() - t0)
    ratios = [on / off for off, on in zip(*walls)]
    return statistics.median(ratios), min(walls[0]), min(walls[1])


@dataclass
class BenchReport:
    """One microbenchmark's outcome.

    ``config`` holds everything that determines *what* was measured (batch
    sizes, seeds, workload names) — the determinism test asserts it is
    identical across same-seed runs.  ``metrics`` holds the measured
    numbers; timing entries naturally vary between runs, only their *keys*
    are required to be stable.
    """

    name: str
    config: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config": dict(self.config),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }
