"""The hot-path microbenchmarks and the suite assembler.

Each ``bench_*`` function returns a :class:`~repro.perf.microbench.BenchReport`
whose ``config`` is a pure function of ``(seed, smoke)`` — the determinism
test holds configs and metric *keys* identical across same-seed runs,
while the timing *values* are free to vary.

``run_suite`` stitches the reports into the ``BENCH_perf.json`` payload:
seed- and git-stamped, carrying the committed pre-optimisation baseline
block so the headline speedups stay attributable to a concrete revision.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.perf.microbench import BenchReport, paired_ratio, time_call

SCHEMA_VERSION = 1

#: Hot-path numbers measured at the pre-optimisation revision (full
#: budgets, seed 7, development machine).  The end-to-end entry is the
#: suite's own rwow-rde/canneal/3000-request run.  These are the
#: denominators of the ``*_vs_pre_pr`` speedups; they are machine-bound,
#: so cross-machine comparisons should use the ``*_vs_reference`` ratios
#: instead.
PRE_PR_BASELINE: Dict[str, object] = {
    "code_version": "46cee17",
    "note": (
        "Measured at the pre-optimization commit with full (non-smoke) "
        "budgets, seed 7, on the development machine."
    ),
    "metrics": {
        "codec.encode_us": 4.143,
        "codec.decode_us": 14.510,
        "storage.cold_line_us": 41.889,
        "engine.dispatch_us": 2.664,
        "end_to_end.wall_seconds": 0.901,
        "end_to_end.events_per_second": 6920.0,
    },
}

#: The suite's own numbers as committed at the end of the previous PR
#: (the scalar-scheduler revision the vectorized codec/storage PR starts
#: from).  Denominators of the ``*_vs_pr6`` speedups.  Single-shot wall
#: ratios on a shared box carry ±20% noise; interleaved same-box A/B
#: pairs against this revision measured a ~1.7x median end-to-end
#: speedup (10 pairs, per-pair ratios 1.5-1.9).
PR6_BASELINE: Dict[str, object] = {
    "code_version": "a696ba5",
    "note": (
        "Suite results committed at the previous PR head (full budgets, "
        "seed 7, development machine)."
    ),
    "metrics": {
        "codec.encode_us": 0.529,
        "codec.decode_us": 1.531,
        "storage.cold_line_us": 11.350,
        "storage.write_line_us": 3.823,
        "storage.diff_mask_us": 0.919,
        "engine.dispatch_us": 1.270,
        "end_to_end.wall_seconds": 0.29692,
        "end_to_end.events_per_second": 20712.5,
    },
}


def _repeats(smoke: bool) -> int:
    return 2 if smoke else 5


# ----------------------------------------------------------------------
# Codec: table-driven Hamming(72,64) vs the bit-loop reference
# ----------------------------------------------------------------------
def bench_codec(seed: int, smoke: bool = False) -> BenchReport:
    """Per-word encode/decode cost, fast path and reference side by side.

    The reference timings make the headline codec speedup machine
    independent: both implementations run in the same process on the same
    random words.
    """
    from repro.ecc.hamming import (
        _decode_reference,
        _encode_reference,
        decode,
        encode,
    )

    n_words = 400 if smoke else 2000
    rng = random.Random(seed * 9176 + 11)
    words = [rng.getrandbits(64) for _ in range(n_words)]
    pairs = [(w, encode(w)) for w in words]
    repeats = _repeats(smoke)

    def run_encode() -> None:
        for w in words:
            encode(w)

    def run_encode_reference() -> None:
        for w in words:
            _encode_reference(w)

    def run_decode() -> None:
        for w, c in pairs:
            decode(w, c)

    def run_decode_reference() -> None:
        for w, c in pairs:
            _decode_reference(w, c)

    scale = 1e6 / n_words  # seconds/batch -> microseconds/word
    encode_us = time_call(run_encode, repeats) * scale
    encode_ref_us = time_call(run_encode_reference, repeats) * scale
    decode_us = time_call(run_decode, repeats) * scale
    decode_ref_us = time_call(run_decode_reference, repeats) * scale
    return BenchReport(
        name="codec",
        config={"words": n_words, "seed": seed, "repeats": repeats},
        metrics={
            "encode_us": encode_us,
            "encode_reference_us": encode_ref_us,
            "decode_us": decode_us,
            "decode_reference_us": decode_ref_us,
            "encode_vs_reference": encode_ref_us / encode_us,
            "decode_vs_reference": decode_ref_us / decode_us,
        },
    )


# ----------------------------------------------------------------------
# Batch codec: repro.ecc.batch arrays vs the scalar word loop
# ----------------------------------------------------------------------
def bench_batch_codec(seed: int, smoke: bool = False) -> BenchReport:
    """Vectorized SECDED throughput against the scalar per-word loop.

    Both paths run in the same process on the same words, so the
    ``*_vs_scalar`` ratios are machine independent — they are the
    numbers the >=5x codec gate in :func:`check_payload` holds.  On a
    scalar-only build (no numpy, or ``REPRO_NO_NUMPY``) the report
    carries the scalar timings alone and the gate does not apply.
    """
    from repro.ecc import batch, hamming

    n_words = 2_000 if smoke else 20_000
    rng = random.Random(seed * 4243 + 17)
    words = [rng.getrandbits(64) for _ in range(n_words)]
    checks = [hamming.encode(w) for w in words]
    repeats = _repeats(smoke)
    scale = 1e6 / n_words

    def run_scalar_encode() -> None:
        for w in words:
            hamming.encode(w)

    def run_scalar_decode() -> None:
        for w, c in zip(words, checks):
            hamming.decode(w, c)

    metrics: Dict[str, float] = {
        "scalar_encode_us": time_call(run_scalar_encode, repeats) * scale,
        "scalar_decode_us": time_call(run_scalar_decode, repeats) * scale,
    }
    if batch.HAS_NUMPY:
        np = batch.np
        arr = np.array(words, dtype=np.uint64)
        checks_arr = np.array(checks, dtype=np.uint8)

        def run_batch_encode() -> None:
            batch.encode_words(arr)

        def run_batch_decode() -> None:
            batch.decode_words(arr, checks_arr)

        metrics["batch_encode_us"] = (
            time_call(run_batch_encode, repeats) * scale
        )
        metrics["batch_decode_us"] = (
            time_call(run_batch_decode, repeats) * scale
        )
        metrics["encode_vs_scalar"] = (
            metrics["scalar_encode_us"] / metrics["batch_encode_us"]
        )
        metrics["decode_vs_scalar"] = (
            metrics["scalar_decode_us"] / metrics["batch_decode_us"]
        )
    return BenchReport(
        name="batch_codec",
        config={
            "words": n_words,
            "seed": seed,
            "repeats": repeats,
            "numpy": batch.HAS_NUMPY,
        },
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# Storage: cold-line materialisation, differential writes, diff masks
# ----------------------------------------------------------------------
def bench_storage(seed: int, smoke: bool = False) -> BenchReport:
    """Backing-store hot paths on a batch of random lines.

    The cold-line run clears the process-wide templates first, so it
    measures true first-touch cost (pattern + line encode + parity), not
    memo hits.
    """
    from repro.memory import storage as storage_mod
    from repro.memory.request import WORDS_PER_LINE
    from repro.memory.storage import MemoryStorage

    n_lines = 128 if smoke else 512
    rng = random.Random(seed * 7351 + 5)
    addresses = rng.sample(range(1 << 20), n_lines)
    masks = [rng.randrange(1, 1 << WORDS_PER_LINE) for _ in addresses]
    new_lines = [
        tuple(rng.getrandbits(64) for _ in range(WORDS_PER_LINE))
        for _ in addresses
    ]
    repeats = _repeats(smoke)

    def run_cold() -> None:
        storage_mod._cold_pattern.cache_clear()
        storage_mod._cold_line.cache_clear()
        store = MemoryStorage(keep_pcc=True)
        for address in addresses:
            store.read_line(address)

    def run_prefetch() -> None:
        # Same first-touch work as run_cold, via the batch entry point
        # (vector path when numpy is present, scalar loop otherwise).
        storage_mod._cold_pattern.cache_clear()
        storage_mod._cold_line.cache_clear()
        store = MemoryStorage(keep_pcc=True)
        store.prefetch(addresses)

    warm = MemoryStorage(keep_pcc=True)
    for address in addresses:
        warm.read_line(address)

    def run_write() -> None:
        for address, words, mask in zip(addresses, new_lines, masks):
            warm.write_line(address, words, mask)

    def run_diff() -> None:
        for address, words in zip(addresses, new_lines):
            warm.diff_mask(address, words)

    scale = 1e6 / n_lines
    return BenchReport(
        name="storage",
        config={"lines": n_lines, "seed": seed, "repeats": repeats},
        metrics={
            "cold_line_us": time_call(run_cold, repeats) * scale,
            "prefetch_us": time_call(run_prefetch, repeats) * scale,
            "write_line_us": time_call(run_write, repeats) * scale,
            "diff_mask_us": time_call(run_diff, repeats) * scale,
        },
    )


# ----------------------------------------------------------------------
# Trace generation: the synthetic per-core record stream
# ----------------------------------------------------------------------
def bench_trace_gen(seed: int, smoke: bool = False) -> BenchReport:
    """Throughput of the epoch-batched synthetic trace generator.

    Builds a fresh generator per repeat (cold streams, cold rng) and
    drains a fixed record count through :meth:`take` — the same path the
    simulator's cores consume.
    """
    from repro.trace.synthetic import SyntheticTraceGenerator
    from repro.trace.workloads import get_workload

    n_records = 5_000 if smoke else 20_000
    repeats = _repeats(smoke)
    profile = get_workload("canneal")

    def run_take() -> None:
        generator = SyntheticTraceGenerator(
            profile, seed=seed, core_id=0, n_cores=8
        )
        generator.take(n_records)

    record_us = time_call(run_take, repeats) * 1e6 / n_records
    return BenchReport(
        name="trace_gen",
        config={
            "workload": "canneal",
            "records": n_records,
            "seed": seed,
            "repeats": repeats,
        },
        metrics={
            "record_us": record_us,
            "records_per_second": 1e6 / record_us,
        },
    )


# ----------------------------------------------------------------------
# Engine: event dispatch throughput, fast path and handle path
# ----------------------------------------------------------------------
def bench_engine_dispatch(seed: int, smoke: bool = False) -> BenchReport:
    """Cost of scheduling + dispatching one event through the heap loop.

    ``dispatch_us`` uses :meth:`Engine.call_at` (the allocation-free path
    completions ride); ``dispatch_handle_us`` uses
    :meth:`Engine.schedule_at` (cancellable, allocates an EventHandle).
    """
    from repro.sim.engine import Engine

    n_events = 5_000 if smoke else 20_000
    repeats = _repeats(smoke)
    sink: List[int] = []

    def consume(value: int) -> None:
        sink.append(value)

    def run_call_at() -> None:
        sink.clear()
        engine = Engine()
        for i in range(n_events):
            engine.call_at(i, consume, i)
        engine.run()

    def run_schedule_at() -> None:
        sink.clear()
        engine = Engine()
        noop = sink.clear
        for i in range(n_events):
            engine.schedule_at(i, noop)
        engine.run()

    scale = 1e6 / n_events
    return BenchReport(
        name="engine",
        config={"events": n_events, "seed": seed, "repeats": repeats},
        metrics={
            "dispatch_us": time_call(run_call_at, repeats) * scale,
            "dispatch_handle_us": time_call(run_schedule_at, repeats) * scale,
        },
    )


# ----------------------------------------------------------------------
# End to end: one full rwow-rde timing-only run
# ----------------------------------------------------------------------
def bench_end_to_end(seed: int, smoke: bool = False) -> BenchReport:
    """One complete rwow-rde/canneal simulation, wall-clocked.

    Single run (no best-of): the simulation itself dominates and the
    events-per-second figure is the tracked number.  ``sim_ticks`` and
    ``events_dispatched`` double as behavioural fingerprints — they are
    deterministic for a given (seed, budget) and must not move under
    purely mechanical optimisation.
    """
    import time

    from repro.core.systems import make_rwow_rde
    from repro.sim.simulator import SimulationParams, simulate

    target_requests = 600 if smoke else 3000
    params = SimulationParams(target_requests=target_requests, seed=seed)
    t0 = time.perf_counter()
    result = simulate(make_rwow_rde(), "canneal", params)
    wall = time.perf_counter() - t0
    events = result.profile.events_dispatched if result.profile else 0
    return BenchReport(
        name="end_to_end",
        config={
            "system": "rwow-rde",
            "workload": "canneal",
            "target_requests": target_requests,
            "n_cores": params.n_cores,
            "seed": seed,
        },
        metrics={
            "wall_seconds": wall,
            "events_dispatched": float(events),
            "events_per_second": events / wall if wall > 0 else 0.0,
            "sim_ticks": float(result.sim_ticks),
        },
    )


# ----------------------------------------------------------------------
# Time-series sampling overhead: the same run, telemetry off vs on
# ----------------------------------------------------------------------
def bench_timeseries(seed: int, smoke: bool = False) -> BenchReport:
    """Cost of enabling the time-series sampler at its default cadence.

    Runs the end-to-end configuration plain and with
    ``sample_every_ticks`` + ``collect_metrics`` in off/on pairs whose
    order alternates; ``overhead_ratio`` is the median of the per-pair
    wall ratios (:func:`~repro.perf.microbench.paired_ratio`).
    ``samples`` is the deterministic sample count, so the determinism test
    pins the sampler's cadence behaviour for free.  The ``overhead_ratio``
    ceiling is gated in :func:`check_payload` at full budgets only; smoke
    runs are too short for a stable ratio.
    """
    from repro.core.systems import make_rwow_rde
    from repro.sim.simulator import SimulationParams, simulate
    from repro.telemetry.timeseries import DEFAULT_CADENCE_TICKS

    target_requests = 600 if smoke else 3000
    pairs = 2 if smoke else 5
    plain = SimulationParams(target_requests=target_requests, seed=seed)
    observed = SimulationParams(
        target_requests=target_requests,
        seed=seed,
        sample_every_ticks=DEFAULT_CADENCE_TICKS,
        collect_metrics=True,
    )
    samples: Dict[str, int] = {}

    def run_off() -> None:
        simulate(make_rwow_rde(), "canneal", plain)

    def run_on() -> None:
        result = simulate(make_rwow_rde(), "canneal", observed)
        samples["taken"] = result.timeseries["total_samples"]

    ratio, wall_off, wall_on = paired_ratio(run_off, run_on, pairs)
    return BenchReport(
        name="timeseries",
        config={
            "system": "rwow-rde",
            "workload": "canneal",
            "target_requests": target_requests,
            "cadence_ticks": DEFAULT_CADENCE_TICKS,
            "seed": seed,
            "pairs": pairs,
        },
        metrics={
            "wall_off_seconds": wall_off,
            "wall_on_seconds": wall_on,
            "overhead_ratio": ratio,
            "samples": float(samples["taken"]),
        },
    )


#: Ceiling for the sampling overhead ratio at full budgets.  The issue
#: budget is 5%; the gate sits higher so timer noise on a loaded CI box
#: cannot flake it, while a hot-path mistake (sampling per event instead
#: of per boundary) still trips it instantly.
TIMESERIES_OVERHEAD_CEILING = 1.15


# ----------------------------------------------------------------------
# Suite assembly
# ----------------------------------------------------------------------
def run_suite(seed: int = 7, smoke: bool = False) -> dict:
    """Run all seven benchmarks; returns the ``BENCH_perf.json`` payload."""
    from repro.analysis.regress import (
        collect_fingerprint,
        collect_frontend_fingerprint,
    )
    from repro.sim.results_io import code_version

    reports = [
        bench_codec(seed, smoke),
        bench_batch_codec(seed, smoke),
        bench_storage(seed, smoke),
        bench_engine_dispatch(seed, smoke),
        bench_trace_gen(seed, smoke),
        bench_end_to_end(seed, smoke),
        bench_timeseries(seed, smoke),
    ]
    # Deterministic (non-timing) metrics of the reference run — the
    # regression sentinel's pinned baseline, direct-path and front-end
    # (dram tier) legs.  Smoke suites pin only the smoke budgets; the
    # committed full run pins all four so CI can diff cheaply against
    # any of them.
    fingerprints = {
        "smoke": collect_fingerprint(smoke=True, seed=seed),
        "frontend_smoke": collect_frontend_fingerprint(
            smoke=True, seed=seed
        ),
    }
    if not smoke:
        fingerprints["full"] = collect_fingerprint(smoke=False, seed=seed)
        fingerprints["frontend_full"] = collect_frontend_fingerprint(
            smoke=False, seed=seed
        )
    by_name = {report.name: report for report in reports}
    speedups: Dict[str, float] = {
        "codec.encode_vs_reference":
            by_name["codec"].metrics["encode_vs_reference"],
        "codec.decode_vs_reference":
            by_name["codec"].metrics["decode_vs_reference"],
    }
    batch_metrics = by_name["batch_codec"].metrics
    if "encode_vs_scalar" in batch_metrics:
        speedups["batch_codec.encode_vs_scalar"] = (
            batch_metrics["encode_vs_scalar"]
        )
        speedups["batch_codec.decode_vs_scalar"] = (
            batch_metrics["decode_vs_scalar"]
        )
    if not smoke:
        # Machine-bound ratios against the committed pre-optimisation
        # numbers; only meaningful at full budgets (the baseline was
        # measured with them).
        baseline = PRE_PR_BASELINE["metrics"]
        speedups["codec.encode_vs_pre_pr"] = (
            baseline["codec.encode_us"] / by_name["codec"].metrics["encode_us"]
        )
        speedups["codec.decode_vs_pre_pr"] = (
            baseline["codec.decode_us"] / by_name["codec"].metrics["decode_us"]
        )
        speedups["storage.cold_line_vs_pre_pr"] = (
            baseline["storage.cold_line_us"]
            / by_name["storage"].metrics["cold_line_us"]
        )
        speedups["engine.dispatch_vs_pre_pr"] = (
            baseline["engine.dispatch_us"]
            / by_name["engine"].metrics["dispatch_us"]
        )
        speedups["end_to_end.vs_pre_pr"] = (
            baseline["end_to_end.wall_seconds"]
            / by_name["end_to_end"].metrics["wall_seconds"]
        )
        pr6 = PR6_BASELINE["metrics"]
        speedups["storage.cold_line_vs_pr6"] = (
            pr6["storage.cold_line_us"]
            / by_name["storage"].metrics["cold_line_us"]
        )
        speedups["storage.write_line_vs_pr6"] = (
            pr6["storage.write_line_us"]
            / by_name["storage"].metrics["write_line_us"]
        )
        speedups["engine.dispatch_vs_pr6"] = (
            pr6["engine.dispatch_us"]
            / by_name["engine"].metrics["dispatch_us"]
        )
        speedups["end_to_end.vs_pr6"] = (
            pr6["end_to_end.wall_seconds"]
            / by_name["end_to_end"].metrics["wall_seconds"]
        )
    return {
        "schema": SCHEMA_VERSION,
        "suite": "perf",
        "seed": seed,
        "smoke": smoke,
        "code_version": code_version(),
        "baseline": PRE_PR_BASELINE,
        "baseline_pr6": PR6_BASELINE,
        "benchmarks": [report.to_dict() for report in reports],
        "speedups": {k: speedups[k] for k in sorted(speedups)},
        "metrics_fingerprint": fingerprints,
    }


def check_payload(payload: dict) -> List[str]:
    """Gross-regression gate for CI; returns failure messages (empty = ok).

    Only machine-independent ratios are gated: both codec implementations
    run in the same process on the same words, so their ratio is stable
    across machines.  Typical values are ~2.5x (encode — the reference's
    eight ``bit_count`` parities are themselves cheap) and ~6-8x (decode);
    the floors sit far below those, so tripping one means the fast path
    grossly regressed or the suite timed the wrong function.  The
    machine-bound ``*_vs_pre_pr`` numbers are recorded but never gated.
    """
    failures: List[str] = []
    speedups = payload.get("speedups", {})
    floors = {
        "codec.encode_vs_reference": 1.2,
        "codec.decode_vs_reference": 2.0,
    }
    for key, floor in floors.items():
        ratio = speedups.get(key)
        if ratio is None:
            failures.append(f"missing speedup metric {key!r}")
        elif ratio < floor:
            failures.append(
                f"{key} = {ratio:.2f}x, below the {floor}x "
                "gross-regression floor"
            )
    for report in payload.get("benchmarks", []):
        for metric, value in report.get("metrics", {}).items():
            if not value > 0:
                failures.append(
                    f"benchmark {report['name']!r} metric {metric!r} "
                    f"is non-positive ({value})"
                )
        if report.get("name") == "batch_codec" and report.get(
            "config", {}
        ).get("numpy"):
            # The vectorized codec's headline contract: >=5x over the
            # scalar loop whenever numpy is present.  Same-process
            # ratios, so the gate is machine independent; measured
            # values sit at ~20-40x, far above the floor.
            for key in ("encode_vs_scalar", "decode_vs_scalar"):
                ratio = report.get("metrics", {}).get(key)
                if ratio is None:
                    failures.append(
                        f"batch_codec missing metric {key!r} on a numpy "
                        "build"
                    )
                elif ratio < 5.0:
                    failures.append(
                        f"batch_codec.{key} = {ratio:.2f}x, below the 5x "
                        "vectorization floor"
                    )
        if report.get("name") == "timeseries" and not payload.get("smoke"):
            ratio = report.get("metrics", {}).get("overhead_ratio")
            if ratio is not None and ratio > TIMESERIES_OVERHEAD_CEILING:
                failures.append(
                    f"timeseries overhead_ratio = {ratio:.3f}, above the "
                    f"{TIMESERIES_OVERHEAD_CEILING}x ceiling (sampling is "
                    "supposed to be off the hot path)"
                )
    return failures


def format_payload(payload: dict) -> str:
    """Human-readable report of a suite payload."""
    from repro.analysis import format_table

    rows = []
    for report in payload["benchmarks"]:
        for metric, value in report["metrics"].items():
            rows.append([report["name"], metric, f"{value:,.3f}"])
    lines = [
        format_table(
            ["benchmark", "metric", "value"],
            rows,
            title=(
                f"perf suite (seed {payload['seed']}, "
                f"{'smoke' if payload['smoke'] else 'full'} budget, "
                f"code {payload['code_version']})"
            ),
        ),
        "",
        format_table(
            ["speedup", "ratio"],
            [[k, f"{v:.2f}x"] for k, v in payload["speedups"].items()],
            title=f"speedups (baseline: {payload['baseline']['code_version']})",
        ),
    ]
    return "\n".join(lines)


def default_output_path(root: Optional[str] = None) -> str:
    """Canonical location of the committed suite results."""
    import os

    if root is None:
        root = os.getcwd()
    return os.path.join(root, "benchmarks", "results", "BENCH_perf.json")
