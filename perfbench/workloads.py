"""The benchmark's four workloads and the layer map that names its claims.

Each workload is one batch job driven from one process: one simulation
(or one sweep over ``nproc`` worker processes) built only from public
entry points — ``SystemSimulator``/``simulate`` and ``run_jobs``.  The
program receives only the generated inputs; the workload seed is the
benchmark's ``--seed``.

A *request* is one simulated main-memory request leaving the LLC: a read
or write-back a core hands to the level below it (PCM on the direct
path, the DRAM tier otherwise).

Nothing here imports ``repro`` at module level: a repetition times the
simulator's imports as part of its set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Requests per single-run simulation: a whole run at a realistic scale.
SINGLE_RUN_REQUESTS = 30_000
#: Requests per grid cell; twelve cells make one sweep.
GRID_CELL_REQUESTS = 10_000
#: DRAM-tier capacity of ``tier-kvstore``.  At the default 256 MB the
#: tier never evicts at this scale (0 write-backs over 30k accesses);
#: 1 MiB makes it fill, evict and send dirty write-backs to PCM, and it
#: keeps the default tier's ~90 MB preallocation out of the measurement.
TIER_CAPACITY_MB = 1
#: Sweep worker processes: ``nproc`` of the 2-vCPU benchmark host.
GRID_WORKERS = 2
#: The grid: the paper's six systems x one multi-threaded and one
#: multi-programmed workload, neither of them run by a single-run
#: workload.
GRID_WORKLOADS = ("facesim", "MP6")
#: Paper Fig. 11: rwow-rde IPC over baseline, averaged over workloads.
PAPER_IPC_GAIN_PCT = 16.6


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    trace: str
    #: One line: why the workload is in the benchmark.
    why: str
    #: Layers that do work here and that the workload exists to load.
    loads: Tuple[str, ...]
    #: Layers this workload bypasses: a change to one of them should
    #: leave every metric here unchanged.
    bypasses: Tuple[str, ...]
    functional: bool = False
    front_end_mb: Optional[int] = None
    #: Requests per simulation (single-run workloads).
    requests: int = SINGLE_RUN_REQUESTS
    grid: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pcmap-canneal",
            system="rwow-rde",
            trace="canneal",
            functional=True,
            why=(
                "full PCMap on canneal, functional: read-dominant (RPKI 15.2, "
                "WPKI 7.1) with the paper's worst rollback rate (5.8 %)"
            ),
            # Read-issue scans, RoW reconstruction, WoW grouping, deferred
            # verification, and real SECDED/PCC bits through ecc/storage.
            loads=("memory.controller", "memory.rank", "memory", "core",
                   "ecc", "cpu", "trace", "sim.engine", "sim.metrics"),
            bypasses=("cache", "sim.runner"),
        ),
        Workload(
            name="baseline-freqmine",
            system="baseline",
            trace="freqmine",
            # A fifth of freqmine's requests are reads: over 30k requests
            # its mean read latency moves by a 0.11 quartile spread between
            # seeds, over 60k by 0.04.
            requests=2 * SINGLE_RUN_REQUESTS,
            why=(
                "baseline on write-dominant freqmine (WPKI 3.33, RPKI 0.78): "
                "write drain and coarse writes; the PCMap policies sit idle"
            ),
            # The writes-heavy counterpart of pcmap-canneal in the
            # controller; IRLP-window bookkeeping is heaviest here.
            loads=("memory.controller", "memory.rank", "memory", "cpu",
                   "trace", "sim.engine", "sim.metrics"),
            bypasses=("core", "ecc", "cache", "sim.runner"),
        ),
        Workload(
            name="tier-kvstore",
            system="rwow-rde",
            trace="kvstore",
            front_end_mb=TIER_CAPACITY_MB,
            why=(
                f"rwow-rde x kvstore behind a {TIER_CAPACITY_MB} MiB DRAM "
                "tier that fills, evicts and writes back dirty lines to PCM"
            ),
            # The only workload that runs repro.cache: tags, replacement,
            # MSHR coalescing and write-back drain.
            loads=("cache", "memory.controller", "memory.rank", "memory",
                   "core", "cpu", "trace", "sim.engine", "sim.metrics"),
            bypasses=("ecc", "sim.runner"),
        ),
        Workload(
            name="sweep-grid",
            system="all six",
            trace="+".join(GRID_WORKLOADS),
            grid=True,
            why=(
                "six paper systems x facesim and MP6 through run_jobs with 2 "
                "workers, cache off; yields the headline rwow-rde IPC gain"
            ),
            # The only workload that measures the sweep runner; its
            # simulations run in worker processes, timing-only, direct path.
            loads=("sim.runner", "memory.controller", "memory.rank", "memory",
                   "core", "cpu", "trace", "sim.engine", "sim.metrics"),
            bypasses=("cache", "ecc"),
        ),
    )
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric should move.
    moves: str
    #: Workloads it should move on (others should see no change).
    on: Tuple[str, ...]


_SINGLE = ("pcmap-canneal", "baseline-freqmine", "tier-kvstore")
_ALL = _SINGLE + ("sweep-grid",)
_PCM = ("pcmap-canneal", "baseline-freqmine")

#: The workload -> layer -> metric map.  A later change names its claim
#: as ``metric`` on ``workload`` from this table and predicts "no
#: change" on every workload the layer is bypassed in.
LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("memory.controller.self_us_per_request", "us", "lower",
                "host_us_per_request", _PCM),
    LayerMetric("memory.controller.scheduler_passes_per_request", "1/req",
                "lower", "host_us_per_request", _PCM),
    # Simulated share of reads that waited behind writes (paper Fig. 1).
    LayerMetric("memory.controller.delayed_read_fraction", "ratio", "lower",
                "sim_read_latency_ns", _PCM),
    LayerMetric("memory.rank.self_us_per_request", "us", "lower",
                "host_us_per_request", _SINGLE),
    LayerMetric("memory.rank.ready_queries_per_request", "1/req", "lower",
                "host_us_per_request", _SINGLE),
    LayerMetric("memory.self_us_per_request", "us", "lower",
                "host_us_per_request", _SINGLE),
    LayerMetric("core.self_us_per_request", "us", "lower",
                "host_us_per_request", ("pcmap-canneal",)),
    LayerMetric("core.write_selections_per_request", "1/req", "lower",
                "host_us_per_request", ("pcmap-canneal",)),
    LayerMetric("core.row_reads_per_kread", "1/kread", "higher",
                "sim_ipc", ("pcmap-canneal",)),
    LayerMetric("core.wow_members_per_kwrite", "1/kwrite", "higher",
                "sim_write_throughput", ("pcmap-canneal",)),
    LayerMetric("core.irlp_avg", "chips", "higher",
                "sim_write_throughput", ("pcmap-canneal",)),
    LayerMetric("cache.self_us_per_request", "us", "lower",
                "host_us_per_request", ("tier-kvstore",)),
    LayerMetric("cache.hit_ratio", "ratio", "higher",
                "sim_read_latency_ns", ("tier-kvstore",)),
    LayerMetric("cache.evictions_per_kaccess", "1/kaccess", "lower",
                "peak_rss_mb", ("tier-kvstore",)),
    LayerMetric("cache.mshr_coalesced_per_kaccess", "1/kaccess", "higher",
                "host_us_per_request", ("tier-kvstore",)),
    LayerMetric("ecc.self_us_per_request", "us", "lower",
                "host_us_per_request", ("pcmap-canneal",)),
    LayerMetric("cpu.self_us_per_request", "us", "lower",
                "host_us_per_request", _SINGLE),
    LayerMetric("cpu.rollbacks_per_kread", "1/kread", "lower",
                "sim_ipc", _SINGLE),
    LayerMetric("trace.self_us_per_request", "us", "lower",
                "host_us_per_request", _ALL),
    LayerMetric("sim.engine.self_us_per_request", "us", "lower",
                "host_us_per_request", _ALL),
    LayerMetric("sim.engine.events_per_request", "1/req", "lower",
                "host_us_per_request", _ALL),
    LayerMetric("sim.metrics.self_us_per_request", "us", "lower",
                "host_us_per_request", ("baseline-freqmine",)),
    # Sweep wall beyond the jobs' own simulation time, per request.
    LayerMetric("sim.runner.overhead_us_per_request", "us", "lower",
                "host_us_per_request", ("sweep-grid",)),
    LayerMetric("sim.runner.worker_busy_share", "ratio", "higher",
                "host_us_per_request", ("sweep-grid",)),
    LayerMetric("unattributed_share", "ratio", "lower", "-", _ALL),
    # Traced wall over untraced wall of the same simulation work.
    LayerMetric("trace_overhead_ratio", "ratio", "lower", "-", _ALL),
)


@dataclass(frozen=True)
class EndToEndMetric:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END: Tuple[EndToEndMetric, ...] = (
    EndToEndMetric("host_us_per_request", "us", "lower", 0.2),
    EndToEndMetric("setup_s", "s", "lower", 0.25),
    EndToEndMetric("peak_rss_mb", "MB", "lower", 0.15),
    # The sim_* metrics repeat exactly for a seed; their bounds cover how
    # much they vary between seeds (quartile spreads up to 0.04).
    EndToEndMetric("sim_ipc", "instr/cycle", "higher", 0.15),
    EndToEndMetric("sim_read_latency_ns", "ns", "lower", 0.15),
    EndToEndMetric("sim_write_throughput", "writes/us", "higher", 0.15),
)


# ----------------------------------------------------------------------
# Building the runs (public entry points only)
# ----------------------------------------------------------------------
def build_single(workload: Workload, seed: int, requests: int):
    """``(simulator, written)`` for a single-run workload.

    The functional workload runs over a plain ``MemoryStorage`` passed
    through the public ``storage=`` argument, with write-back payloads
    from the public ``WritePayloadAdapter`` (the synthetic traces carry
    none, and a payload-less write never reaches storage).  ``written``
    collects the line of every write-back given a payload; it is
    ``None`` on timing-only workloads.
    """
    from repro.core.systems import make_front_end, make_system
    from repro.faults.payload import WritePayloadAdapter
    from repro.memory.storage import MemoryStorage
    from repro.sim.simulator import SimulationParams, SystemSimulator
    from repro.telemetry import Telemetry

    system = make_system(workload.system, functional=workload.functional)
    tier = {}
    if workload.front_end_mb is not None:
        tier["front_end"] = make_front_end(
            "dram", capacity_mb=workload.front_end_mb
        )
    params = SimulationParams(target_requests=requests, seed=seed, **tier)
    storage = None
    if workload.functional:
        storage = MemoryStorage(keep_pcc=system.geometry.has_pcc_chip)
    simulator = SystemSimulator(
        system, workload.trace, params, Telemetry.disabled(), storage
    )
    written = None
    if workload.functional:
        written = set()
        for core in simulator.multicore.cores:
            core.records = _recorded(
                WritePayloadAdapter(core.records, "random", seed, core.core_id),
                written,
            )
    return simulator, written


def _recorded(records, written: set):
    """Pass ``records`` through, noting the line of each payload."""
    for record in records:
        if record.new_words is not None:
            written.add(record.address // 64)
        yield record


def build_grid(seed: int, requests: int) -> List:
    """The sweep's jobs: six systems x :data:`GRID_WORKLOADS`."""
    from repro.core.systems import SYSTEM_NAMES
    from repro.sim.runner.jobs import SweepJob
    from repro.sim.simulator import SimulationParams

    # Embedded registry dumps give each cell's request count.
    params = SimulationParams(
        target_requests=requests, seed=seed, collect_metrics=True
    )
    return [
        SweepJob.build(trace, system, params)
        for trace in GRID_WORKLOADS
        for system in SYSTEM_NAMES
    ]


def grid_ipc_gain_pct(results) -> float:
    """Mean rwow-rde IPC gain over baseline across the grid's workloads."""
    by_cell = {(r.workload_name, r.system_name): r for r in results}
    gains = [
        by_cell[(trace, "rwow-rde")].ipc / by_cell[(trace, "baseline")].ipc - 1
        for trace in GRID_WORKLOADS
    ]
    return 100.0 * sum(gains) / len(gains)
