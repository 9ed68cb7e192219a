"""Full-system driver: cores, controllers and the PCM memory together.

One :class:`SystemSimulator` runs one (system config, workload) pair to a
fixed per-core instruction budget and returns a
:class:`~repro.sim.metrics.SimulationResult` with everything the paper's
figures report (IPC, IRLP, effective read latency, write throughput,
delayed-read fraction, rollbacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.cache.frontend import DramCacheFrontEnd, FrontEndConfig
from repro.core.config import SystemConfig
from repro.core.row import ReadOverWritePolicy
from repro.core.wow import WriteOverWritePolicy
from repro.cpu.core import CoreParams
from repro.cpu.multicore import Multicore
from repro.memory.memsys import MainMemory
from repro.memory.storage import MemoryStorage
from repro.sim.engine import Engine
from repro.sim.metrics import MemoryStats, SimulationResult, publish_counters
from repro.telemetry import RunProfile, Telemetry, WallClock
from repro.telemetry.timeseries import DEFAULT_CAPACITY, TimeseriesSampler
from repro.trace.workloads import WorkloadProfile, get_workload


@dataclass(frozen=True)
class SimulationParams:
    """Run-scale knobs (the paper runs 1 B instructions after warm-up; we
    default to a budget that keeps a 6-system x 12-workload sweep fast)."""

    n_cores: int = 8
    instructions_per_core: int = 60_000
    #: When set, instructions_per_core is derived per workload so that
    #: roughly this many main-memory requests are simulated in total —
    #: low-MPKI workloads then get enough requests to reach steady state.
    target_requests: Optional[int] = None
    seed: int = 1
    core_params: CoreParams = CoreParams()
    #: Safety valve for the event loop (ticks); never binds in practice.
    max_ticks: int = 40_000_000_000
    #: Simulated-tick cadence for the time-series sampler; ``None`` (the
    #: default) disables sampling entirely — no sampler is built and the
    #: engine's drain loop never calls a boundary hook.  Sampling never
    #: changes the event stream, so golden traces and perf fingerprints
    #: are the same either way.
    sample_every_ticks: Optional[int] = None
    #: Ring capacity of the time-series buffer (oldest samples drop
    #: first once exceeded).
    timeseries_capacity: int = DEFAULT_CAPACITY
    #: Embed the final metrics-registry dump in the result (JSON-safe,
    #: survives pickling across sweep worker processes).
    collect_metrics: bool = False
    #: Simulated cache front end between the cores and main memory.  The
    #: default (``kind="none"``) builds nothing and keeps the run loop
    #: byte-identical to the historical direct-to-PCM path — golden
    #: traces and perf fingerprints are pinned against it.  With
    #: ``kind="dram"`` the DRAM cache becomes a timed tier: hits complete
    #: after ``access_cycles``, misses coalesce in MSHRs and fetch from
    #: PCM, dirty evictions issue write-backs into the controller queues.
    front_end: FrontEndConfig = FrontEndConfig()

    def resolve_instructions(self, workload: WorkloadProfile) -> int:
        """Per-core instruction budget for ``workload``."""
        if self.target_requests is None:
            return self.instructions_per_core
        per_core = self.target_requests * 1000.0 / (
            max(workload.mpki, 1e-6) * self.n_cores
        )
        return max(5_000, int(per_core))


class SystemSimulator:
    """Build-and-run wrapper for one configuration/workload pair."""

    def __init__(
        self,
        system: SystemConfig,
        workload: Union[str, WorkloadProfile],
        params: Optional[SimulationParams] = None,
        telemetry: Optional[Telemetry] = None,
        storage: Optional["MemoryStorage"] = None,
    ):
        if isinstance(workload, str):
            workload = get_workload(workload)
        self.workload = workload
        self.params = params or SimulationParams()
        # Wire the workload's Table IV rollback rate into the controller's
        # verification model unless the config pinned one explicitly.
        if system.enable_row and system.row_rollback_rate == 0.0:
            system = system.with_rollback_rate(workload.rollback_rate)
        self.system = system

        #: Tracer + metrics bundle threaded through the controller stack;
        #: defaults to metrics-only (tracing off, one attribute check per
        #: emit site).
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        #: Populated by :meth:`run` when ``params.sample_every_ticks`` is set.
        self.sampler: Optional[TimeseriesSampler] = None
        self.engine = Engine()
        self.memory = MainMemory(
            self.engine, system, seed=self.params.seed,
            storage=storage, telemetry=self.telemetry,
        )
        #: Timed DRAM-cache tier between the cores and PCM; ``None`` on
        #: the default direct path (``front_end.kind == "none"``), where
        #: nothing is constructed and the event stream stays bit-identical.
        self.frontend: Optional[DramCacheFrontEnd] = None
        if self.params.front_end.enabled:
            self.frontend = DramCacheFrontEnd(
                self.engine,
                self.memory,
                self.params.front_end,
                cycle_ticks=self.params.core_params.cycle_ticks,
            )
        self.multicore = Multicore(
            self.engine,
            self.memory,
            workload,
            n_cores=self.params.n_cores,
            params=self.params.core_params,
            instructions_per_core=self.params.resolve_instructions(workload),
            seed=self.params.seed,
            port=self.frontend,
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute until every core retires its budget; collect metrics."""
        self.sampler = self._build_sampler()
        with WallClock() as clock:
            self.multicore.start()
            # The engine drains in place with all loop state in locals
            # and same-tick entries batched; the multicore's last finish
            # hook latches the stop, so no per-event done-poll runs.
            # Sampling hooks the drain's new-tick branch: it schedules no
            # events and mutates no model state, so events_dispatched/
            # sim_ticks match the unsampled run.
            self.engine.run_until_stop(
                max_ticks=self.params.max_ticks,
                on_boundary=(
                    None if self.sampler is None else self.sampler.maybe_sample
                ),
            )
            if not self.multicore.all_done:
                raise RuntimeError(
                    "simulation deadlocked: no pending events but cores "
                    "have not finished"
                )
        return self._collect(clock.elapsed)

    def _build_sampler(self) -> Optional[TimeseriesSampler]:
        """Wire the standard probe set when sampling is enabled.

        Probe registration order is fixed (outstanding reads, per-channel
        queue depths, write-engine occupancy, open windows, rollbacks,
        recent IRLP) so identically-configured runs produce identical
        column layouts — the cross-worker merge depends on that.
        """
        cadence = self.params.sample_every_ticks
        if cadence is None:
            return None
        sampler = TimeseriesSampler(
            cadence_ticks=cadence, capacity=self.params.timeseries_capacity
        )
        reads_in = self.telemetry.metrics.counter("requests.read.enqueued")
        controllers = self.memory.controllers
        sampler.add_probe(
            "reads.outstanding",
            lambda: reads_in.value
            - sum(c.stats.reads_completed for c in controllers),
        )
        for controller in controllers:
            channel = controller.channel_id
            sampler.add_probe(
                f"ch{channel}.queue.read.depth",
                lambda c=controller: len(c.read_q),
            )
            sampler.add_probe(
                f"ch{channel}.queue.write.depth",
                lambda c=controller: len(c.write_q),
            )
        # Fine-grained write engines exist only on PCMap-style controllers;
        # coarse systems report a constant 0 occupancy.
        engines = [c.fine for c in controllers if hasattr(c, "fine")]
        sampler.add_probe(
            "write_engine.inflight",
            lambda: sum(engine.inflight for engine in engines),
        )
        sampler.add_probe(
            "write.windows_open",
            lambda: sum(c.open_window_count for c in controllers),
        )
        cores = self.multicore.cores
        sampler.add_probe(
            "rollbacks.cumulative",
            lambda: sum(core.rollback_model.rollbacks for core in cores),
        )
        sampler.add_probe("irlp.recent", self._recent_irlp)
        # DRAM-tier probes trail the fixed set and appear only when the
        # front end is built, so direct-path column layouts are unchanged.
        frontend = self.frontend
        if frontend is not None:
            sampler.add_probe(
                "frontend.mshr.depth", lambda: frontend.mshr_depth
            )
            sampler.add_probe(
                "frontend.writeback.depth", lambda: frontend.writeback_depth
            )
            sampler.add_probe(
                "frontend.hit_rate", lambda: frontend.stats.hit_rate
            )
        return sampler

    def _recent_irlp(self) -> float:
        """Mean IRLP over the last few write windows opened per channel.

        Bounded to a handful of windows per channel so the probe stays
        O(1)-ish per sample even on write-heavy runs.
        """
        values = []
        for controller in self.memory.controllers:
            for window in controller.irlp.recent:
                if window.duration > 0:
                    values.append(window.irlp())
        return sum(values) / len(values) if values else 0.0

    def _profile(self, wall_seconds: float) -> RunProfile:
        """Engine profile of the finished run (also fed to the registry)."""
        profile = RunProfile(
            events_dispatched=self.engine.events_dispatched,
            wall_seconds=wall_seconds,
        )
        metrics = self.telemetry.metrics
        metrics.gauge("engine.events_dispatched").set(profile.events_dispatched)
        metrics.gauge("engine.sim_ticks").set(self.engine.now)
        return profile

    def _publish_counters(self, stats: MemoryStats) -> None:
        """Fill the registry's stats-backed counters for the built parts."""
        chain = [p for c in self.memory.controllers for p in c.policies.policies]
        sources: Dict[str, object] = {"controller": stats}
        if any(isinstance(p, ReadOverWritePolicy) for p in chain):
            sources["row"] = stats
        if any(isinstance(p, WriteOverWritePolicy) for p in chain):
            sources["wow"] = stats
        if self.frontend is not None:
            sources["frontend"] = self.frontend.stats
        publish_counters(self.telemetry.metrics, sources)

    def _collect(self, wall_seconds: float = 0.0) -> SimulationResult:
        stats = self.memory.aggregate_stats()
        self._publish_counters(stats)
        result = SimulationResult(
            system_name=self.system.name,
            workload_name=self.workload.name,
            sim_ticks=self.engine.now,
            instructions=self.multicore.instructions_retired,
            cpu_cycles=self.multicore.total_cpu_cycles(),
            memory=stats,
            irlp_average=self.memory.irlp_average(),
            irlp_max=self.memory.irlp_max(),
            write_service_busy_ticks=self.memory.write_service_busy_ticks(),
            seed=self.params.seed,
            profile=self._profile(wall_seconds),
        )
        # _profile() above records the engine gauges and _publish_counters
        # the stats-backed counters, so a collected dump includes
        # events_dispatched/sim_ticks — the regression sentinel's
        # behavioural fingerprint — and every RoW/WoW/tier count.
        if self.params.collect_metrics:
            result.metrics = self.telemetry.metrics.as_dict()
        if self.sampler is not None:
            result.timeseries = self.sampler.series.as_dict()
        if self.frontend is not None:
            result.frontend = self.frontend.summary()
        return result


def simulate(
    system: SystemConfig,
    workload: Union[str, WorkloadProfile],
    params: Optional[SimulationParams] = None,
    telemetry: Optional[Telemetry] = None,
    storage: Optional[MemoryStorage] = None,
) -> SimulationResult:
    """One-shot convenience: build, run, return the result."""
    return SystemSimulator(system, workload, params, telemetry, storage).run()
