"""Multicore wrapper: eight trace cores sharing one PCM main memory."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cpu.core import CoreParams, TraceCore
from repro.memory.memsys import MainMemory
from repro.memory.port import MemoryPort
from repro.memory.storage import MemoryStorage
from repro.sim.engine import Engine
from repro.trace.record import AccessKind, TraceRecord
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import WorkloadProfile

#: Record-batch size handed to ``on_epoch`` hooks.  Epoch size never
#: changes the generated stream (generation is buffering only) and the
#: hooks never change simulated results — prefetching is semantically
#: invisible and tier classification only steers that prefetch — so the
#: window is free to be sized for the vectorized batch paths, which
#: amortise their fixed per-call cost over ~8x more records than the
#: generator's default 256-record refill.  The price is storage: each
#: core generates up to a whole epoch it never consumes, and the hooks
#: materialise those records' lines too (at 4k requests, 8 cores and
#: seed 3, rwow-rde/canneal held 11,174 lines with the hook and 2,752
#: without).
ON_EPOCH_BATCH = 2048


def _epoch_prefetcher(
    storage: MemoryStorage,
) -> Optional[Callable[[List[TraceRecord]], None]]:
    """Per-epoch cold-line prefetch hook for functional runs.

    Only the epoch's *read* addresses are prefetched: a consumed read
    always materialises its line, whereas payload-less write-backs
    never touch storage.  Prefetching does not change simulated results
    (identical records, no counters touched), but it does materialise
    lines the run leaves cold: the reads of records generated in the
    last epoch and never consumed (see :data:`ON_EPOCH_BATCH`).
    Restricted to plain :class:`MemoryStorage`: the fault-injecting
    subclass sweeps every materialised line through its oracle, so
    changing *which* lines exist would change campaign accounting.
    """
    if type(storage) is not MemoryStorage:
        return None

    def prefetch(records: List[TraceRecord]) -> None:
        storage.prefetch(
            {
                record.address // 64
                for record in records
                if record.kind is AccessKind.READ
            }
        )

    return prefetch


class Multicore:
    """The paper's 8-core CMP, each core replaying its workload stream."""

    def __init__(
        self,
        engine: Engine,
        memory: MainMemory,
        profile: WorkloadProfile,
        n_cores: int = 8,
        params: Optional[CoreParams] = None,
        instructions_per_core: int = 100_000,
        seed: int = 1,
        port: Optional[MemoryPort] = None,
    ):
        self.engine = engine
        self.memory = memory
        #: What the cores actually submit to: ``memory`` itself, or the
        #: timed DRAM-cache front end interposed by the simulator.
        self.port: MemoryPort = port if port is not None else memory
        self.profile = profile
        self.params = params or CoreParams()
        self.cores: List[TraceCore] = []
        #: Cores that called back via on_finish; the simulator polls
        #: ``all_done`` once per dispatched event, so it must be an
        #: integer compare rather than an 8-property sweep.
        self._finished = 0
        capacity_lines = (
            memory.config.geometry.capacity_bytes // 64
        )
        if self.port is not memory and hasattr(self.port, "make_epoch_hook"):
            # A timed tier interposes: let it classify each epoch in one
            # batched pass and steer the prefetch to predicted misses.
            on_epoch = (
                self.port.make_epoch_hook(memory.storage)
                if memory.storage is not None
                else None
            )
        else:
            on_epoch = (
                _epoch_prefetcher(memory.storage)
                if memory.storage is not None
                else None
            )
        for core_id in range(n_cores):
            generator = SyntheticTraceGenerator(
                profile,
                seed=seed,
                core_id=core_id,
                n_cores=n_cores,
                capacity_lines=capacity_lines,
            )
            core = TraceCore(
                engine,
                core_id,
                generator.records(
                    epoch=ON_EPOCH_BATCH if on_epoch is not None else None,
                    on_epoch=on_epoch,
                ),
                self.port,
                self.params,
                instructions_per_core,
            )
            core.on_finish = self._note_finish
            self.cores.append(core)

    # ------------------------------------------------------------------
    def start(self) -> None:
        for core in self.cores:
            core.start()

    def _note_finish(self) -> None:
        self._finished += 1
        if self._finished >= len(self.cores):
            # Stop the engine's batched drain right after this callback —
            # exactly where a per-event ``all_done`` poll would have
            # stopped, so events_dispatched is unchanged.  The sampled
            # loop still polls ``all_done`` itself; the latch is simply
            # never consumed there.
            self.engine.request_stop()

    @property
    def all_done(self) -> bool:
        return self._finished >= len(self.cores)

    @property
    def instructions_retired(self) -> int:
        return sum(core.instructions_retired for core in self.cores)

    def total_cpu_cycles(self) -> int:
        """Wall-clock CPU cycles from first start to last finish.

        The aggregate IPC the paper reports is total instructions over
        the makespan, which penalises a system that lets one laggard core
        starve — exactly what long write drains do.
        """
        start = min(core.start_tick for core in self.cores)
        finish = max(core.finish_tick for core in self.cores)
        cycle_ticks = self.params.cycle_ticks
        return max(1, (finish - start) // cycle_ticks)

    def aggregate_ipc(self) -> float:
        return self.instructions_retired / self.total_cpu_cycles()

    def total_rollbacks(self) -> int:
        return sum(core.rollback_model.rollbacks for core in self.cores)
