#!/usr/bin/env python3
"""Full path: CPU loads/stores -> caches -> the *simulated* DRAM tier -> PCM.

Everywhere else in this repository, dirty-word masks come from the
statistical workload profiles.  This example shows where they come from
physically, in two stages:

1. **Functional derivation** — a stream of CPU loads and stores runs
   through the L1/L2/DRAM hierarchy with per-word dirty tracking; the
   DRAM cache's dirty evictions carry the masks Figure 2 histograms.
2. **Timed tier replay** — the same CPU trace is reduced to its post-L2
   stream (``HierarchyConfig(dram_cache=None)``) and pushed through the
   simulated :class:`DramCacheFrontEnd` over real PCMap memory: hits are
   engine-scheduled events, misses coalesce in MSHRs, dirty evictions
   enter the controller write queues.  The tier's scoreboard is then
   cross-checked against the DRAM cache's own hit/miss counts.

Run:  python examples/full_hierarchy.py

Set REPRO_EXAMPLE_REQUESTS to shrink the run (CI smoke-tests use it);
the CPU trace is 15 accesses per requested memory operation.
"""

import os
import random

from repro.analysis import format_table
from repro.cache.dram_cache import DramCacheConfig
from repro.cache.frontend import DramCacheFrontEnd, FrontEndConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.core.systems import make_system
from repro.cpu.core import CoreParams
from repro.memory.memsys import MainMemory
from repro.memory.request import MemoryRequest, RequestKind
from repro.sim.engine import Engine
from repro.trace.record import AccessKind, TraceRecord


def generate_cpu_trace(n_accesses=60_000, seed=42):
    """Pointer-chasing-plus-streaming CPU reference stream.

    Stores cluster on the low words of lines (struct headers / counters),
    producing exactly the skewed dirty-offset distribution the paper's
    rotation mechanism targets.
    """
    rng = random.Random(seed)
    records = []
    streams = [rng.randrange(1 << 14) * 64 for _ in range(4)]
    for _ in range(n_accesses):
        if rng.random() < 0.6:
            index = rng.randrange(len(streams))
            streams[index] += 64
            address = streams[index]
        else:
            address = rng.randrange(1 << 14) * 64
        if rng.random() < 0.35:
            word = rng.choices(range(8), weights=[30, 16, 12, 10, 9, 8, 8, 7])[0]
            records.append(
                TraceRecord(5, AccessKind.STORE, address + word * 8)
            )
        else:
            records.append(TraceRecord(5, AccessKind.LOAD, address))
    return records


def functional_derivation(cpu_trace):
    """Stage 1: derive Figure 2's masks through the functional stack."""
    hierarchy = CacheHierarchy(
        n_cores=1,
        config=HierarchyConfig(
            l1_size=16 * 1024,
            l2_size=128 * 1024,
            dram_cache=DramCacheConfig(size_bytes=512 * 1024, associativity=8),
        ),
    )
    memory_trace, levels = hierarchy.replay(0, cpu_trace)

    print("Cache hierarchy filtering:")
    print(
        format_table(
            ["level", "hits"],
            [[level, count] for level, count in levels.items()],
        )
    )
    write_backs = [
        r for r in memory_trace if r.kind is AccessKind.WRITE_BACK
    ]
    fills = [r for r in memory_trace if r.kind is AccessKind.READ]
    print(f"\nPCM traffic: {len(fills)} line fills, "
          f"{len(write_backs)} write-backs")

    histogram = [0] * 9
    for wb in write_backs:
        histogram[bin(wb.dirty_mask).count("1")] += 1
    total = max(1, len(write_backs))
    print("\nDirty-word distribution of real write-backs (cf. Figure 2):")
    print(
        format_table(
            ["dirty words", "write-backs", "fraction"],
            [
                [i, count, f"{count / total:.1%}"]
                for i, count in enumerate(histogram)
            ],
        )
    )


def timed_tier_replay(cpu_trace, requests):
    """Stage 2: the DRAM level as a simulated tier over PCMap memory."""
    post_l2 = CacheHierarchy(
        n_cores=1,
        config=HierarchyConfig(
            l1_size=16 * 1024,
            l2_size=128 * 1024,
            dram_cache=None,            # the DRAM level is simulated below
        ),
    )
    memory_trace, _levels = post_l2.replay(0, cpu_trace)
    memory_trace = memory_trace[: 4 * requests]

    engine = Engine()
    memory = MainMemory(engine, make_system("rwow-rde"))
    frontend = DramCacheFrontEnd(
        engine,
        memory,
        FrontEndConfig(
            kind="dram",
            dram=DramCacheConfig(size_bytes=512 * 1024, associativity=8),
            replacement="mac",
        ),
        cycle_ticks=CoreParams().cycle_ticks,
    )

    req_id = 0
    for record in memory_trace:
        kind = (
            RequestKind.READ
            if record.kind is AccessKind.READ
            else RequestKind.WRITE
        )
        while not frontend.can_accept(kind, record.address):
            if not engine.step():
                raise RuntimeError("tier deadlocked under back-pressure")
        req_id += 1
        if kind is RequestKind.READ:
            frontend.submit(
                MemoryRequest(req_id, RequestKind.READ, record.address)
            )
        else:
            frontend.submit(
                MemoryRequest(
                    req_id, RequestKind.WRITE, record.address,
                    dirty_mask=record.dirty_mask,
                )
            )
        engine.run(until=engine.now + 40)
    engine.run(max_events=5_000_000)

    stats = frontend.stats
    print("\nSimulated DRAM tier (mac replacement) over rwow-rde PCM:")
    print(
        format_table(
            ["tier metric", "value"],
            [
                ["accesses", stats.accesses],
                ["hit rate", f"{stats.hit_rate:.3f}"],
                ["MSHR-coalesced misses", stats.coalesced],
                ["PCM line fills", stats.fills],
                ["PCM write-backs", stats.write_backs],
            ],
        )
    )
    pcm = memory.aggregate_stats()
    print(f"\nPCM behind the tier: {pcm.reads_completed} reads / "
          f"{pcm.writes_completed} writes completed "
          f"(RoW reads {pcm.row_reads}, WoW writes {pcm.wow_member_writes})")

    # The tier probes its DRAM cache once per access, so the cache's own
    # hit/miss counts must equal the tier's scoreboard exactly.
    assert frontend.dram.stats.hits == stats.hits
    assert frontend.dram.stats.misses == stats.misses
    print("Cross-check: DRAM cache hits/misses match the tier scoreboard")


def main() -> None:
    requests = int(os.environ.get("REPRO_EXAMPLE_REQUESTS", "4000"))
    cpu_trace = generate_cpu_trace(n_accesses=15 * requests)
    functional_derivation(cpu_trace)
    timed_tier_replay(cpu_trace, requests)


if __name__ == "__main__":
    main()
