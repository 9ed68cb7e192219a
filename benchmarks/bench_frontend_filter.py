"""Front-end filter study — replacement policies behind the DRAM tier.

Not a paper figure: the paper's traces are post-DRAM-cache, so its
controllers never see the tier.  This benchmark turns the simulated
front end on and asks how the *filter* reshapes what reaches PCM — the
tier absorbs read reuse (shifting effective read latency) and converts
write-backs into merged-mask evictions (shifting IRLP's raw material) —
and ranks the LRU/CLOCK/MAC replacement policies by hit rate and by the
read latency and IRLP observed behind them.

The tier is deliberately run far below Table I's 256 MB (which would
filter a 4 000-request run to nothing): a capacity-starved cache is what
makes the policies' reuse decisions visible.

Acceptance pins: on the same seed-7 workload the three policies produce
*differing*, *deterministic* hit rates, and saved results embed the
``frontend`` section of the results schema.
"""

import json

from repro.analysis import format_table
from repro.core.systems import make_front_end, make_system
from repro.sim.results_io import load_results, save_results
from repro.sim.simulator import SimulationParams, simulate

from benchmarks.common import write_report

#: One memory-intense seed-7 workload; rwow-rde (full PCMap) behind it.
WORKLOAD = "canneal"
SYSTEM = "rwow-rde"
SEED = 7
REQUESTS = 4_000
POLICIES = ["lru", "clock", "mac"]

#: Capacity-starved tier (256 sets): evictions happen, policies matter.
TIER_SIZE_BYTES = 16 * 1024


def _tier_params(policy: str) -> SimulationParams:
    return SimulationParams(
        target_requests=REQUESTS,
        seed=SEED,
        front_end=make_front_end(
            "dram", policy, size_bytes=TIER_SIZE_BYTES
        ),
    )


def _run_all():
    """Direct path + one run per policy (seed and scale held fixed)."""
    system = make_system(SYSTEM)
    direct = simulate(
        system, WORKLOAD,
        SimulationParams(target_requests=REQUESTS, seed=SEED),
    )
    tiered = {
        policy: simulate(system, WORKLOAD, _tier_params(policy))
        for policy in POLICIES
    }
    return direct, tiered


def _build_report(direct, tiered) -> str:
    rows = [[
        "none (direct)", "-",
        f"{direct.mean_read_latency_ns:.0f}",
        f"{direct.irlp_average:.2f}",
        str(direct.memory.writes_completed), "-", "-",
    ]]
    ranked = sorted(
        tiered.items(),
        key=lambda item: item[1].frontend["hit_rate"],
        reverse=True,
    )
    for policy, result in ranked:
        f = result.frontend
        rows.append([
            f"dram/{policy}",
            f"{f['hit_rate']:.4f}",
            f"{result.mean_read_latency_ns:.0f}",
            f"{result.irlp_average:.2f}",
            str(result.memory.writes_completed),
            str(f["write_backs"]),
            str(f["cache"]["clean_evictions"]),
        ])
    return format_table(
        ["front end", "hit rate", "read lat (ns)", "IRLP",
         "PCM writes", "tier WBs", "clean evs"],
        rows,
        title=(
            f"Front-end filter: {WORKLOAD} on {SYSTEM} "
            f"(seed {SEED}, {REQUESTS} requests, "
            f"{TIER_SIZE_BYTES // 1024} KB tier) — ranked by hit rate"
        ),
    )


def test_frontend_filter(benchmark, tmp_path):
    direct, tiered = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    report = _build_report(direct, tiered)
    write_report(
        "frontend_filter", report,
        runs=[direct] + list(tiered.values()),
    )

    # Differing hit rates across policies on the same seed-7 workload.
    hit_rates = {p: r.frontend["hit_rate"] for p, r in tiered.items()}
    assert len(set(hit_rates.values())) >= 2, hit_rates

    # Deterministic: a repeat of one policy reproduces its run exactly.
    repeat = simulate(make_system(SYSTEM), WORKLOAD, _tier_params("mac"))
    assert repeat.sim_ticks == tiered["mac"].sim_ticks
    assert repeat.frontend == tiered["mac"].frontend

    # The tier is a filter: PCM sees only fills and merged write-backs,
    # never the cores' raw request stream.
    for result in tiered.values():
        f = result.frontend
        assert result.memory.reads_completed <= f["fills"]
        assert f["write_backs"] <= f["writes"] + f["fills"]

    # Round-trip through the results schema with the frontend section
    # embedded.  The file is scratch: its numbers are the report's, and
    # the code version and platform it stamps would dirty a committed copy.
    path = tmp_path / "frontend_filter.json"
    save_results(path, [direct] + [tiered[p] for p in POLICIES])
    with open(path) as handle:
        payload = json.load(handle)
    assert "frontend" not in payload[0]          # direct run: no section
    for entry, policy in zip(payload[1:], POLICIES):
        assert entry["frontend"]["replacement"] == policy
        assert "hit_rate" in entry["frontend"]
    restored = load_results(path)
    assert restored[1].frontend == tiered["lru"].frontend
