"""Seeded end-to-end fault campaigns and the differential checks.

A *campaign* is one full-system simulation (cores, schedulers, RoW/WoW
machinery) run against a :class:`~repro.faults.storage.FaultInjectingStorage`
with the differential oracle wired into every controller's read
completion path.  Everything — fault sites, payloads, scheduling — is a
function of the spec, so the same spec produces a byte-identical JSON
report (:func:`report_json`); the CI smoke job and the reproducibility
test both rely on this.

Three entry points sit behind the ``repro faults`` CLI command:

* :func:`run_campaign` — one seeded fault campaign with a full report
  (injections, SECDED outcomes, RoW mis-verify/rollback rate, oracle
  verdict);
* :func:`cross_system_convergence` — all six paper systems replay the
  same request stream with faults *off* and order-independent payloads;
  their golden end-states must be fingerprint-identical and every
  simulated array must match its golden model exactly;
* :func:`oracle_selftest` — deliberately plants an *untracked* silent
  corruption (``MemoryStorage.corrupt_bit``, which bypasses the fault
  ledger) and fails unless the oracle catches it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.systems import SYSTEM_NAMES, make_system
from repro.faults.models import FaultConfig
from repro.faults.oracle import DifferentialOracle
from repro.faults.payload import WritePayloadAdapter
from repro.faults.storage import FaultInjectingStorage
from repro.sim.simulator import SimulationParams, SystemSimulator
from repro.telemetry import Telemetry

#: Table IV's mis-verify ceiling: canneal's 5.8 % of RoW reads.
PAPER_MISVERIFY_CEILING = 0.058

#: Default campaign fault rates: high enough that a few-thousand-request
#: run exercises every outcome class (correctable disturb, uncorrectable
#: doubles, stuck-at endurance faults, PCC poisoning → mis-verify
#: rollbacks), low enough that the RoW mis-verify rate stays inside the
#: paper's ≤5.8 % band.
DEFAULT_FAULTS = FaultConfig(
    read_disturb_rate=0.04,
    write_fail_rate=0.003,
    stuck_at_threshold=6,
    stuck_cells_per_line=2,
)


@dataclass(frozen=True)
class FaultCampaignSpec:
    """Everything a campaign depends on — the report is a function of this."""

    workload: str = "canneal"
    system: str = "rwow-rde"
    seed: int = 1
    target_requests: int = 2_000
    n_cores: int = 8
    fault: FaultConfig = field(default_factory=lambda: DEFAULT_FAULTS)
    #: ``"random"`` (default) stresses PCC drift/re-encode hardest;
    #: ``"static"`` keeps final state order-independent.
    payload_mode: str = "random"
    #: Working-set override (lines per core).  Fault observation needs
    #: line *reuse* — a disturb only matters if the line is read again —
    #: so campaigns default to a hot, cache-resident footprint instead
    #: of the workload's full multi-GB one.  ``None`` keeps the profile.
    footprint_lines: Optional[int] = 1_536

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "system": self.system,
            "seed": self.seed,
            "target_requests": self.target_requests,
            "n_cores": self.n_cores,
            "fault": self.fault.as_dict(),
            "payload_mode": self.payload_mode,
            "footprint_lines": self.footprint_lines,
        }


def build_campaign(
    spec: FaultCampaignSpec,
) -> Tuple[SystemSimulator, FaultInjectingStorage, DifferentialOracle, Telemetry]:
    """Wire one campaign: system, fault storage, oracle, payload adapters.

    ``row_rollback_rate=1e-12`` pins the statistical consumed-early
    model effectively off (0.0 would make the simulator auto-wire the
    workload's Table IV rate), so every observed rollback is a genuine
    corruption caught by the deferred verify.
    """
    system = make_system(spec.system, functional=True, row_rollback_rate=1e-12)
    telemetry = Telemetry.disabled()
    oracle = DifferentialOracle()
    storage = FaultInjectingStorage(
        keep_pcc=system.geometry.has_pcc_chip,
        fault=spec.fault,
        seed=spec.seed,
        telemetry=telemetry,
        oracle=oracle,
    )
    oracle.attach(storage)
    params = SimulationParams(
        n_cores=spec.n_cores,
        target_requests=spec.target_requests,
        seed=spec.seed,
    )
    from repro.trace.workloads import get_workload

    workload = get_workload(spec.workload)
    if spec.footprint_lines is not None:
        workload = dataclasses.replace(
            workload, footprint_lines=spec.footprint_lines
        )
    sim = SystemSimulator(system, workload, params, telemetry, storage=storage)
    for core in sim.multicore.cores:
        core.records = WritePayloadAdapter(
            core.records,
            mode=spec.payload_mode,
            seed=spec.seed,
            core_id=core.core_id,
        )
    for controller in sim.memory.controllers:
        controller.read_completion_hook = oracle.on_read_complete
    return sim, storage, oracle, telemetry


def _drain(sim: SystemSimulator) -> None:
    """Run the engine dry: cores are done but tail write-backs and
    deferred verifies may still be in flight."""
    sim.engine.run()


def run_campaign(spec: FaultCampaignSpec) -> dict:
    """Run one seeded campaign and return its (deterministic) report."""
    sim, storage, oracle, telemetry = build_campaign(spec)
    result = sim.run()
    _drain(sim)
    oracle.check_all(storage)

    # After the drain: verifications that finish during it still count.
    stats = sim.memory.aggregate_stats()
    row_reads = stats.row_reads
    verifications = stats.verify_count
    rollbacks = stats.rollbacks
    rollbacks_corrupted = telemetry.metrics.value("rollbacks.corrupted")
    misverify_rate = rollbacks_corrupted / row_reads if row_reads else 0.0

    return {
        "schema": "repro.faults.campaign/1",
        "spec": spec.as_dict(),
        "injected": storage.counters.as_dict(),
        "row": {
            "row_reads": row_reads,
            "verifications": verifications,
            "rollbacks": rollbacks,
            "rollbacks_corrupted": rollbacks_corrupted,
            "misverify_rate": round(misverify_rate, 6),
            "paper_ceiling": PAPER_MISVERIFY_CEILING,
            "within_paper_band": misverify_rate <= PAPER_MISVERIFY_CEILING,
        },
        "rollback_penalty_cycles": sum(
            core.rollback_model.penalty_cycles_total
            for core in sim.multicore.cores
        ),
        "oracle": oracle.as_dict(),
        "storage": {
            "lines_materialised": len(storage),
            "total_writes": storage.wear.total_writes,
            "max_line_writes": storage.wear.max_line_writes(),
            "stuck_lines": len(storage._stuck),
        },
        "result": {
            "system": result.system_name,
            "workload": result.workload_name,
            "instructions": result.instructions,
            "sim_ticks": result.sim_ticks,
            "ipc": round(result.ipc, 6),
        },
        "ok": oracle.ok,
    }


def report_json(report: dict) -> str:
    """Canonical JSON encoding — byte-stable for identical reports."""
    return json.dumps(report, indent=1, sort_keys=True)


def cross_system_convergence(
    workload: str = "canneal",
    seed: int = 1,
    target_requests: int = 1_500,
    systems: Optional[List[str]] = None,
) -> dict:
    """Replay one request stream through every system, faults off.

    With order-independent ("static") payloads, identical per-core
    record streams and no faults, all six systems must drive memory to
    the same final contents — scheduling may reorder commits but cannot
    change them.  Each run is also held to its own differential oracle.
    """
    names = systems if systems is not None else list(SYSTEM_NAMES)
    fingerprints: Dict[str, str] = {}
    oracle_ok: Dict[str, bool] = {}
    for name in names:
        spec = FaultCampaignSpec(
            workload=workload,
            system=name,
            seed=seed,
            target_requests=target_requests,
            fault=FaultConfig.disabled(),
            payload_mode="static",
        )
        sim, storage, oracle, _telemetry = build_campaign(spec)
        sim.run()
        _drain(sim)
        oracle.check_all(storage)
        fingerprints[name] = oracle.golden.fingerprint()
        oracle_ok[name] = oracle.ok
    converged = len(set(fingerprints.values())) == 1 and all(oracle_ok.values())
    return {
        "schema": "repro.faults.convergence/1",
        "workload": workload,
        "seed": seed,
        "target_requests": target_requests,
        "systems": names,
        "fingerprints": fingerprints,
        "oracle_ok": oracle_ok,
        "converged": converged,
    }


def oracle_selftest(seed: int = 1) -> dict:
    """Plant an untracked silent corruption; the oracle must catch it.

    ``MemoryStorage.corrupt_bit`` flips a data bit *without* a ledger
    entry — exactly the signature of a simulator bug that corrupts
    memory state behind the ECC machinery's back.  A harness that lets
    this survive its end-of-run sweep is not protecting anything.
    """
    spec = FaultCampaignSpec(
        workload="ferret",
        system="rwow-rd",
        seed=seed,
        target_requests=600,
        fault=FaultConfig.disabled(),
        payload_mode="static",
    )
    sim, storage, oracle, _telemetry = build_campaign(spec)
    sim.run()
    _drain(sim)
    clean_before = oracle.check_all(storage)
    planted_line = min(storage.lines())
    storage.corrupt_bit(planted_line, word=3, bit=17)
    detected = not oracle.check_line(storage, planted_line, when="final")
    return {
        "schema": "repro.faults.selftest/1",
        "seed": seed,
        "clean_before_plant": clean_before,
        "planted_line": planted_line,
        "detected": detected,
        "passed": clean_before and detected,
        "violations": [str(v) for v in oracle.violations[:3]],
    }
