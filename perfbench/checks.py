"""Output checks of one repetition; any error counts it as failed.

* Counter cross-check — every event the stats dataclasses and the
  metrics registry both book must read the same in each.  Once the
  registry becomes the single store, this keeps the views honest.
* Storage check — after a functional run, every line the run wrote
  holds SECDED check bytes and a PCC word equal to a re-encode of its
  stored data words.

The digest check (every repetition at one seed, traced or not, gives
the same ``results_digest``) compares repetitions, so ``run.summarise``
makes it.
"""

from __future__ import annotations

from typing import List, Tuple


def counter_pairs(result, metrics, multicore=None) -> List[Tuple[str, int, int]]:
    """``(name, stats value, registry value)`` for each double-booked count."""
    memory = result.memory
    value = metrics.value
    pairs = [
        ("reads.completed", memory.reads_completed, value("reads.completed")),
        # MemoryStats books a write when the controller accepts it; the
        # registry's own ``writes.completed`` counts array completions,
        # so the double-booked counterpart is the enqueue counter.
        ("requests.write.enqueued", memory.writes_completed,
         value("requests.write.enqueued")),
        ("reads.forwarded", memory.forwarded_reads, value("reads.forwarded")),
        ("reads.delayed_by_write", memory.reads_delayed_by_write,
         value("reads.delayed_by_write")),
        ("row.reads", memory.row_reads, value("row.reads")),
        ("row.overlap_reads", memory.row_normal_overlap_reads,
         value("row.overlap_reads")),
        ("rollbacks", memory.rollbacks, value("rollbacks")),
        ("verifications", memory.verify_count, value("verifications")),
        ("wow.groups", memory.wow_groups, value("wow.groups")),
        ("wow.member_writes", memory.wow_member_writes,
         value("wow.member_writes")),
        ("drain.entries", memory.drain_entries, value("drain.entries")),
    ]
    frontend = result.frontend
    if frontend is not None:
        pairs += [
            ("frontend.hits", frontend["read_hits"] + frontend["write_hits"],
             value("frontend.hits")),
            ("frontend.misses",
             frontend["read_misses"] + frontend["write_misses"],
             value("frontend.misses")),
            ("frontend.mshr_coalesced", frontend["coalesced"],
             value("frontend.mshr_coalesced")),
            ("frontend.fills", frontend["fills"], value("frontend.fills")),
            ("frontend.write_backs", frontend["write_backs"],
             value("frontend.write_backs")),
            # Every dirty eviction leaves the tier as one write-back.
            ("cache.dirty_evictions", frontend["cache"]["dirty_evictions"],
             frontend["write_backs"]),
        ]
    elif multicore is not None:
        # On the direct path each failed verification rolls back exactly
        # one core; behind the tier one fill can roll back several.
        pairs.append(
            ("cpu.rollbacks", multicore.total_rollbacks(), memory.rollbacks)
        )
    return pairs


def check_counters(result, metrics, multicore=None) -> Tuple[int, List[str]]:
    """``(pairs compared, errors)``."""
    pairs = counter_pairs(result, metrics, multicore)
    return len(pairs), [
        f"counter mismatch {name}: stats {booked} != registry {registered}"
        for name, booked, registered in pairs
        if booked != registered
    ]


def check_storage(storage, written) -> List[str]:
    """Re-encode every line in ``written``; returns the errors."""
    from repro.ecc.hamming import encode
    from repro.ecc.parity import compute_parity

    errors: List[str] = []
    if not written or not storage.committed_words:
        errors.append("storage check: the functional run committed no write")
    for address in sorted(written):
        line = storage.read_line(address)
        if tuple(line.checks) != tuple(encode(word) for word in line.words):
            errors.append(f"storage check: SECDED bytes of line {address:#x}")
        pcc = compute_parity(line.words) if storage.keep_pcc else 0
        if line.pcc != pcc:
            errors.append(f"storage check: PCC word of line {address:#x}")
        if len(errors) >= 10:
            break
    return errors
