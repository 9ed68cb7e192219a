"""PCMap channel controller: a thin composition root (paper §IV).

The scheduling logic that used to live here as one 767-line monolith is
now a policy chain (see :mod:`repro.memory.policy`):

* :mod:`repro.core.fine` — the fine-grained write engine plus the
  silent-write and plain fine-write policies (§IV-A2);
* :mod:`repro.core.row` — RoW windows, overlap-read admission, deferred
  verify and rollback (§IV-B);
* :mod:`repro.core.wow` — two-pass WoW group admission and service
  (§IV-C);
* :mod:`repro.core.palp` — the PALP-style partition-parallel comparator.

:func:`repro.core.systems.build_policies` maps the config's feature
flags to the chain, so the §IV-D2 dispatch order (silent -> RoW ->
WoW -> plain fine) is the chain order rather than an if/elif ladder.

What remains here is only what is genuinely per-controller state shared
by every fine-grained policy: the :class:`~repro.core.fine.FineWriteEngine`,
the DIMM status registers, and the oldest-*ready*-first write-candidate
discipline that replaces the baseline's strict FIFO.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fine import FineWriteEngine
from repro.core.status import DimmStatusRegister
from repro.memory.controller import MemoryController
from repro.memory.policy import PolicyChain, WriteContext
from repro.memory.request import MemoryRequest


class PCMapController(MemoryController):
    """Controller for the five PCMap system variants (and ``palp-lite``)."""

    def _build_policy_chain(self) -> PolicyChain:
        if not self.config.fine_grained_writes:
            raise ValueError(
                "PCMapController requires fine_grained_writes; "
                "use MemoryController for the baseline"
            )
        # Shared resources the fine-grained policies bind against; they
        # must exist before the chain is composed.
        self.fine = FineWriteEngine(
            self, scope=self.config.write_engine_scope
        )
        self.status_registers = [
            DimmStatusRegister(rank, self.timing) for rank in self.ranks
        ]
        return super()._build_policy_chain()

    @property
    def _inflight_writes(self) -> int:
        """Fine-grained writes currently in flight (engine-owned count)."""
        return self.fine.inflight

    # ==================================================================
    # Write-candidate discipline
    # ==================================================================
    def select_write_candidate(self, now: int) -> Optional[WriteContext]:
        """Oldest-*ready*-first over the write queue.

        Strict FIFO would stall whenever the head's (rotated) chips are
        still finishing an earlier window's ECC/PCC update even though
        younger writes could proceed on idle chips.  The write-engine
        token gates dirty writes only; silent (zero-dirty) candidates
        need their data chips readable, not the engine.
        """
        fine = self.fine
        if fine.inflight >= self.config.max_inflight_writes:
            return None  # completions will re-kick
        ranks = self.ranks
        head: Optional[MemoryRequest] = None
        decoded = None
        earliest: Optional[int] = None
        # Hot loop: runs once per scheduler step over every queued write.
        # Decode and chip sets come from the submit-time caches on the
        # request (with a decode fallback for directly-pushed test
        # requests); locals are hoisted and ``max`` is spelled as a
        # comparison — this function dominated the end-to-end profile.
        rank_scope = fine._rank_scope
        engine_free_get = fine._free.get
        mapper_decode = self.mapper.decode
        layout = self.layout
        for req in self.write_q.pending:
            if req.start_service >= 0:
                continue  # issued outside the tracked paths (tests)
            candidate = req.decoded
            if candidate is None:
                candidate = mapper_decode(req.address)
            rank = ranks[candidate.rank]
            version = rank.version
            cached = req.ready_cache
            if not req.dirty_mask:
                if cached is not None and cached[0] == version:
                    ready = cached[1]
                else:
                    chips = req.chips
                    if chips is None:
                        chips = layout.all_data_chips(candidate.line_address)
                    ready = rank.read_ready_time(chips, candidate.bank)
                    req.ready_cache = (version, ready)
            else:
                if cached is not None and cached[0] == version:
                    ready = cached[1]
                else:
                    chips = req.chips
                    if chips is None:
                        chips = layout.dirty_chips(
                            candidate.line_address, req.dirty_mask
                        )
                    ready = rank.write_ready_time(chips, candidate.bank)
                    req.ready_cache = (version, ready)
                # fine.free_at, inlined: the scan visits every queued
                # dirty write per step and the call overhead showed up.
                if rank_scope:
                    engine_free = engine_free_get(candidate.rank, 0)
                else:
                    engine_free = engine_free_get(
                        (candidate.rank, candidate.bank), 0
                    )
                if engine_free > ready:
                    ready = engine_free
            if ready <= now:
                head, decoded = req, candidate
                break
            if earliest is None or ready < earliest:
                earliest = ready
        if head is None or decoded is None:
            if earliest is not None:
                self._note_wake(earliest)
            return None
        return WriteContext(now, head, decoded)

    def _complete_write(self, req: MemoryRequest) -> None:
        self.fine.note_write_complete()
        super()._complete_write(req)
