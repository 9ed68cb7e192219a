"""WoW — write-over-write consolidation policy (paper §IV-C).

:class:`WriteOverWritePolicy` packs the head write together with younger
writes whose (rotated) dirty chip sets are pairwise disjoint and idle,
so one write-engine service slot moves several lines at once.  Admission
is a **two-pass greedy**: the first pass requires the candidates' ECC/PCC
chips to be disjoint too (their whole service parallelises — what
rotation makes possible); the second pass admits members whose data chips
are free but whose code updates collide and serialise within the window
(Figure 5(d), the no-rotation behaviour).

The policy always claims the step (a one-member "group" is just the plain
fine write), matching §IV-D2 where WoW is the unconditional fallback of
a declined RoW attempt.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.memory.address import DecodedAddress
from repro.memory.policy import BaseSchedulerPolicy, WriteContext
from repro.memory.request import MemoryRequest, ServiceClass
from repro.telemetry import EventType, TraceEvent


class WriteOverWritePolicy(BaseSchedulerPolicy):
    """Consolidate chip-disjoint writes into one service window."""

    name = "wow-group"

    def select_write(self, ctx: WriteContext) -> bool:
        c = self.controller
        assert c is not None
        group_service_end = self._issue_group(ctx.head, ctx.decoded, ctx.now)
        # The write engine is held through the serialised ECC/PCC updates
        # of the whole group (Figure 5(d)): without rotation this is what
        # limits WoW's bandwidth gain.
        c.fine.hold(ctx.decoded, group_service_end)
        return True

    def _issue_group(
        self, head: MemoryRequest, decoded_head: DecodedAddress, now: int
    ) -> int:
        """Consolidate chip-disjoint writes; returns the group's data end.

        Members may target any bank of the seed's rank — §IV-D2's policy
        selects "one or more write requests that can be parallelized with
        [the] on-going write", constrained only by pairwise-disjoint
        (rotated) dirty-chip sets that are idle now.
        """
        c = self.controller
        assert c is not None and self.chain is not None
        rank = c.ranks[decoded_head.rank]

        layout = c.layout

        def chip_sets(
            req: MemoryRequest, decoded: DecodedAddress
        ) -> Tuple[Set[int], Set[int]]:
            # Line address and dirty mask are final once queued, so the
            # sets live on the request across admission scans.
            cached = req.wow_sets
            if cached is not None:
                return cached
            line = decoded.line_address
            chips = req.chips
            if chips is None:
                chips = layout.dirty_chips(line, req.dirty_mask)
            data = set(chips)
            code = {layout.ecc_chip(line)}
            pcc = layout.pcc_chip(line)
            if pcc is not None:
                code.add(pcc)
            req.wow_sets = sets = (data, code)
            return sets

        head_data, head_code = chip_sets(head, decoded_head)
        members: List[Tuple[MemoryRequest, DecodedAddress]] = [
            (head, decoded_head)
        ]
        admitted = {id(head)}
        occupied_all = head_data | head_code
        budget = c.config.max_inflight_writes - c.fine.inflight
        limit = min(c.config.wow_max_group, budget)
        head_rank = decoded_head.rank
        mapper_decode = c.mapper.decode

        for require_code_disjoint in (True, False):
            if len(members) >= limit:
                break
            # No queue mutation happens during admission (members issue
            # after both passes), so iterate the pending FIFO directly.
            for req in c.write_q.pending:
                if len(members) >= limit:
                    break
                if (
                    not req.dirty_mask
                    or req.start_service >= 0
                    or id(req) in admitted
                ):
                    continue
                decoded = req.decoded
                if decoded is None:
                    decoded = mapper_decode(req.address)
                if decoded.rank != head_rank:
                    continue
                data, code = chip_sets(req, decoded)
                if not occupied_all.isdisjoint(data):
                    continue
                if require_code_disjoint and not occupied_all.isdisjoint(code):
                    continue
                # Same ready flavour (write-ready over the dirty chips)
                # the candidate scan caches — reuse its rank-version memo.
                version = rank.version
                cached = req.ready_cache
                if cached is not None and cached[0] == version:
                    ready = cached[1]
                else:
                    ready = rank.write_ready_time(data, decoded.bank)
                    req.ready_cache = (version, ready)
                if ready > now:
                    continue
                members.append((req, decoded))
                admitted.add(id(req))
                occupied_all.update(data | code)

        window = c._open_window(-1, -1)
        self.chain.on_window_open(window, decoded_head.rank)
        grouped = len(members) > 1
        if grouped and c.tracer.enabled:
            c.tracer.emit(TraceEvent(
                EventType.WOW_OPEN,
                tick=now,
                channel=c.channel_id,
                rank=decoded_head.rank,
                req_id=head.req_id,
                extra={"group_size": len(members)},
            ))
            for req, _decoded in members[1:]:
                c.tracer.emit(TraceEvent(
                    EventType.WOW_JOIN,
                    tick=now,
                    channel=c.channel_id,
                    rank=decoded_head.rank,
                    req_id=req.req_id,
                ))
        group_service_end = now
        for req, decoded in members:
            if grouped:
                req.service_class = ServiceClass.WOW_MEMBER
            _start, _data_end, service_end = c.fine.issue_fine_write(
                req, decoded, now, window=window
            )
            group_service_end = max(group_service_end, service_end)
        if grouped:
            c.stats.wow_groups += 1
            c.stats.wow_member_writes += len(members)
            if c.tracer.enabled:
                c.tracer.emit(TraceEvent(
                    EventType.WOW_CLOSE,
                    tick=now,
                    channel=c.channel_id,
                    rank=decoded_head.rank,
                    req_id=head.req_id,
                    end=group_service_end,
                    extra={"group_size": len(members)},
                ))
        return group_service_end
