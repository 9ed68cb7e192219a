"""Baseline PCM memory controller (paper §II-B).

One controller owns one 64/72-bit channel: a read queue, a write queue,
the rank resource state, and the shared data bus.  Scheduling policy:

* **Read-over-write priority** — reads are serviced FR-FCFS (row hits
  first, then oldest).  Writes buffer in the write queue.
* **Watermark drain** — once the write queue is more than ``alpha`` = 80 %
  full, the controller turns the bus around and drains writes (oldest
  first) until the queue falls below the low watermark; reads wait.
* **Opportunistic writes** — when the read queue is empty, queued writes
  are issued even below the watermark.

The *write-issue decision* is delegated to an ordered
:class:`repro.memory.policy.PolicyChain`: the controller picks the head
candidate (its queue discipline) and the chain's policies decide how to
service it.  The baseline chain is a single
:class:`~repro.memory.policy.CoarseWritePolicy` — whole-rank writes whose
chip idleness is exactly what PCMap attacks and the IRLP recorder
measures.  :class:`repro.core.controller.PCMapController` swaps in the
fine-grained RoW/WoW policy stack instead of forking the issue path.

The controller is event-driven: ``_kick`` runs whenever a request arrives
or a resource frees, issues everything that can start *now*, and arms a
wake-up at the earliest future time anything could start.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.memory.address import AddressMapper, DecodedAddress
from repro.memory.bus import BusDirection, ChannelBus
from repro.memory.policy import PolicyChain, WriteContext
from repro.memory.queues import RequestQueue, WriteQueue
from repro.memory.rank import RankState
from repro.memory.request import (
    MemoryRequest,
    RequestKind,
    ServiceClass,
    WORDS_PER_LINE,
)
from repro.memory.storage import MemoryStorage
from repro.memory.timing import WriteLatencyMode
from repro.sim.engine import Engine, ticks_to_ns
from repro.sim.metrics import IrlpRecorder, MemoryStats, WriteWindow
from repro.telemetry import EventType, Telemetry, TraceEvent

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.core.config import SystemConfig


class MemoryController:
    """Scheduler and resource manager for one memory channel."""

    def __init__(
        self,
        engine: Engine,
        config: "SystemConfig",
        channel_id: int = 0,
        storage: Optional[MemoryStorage] = None,
        seed: int = 1,
        telemetry: Optional[Telemetry] = None,
    ):
        # Runtime imports: repro.core builds on this module, so importing
        # its helpers at module scope would create an import cycle.
        from repro.core.essential import EssentialWordDetector
        from repro.core.rotation import make_layout

        self.engine = engine
        self.config = config
        self.timing = config.timing
        self.geometry = config.geometry
        self.channel_id = channel_id
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.tracer = self.telemetry.tracer
        self.mapper = AddressMapper(config.geometry)
        self.layout = make_layout(
            config.geometry, config.rotate_data, config.rotate_ecc
        )
        self.read_q = RequestQueue(
            config.read_queue_capacity, name=f"ch{channel_id}-rq"
        )
        self.write_q = WriteQueue(
            config.write_queue_capacity,
            config.drain_high_watermark,
            config.drain_low_watermark,
            name=f"ch{channel_id}-wq",
        )
        self.ranks: List[RankState] = [
            RankState(
                config.timing,
                config.geometry.chips_per_rank,
                config.geometry.banks_per_rank,
                channel=channel_id,
                rank_index=rank,
                tracer=self.tracer,
            )
            for rank in range(config.geometry.ranks_per_channel)
        ]
        self.bus = ChannelBus(config.timing, config.geometry.chips_per_rank)
        self.storage = storage
        self.detector = EssentialWordDetector(storage)
        self.stats = MemoryStats()
        self.irlp = IrlpRecorder()
        #: Every chip a baseline (coarse) write reserves: all data chips
        #: plus ECC.  The same for every line, so built once.
        coarse_chips = tuple(range(config.geometry.data_chips))
        if config.geometry.has_ecc_chip:
            coarse_chips += (config.geometry.ecc_chip_index,)
        self.coarse_chips: Tuple[int, ...] = coarse_chips
        self.rng = random.Random(seed * 7919 + channel_id)

        self.drain = False
        self._wake_handle = None
        self._wake_time: Optional[int] = None
        self._open_windows: List[WriteWindow] = []
        self._in_kick = False
        #: Optional observer called with each read request right after it
        #: completes (differential-oracle wiring).  None in normal runs:
        #: the completion path pays one attribute check.
        self.read_completion_hook: Optional[Callable[[MemoryRequest], None]] = None

        # Always-on metrics: instruments are fetched once here so the hot
        # path pays attribute access + integer ops only.  The registry is
        # shared across channels, so these counters aggregate globally.
        metrics = self.telemetry.metrics
        self.read_q.attach_metrics(metrics, f"ch{channel_id}.queue.read")
        self.write_q.attach_metrics(metrics, f"ch{channel_id}.queue.write")
        self._m_reads_enqueued = metrics.counter("requests.read.enqueued")
        self._m_writes_completed = metrics.counter("writes.completed")
        self._m_read_latency = metrics.histogram(
            "read.latency_ns",
            buckets=(50, 100, 150, 200, 300, 500, 750, 1000, 1500,
                     2000, 4000, 8000, 16000),
        )

        #: Ordered scheduling-policy stack driving the write-issue path.
        #: Built last so policies bind against a fully constructed
        #: controller (subclasses hook ``_build_policy_chain`` to install
        #: their engines/resources first).
        self.policies: PolicyChain = self._build_policy_chain()

    def _build_policy_chain(self) -> PolicyChain:
        """Compose the policy chain for this controller's config."""
        # Runtime import: repro.core.systems builds on repro.memory.
        from repro.core.systems import build_policies

        return PolicyChain(self, build_policies(self.config))

    # ==================================================================
    # External interface
    # ==================================================================
    def can_accept(self, kind: RequestKind) -> bool:
        queue = self.read_q if kind is RequestKind.READ else self.write_q
        return not queue.full

    def wait_for_space(self, kind: RequestKind, callback) -> None:
        queue = self.read_q if kind is RequestKind.READ else self.write_q
        queue.wait_for_space(callback)

    def submit(self, request: MemoryRequest) -> None:
        """Accept a request; raises when the target queue is full."""
        request.arrival = self.engine.now
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                EventType.REQUEST_ENQUEUE,
                tick=request.arrival,
                channel=self.channel_id,
                req_id=request.req_id,
                kind=request.kind.value,
            ))
        if request.is_read:
            self._m_reads_enqueued.inc()
            if self._try_forward_read(request):
                return
            # Queued: decode + chip set are final, cache them once for the
            # FR-FCFS scans (the scheduler revisits every queued request
            # each step).  MainMemory.submit may have decoded already
            # while routing the request here.
            decoded = request.decoded
            if decoded is None:
                request.decoded = decoded = self.mapper.decode(request.address)
            request.chips = self.layout.read_chips(decoded.line_address)
            self.read_q.push(request)
            if self.drain:
                request.delayed_by_write = True
        else:
            self.detector.detect(request)
            # Cache after detection: the detector is what finalises
            # ``dirty_mask``.  Silent writes cache their compare set
            # (all data chips), dirty writes their essential-chip set —
            # exactly what the write-candidate scans re-derive per step.
            decoded = request.decoded
            if decoded is None:
                request.decoded = decoded = self.mapper.decode(request.address)
            if request.dirty_mask:
                request.chips = self.layout.dirty_chips(
                    decoded.line_address, request.dirty_mask
                )
            else:
                request.chips = self.layout.all_data_chips(
                    decoded.line_address
                )
            self.stats.record_write(request.dirty_count)
            self.write_q.push(request)
        self._kick()
        if request.is_read and request.completion < 0:
            # Still queued after the kick: let policies react — e.g. an
            # open RoW window absorbs reads arriving mid-window.
            self.policies.on_read_enqueued(request)

    @property
    def idle(self) -> bool:
        """True when both queues are empty (no pending work)."""
        return self.read_q.empty and self.write_q.empty

    @property
    def open_window_count(self) -> int:
        """Write windows currently open (time-series sampler probe)."""
        return len(self._open_windows)

    # ==================================================================
    # Scheduling loop
    # ==================================================================
    def _kick(self) -> None:
        if self._in_kick:
            return
        self._in_kick = True
        try:
            self._wake_time = None
            self._prune_windows()
            while self._schedule_once():
                pass
            self._arm_wake()
        finally:
            self._in_kick = False

    def _schedule_once(self) -> bool:
        """Issue at most one service; returns True when progress was made.

        Read issue stays built in (FR-FCFS is common to every system);
        the write step is one pass through the policy chain.
        """
        self._update_drain()
        now = self.engine.now
        if self.drain:
            # Drain mode: writes only; reads wait (the baseline policy the
            # paper's Figure 1 quantifies).  Pausing opts out of the
            # delayed-read flagging via its chain discipline flag.
            if self.policies.mark_reads_delayed_in_drain and not self.read_q.empty:
                for read in self.read_q:
                    read.delayed_by_write = True
            return self.policies.select_write(now)
        if not self.read_q.empty:
            if self._try_issue_read(now):
                return True
            if self.policies.reads_block_writes:
                # Read-priority discipline: a queued-but-unready read
                # holds the channel; only pausing-style chains proceed.
                return False
        if not self.write_q.empty:
            return self.policies.select_write(now)
        return False

    def _update_drain(self) -> None:
        if not self.drain and self.write_q.above_high_watermark:
            self.drain = True
            self.stats.drain_entries += 1
            if self.tracer.enabled:
                self.tracer.emit(TraceEvent(
                    EventType.DRAIN_ENTER,
                    tick=self.engine.now,
                    channel=self.channel_id,
                    extra={"write_queue_depth": len(self.write_q)},
                ))
        elif self.drain and self.write_q.below_low_watermark:
            self.drain = False
            if self.tracer.enabled:
                self.tracer.emit(TraceEvent(
                    EventType.DRAIN_EXIT,
                    tick=self.engine.now,
                    channel=self.channel_id,
                    extra={"write_queue_depth": len(self.write_q)},
                ))

    # ------------------------------------------------------------------
    # Wake management
    # ------------------------------------------------------------------
    def _note_wake(self, time: int) -> None:
        if time <= self.engine.now:
            time = self.engine.now + 1
        if self._wake_time is None or time < self._wake_time:
            self._wake_time = time

    def _arm_wake(self) -> None:
        if self._wake_time is None:
            return
        if self._wake_handle is not None and not self._wake_handle.cancelled:
            if self._wake_handle.time <= self._wake_time:
                return
            self._wake_handle.cancel()
        self._wake_handle = self.engine.schedule_at(self._wake_time, self._kick)

    # ==================================================================
    # Read path
    # ==================================================================
    def _try_forward_read(self, req: MemoryRequest) -> bool:
        """Serve a read from the write queue when the line is buffered.

        A read that matches a queued (or in-flight) write must observe the
        write's data; the controller forwards it from its buffers at SRAM
        speed instead of touching the PCM array.
        """
        line_address = req.line_address
        if not self.write_q.has_line(line_address):
            return False
        matches = [
            w for w in self.write_q if w.line_address == line_address
        ]
        if self.storage is not None:
            # In-flight writes already committed to the functional store;
            # overlay the still-pending ones in queue (FIFO) order.
            words = list(self.storage.read_line(req.line_address).words)
            for write in matches:
                if write.start_service >= 0 or write.new_words is None:
                    continue
                for w in range(WORDS_PER_LINE):
                    if (write.dirty_mask >> w) & 1:
                        words[w] = write.new_words[w]
            req.data_words = tuple(words)
        self.stats.forwarded_reads += 1
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                EventType.REQUEST_ISSUE,
                tick=self.engine.now,
                channel=self.channel_id,
                req_id=req.req_id,
                kind="read",
                reason="forwarded-from-write-queue",
            ))
        end = self.engine.now + self.timing.read_io_ticks
        self.engine.call_at(end, self._complete_read, req)
        return True

    def _try_issue_read(self, now: int) -> bool:
        """FR-FCFS over the read queue; returns True if a read was issued."""
        ranks = self.ranks
        best: Optional[MemoryRequest] = None
        best_hit = False
        earliest_future: Optional[int] = None
        for req in self.read_q:
            decoded = req.decoded
            if decoded is None:  # queued outside submit (direct tests)
                decoded = self.mapper.decode(req.address)
            rank = ranks[decoded.rank]
            chips = req.chips
            if chips is None:
                chips = self.layout.read_chips(decoded.line_address)
            version = rank.version
            cached = req.ready_cache
            if cached is not None and cached[0] == version:
                ready = cached[1]
            else:
                ready = rank.read_ready_time(chips, decoded.bank)
                req.ready_cache = (version, ready)
            if ready > now:
                if earliest_future is None or ready < earliest_future:
                    earliest_future = ready
                continue
            hit = rank.row_hit(chips, decoded.bank, decoded.row)
            if best is None or (hit and not best_hit):
                best, best_hit = req, hit
                if hit:
                    break  # row hit + oldest-first: good enough
        if best is None:
            if earliest_future is not None:
                self._note_wake(earliest_future)
            return False
        self._issue_read(best, now)
        return True

    def _issue_read(self, req: MemoryRequest, now: int) -> None:
        decoded = req.decoded
        if decoded is None:
            decoded = self.mapper.decode(req.address)
        rank = self.ranks[decoded.rank]
        chips = req.chips
        if chips is None:
            chips = self.layout.read_chips(decoded.line_address)
        start = max(now, rank.read_ready_time(chips, decoded.bank))
        activation = rank.activation_ticks(chips, decoded.bank, decoded.row)
        if activation == 0:
            self.stats.row_buffer_hits += 1
        else:
            self.stats.row_buffer_misses += 1
        cas_ready = start + activation + self.timing.cycles(self.timing.tCL)
        _bus_start, bus_end = self.bus.reserve(BusDirection.READ, cas_ready)
        rank.log_label = f"Rd-{req.req_id}"
        rank.reserve_read(chips, decoded.bank, bus_end, decoded.row, start=start)

        req.start_service = start
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                EventType.REQUEST_ISSUE,
                tick=self.engine.now,
                channel=self.channel_id,
                rank=decoded.rank,
                bank=decoded.bank,
                req_id=req.req_id,
                start=start,
                end=bus_end,
                kind="read",
            ))
        if not req.delayed_by_write:
            arrival = req.arrival
            chip_states = rank.chips
            for c in chips:
                if chip_states[c].write_busy_until > arrival:
                    req.delayed_by_write = True
                    break
        data_chips = self.layout.all_data_chips(decoded.line_address)
        self._record_activity(data_chips, start, bus_end)
        if self.storage is not None:
            req.data_words = self.storage.read_line(decoded.line_address).words
        self.read_q.remove(req)
        self.engine.call_at(bus_end, self._complete_read, req)

    def _complete_read(self, req: MemoryRequest) -> None:
        req.complete(self.engine.now)
        self.stats.record_read(req.effective_latency, req.delayed_by_write)
        self._m_read_latency.observe(ticks_to_ns(req.effective_latency))
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                EventType.REQUEST_COMPLETE,
                tick=self.engine.now,
                channel=self.channel_id,
                req_id=req.req_id,
                kind="read",
                reason=req.service_class.value,
                extra={"latency_ns": ticks_to_ns(req.effective_latency)},
            ))
        if self.read_completion_hook is not None:
            self.read_completion_hook(req)
        self._kick()

    # ==================================================================
    # Write path (baseline: coarse, whole-rank writes, oldest first)
    # ==================================================================
    def select_write_candidate(self, now: int) -> Optional[WriteContext]:
        """Head write the policy chain deliberates over this step.

        Baseline queue discipline: strict FIFO over not-yet-issued writes,
        gated on the coarse chip set being ready now (otherwise a wake-up
        is armed and the step yields).  ``PCMapController`` overrides this
        with oldest-*ready*-first selection over fine-grained chip sets.
        """
        for head in self.write_q.pending:
            if head.start_service < 0:
                break
        else:
            return None
        decoded = head.decoded
        if decoded is None:
            decoded = self.mapper.decode(head.address)
        rank = self.ranks[decoded.rank]
        # The coarse ready time is a pure function of rank state: stamp
        # it with the rank version, as the PCMap candidate scan does, so
        # wake-up rescans of an unchanged rank skip the chip scan.
        version = rank.version
        cached = head.ready_cache
        if cached is not None and cached[0] == version:
            ready = cached[1]
        else:
            ready = rank.write_ready_time(self.coarse_chips, decoded.bank)
            head.ready_cache = (version, ready)
        if ready > now:
            self._note_wake(ready)
            return None
        return WriteContext(now, head, decoded)

    def _issue_coarse_write(
        self, req: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> None:
        rank = self.ranks[decoded.rank]
        chips = self.coarse_chips
        start = max(now, rank.write_ready_time(chips, decoded.bank))
        _bus_start, bus_end = self.bus.reserve(BusDirection.WRITE, start)
        # The word-write latency is all-inclusive: the differential
        # write's internal read-compare happens within it (the paper's
        # "write = 2x read" covers the whole operation; cf. Figure 5).
        array_start = bus_end

        if req.dirty_count == 0:
            # Silent store: the chips' read-before-write finds nothing to
            # change; only the compare (an array read) is paid.  The
            # zero-activity window keeps silent write-backs in the IRLP
            # average, matching the paper's 2.37 baseline derivation.
            req.service_class = ServiceClass.SILENT
            end = array_start + self.timing.array_read_ticks
            self._open_window(array_start, end)
        else:
            word_ticks = [
                self._word_write_ticks(req, w) for w in req.dirty_words
            ]
            end = array_start + max(word_ticks)
            self._open_window(array_start, end)
            for word, ticks in zip(req.dirty_words, word_ticks):
                chip = self.layout.data_chip(decoded.line_address, word)
                self._record_activity((chip,), array_start, array_start + ticks)
                self.stats.record_chip_write(chip)
            if self.geometry.has_ecc_chip:
                self.stats.record_chip_write(self.geometry.ecc_chip_index)
        rank.log_label = f"Wr-{req.req_id}"
        rank.reserve_write(chips, decoded.bank, end, decoded.row, start=array_start)
        self._finish_write(req, start, end, decoded)

    def _finish_write(
        self,
        req: MemoryRequest,
        start: int,
        end: int,
        decoded: DecodedAddress,
    ) -> None:
        """Common write issue: storage commit + completion event.

        The write-queue entry is retained until completion — the
        controller must hold the data until the array (and its ECC/PCC
        updates) committed, so queue occupancy reflects in-flight work
        and back-pressure is physical.
        """
        req.start_service = start
        self.write_q.note_issued(req)
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                EventType.REQUEST_ISSUE,
                tick=self.engine.now,
                channel=self.channel_id,
                rank=decoded.rank,
                bank=decoded.bank,
                req_id=req.req_id,
                start=start,
                end=end,
                kind="write",
                reason=req.service_class.value,
            ))
        if self.storage is not None and req.new_words is not None:
            self.storage.write_line(
                decoded.line_address, req.new_words, req.dirty_mask
            )
        self.engine.call_at(end, self._complete_write, req)

    def _complete_write(self, req: MemoryRequest) -> None:
        self.write_q.remove(req)
        req.complete(self.engine.now)
        self._m_writes_completed.inc()
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                EventType.REQUEST_COMPLETE,
                tick=self.engine.now,
                channel=self.channel_id,
                req_id=req.req_id,
                kind="write",
                reason=req.service_class.value,
            ))
        self._kick()

    # ==================================================================
    # Shared helpers
    # ==================================================================
    def _word_write_ticks(self, req: MemoryRequest, word: int) -> int:
        """Array time to write one dirty word on its chip."""
        timing = self.timing
        if timing.write_mode is WriteLatencyMode.FIXED:
            return timing.array_write_ticks
        # SET_RESET: a word with any 0->1 transition needs the slow SET.
        if req.old_words is not None and req.new_words is not None:
            old, new = req.old_words[word], req.new_words[word]
            needs_set = bool(new & ~old)
        else:
            # Statistical mode: deterministic pseudo-random draw per
            # (line, word) so re-runs are reproducible.
            draw = hash((req.line_address, word)) & 0xFFFF
            needs_set = draw < int(0.7 * 0x10000)
        if needs_set:
            return timing.array_write_set_ticks
        return timing.array_write_reset_ticks

    def _open_window(self, start: int, end: int) -> WriteWindow:
        window = self.irlp.open_window(start, end)
        self._open_windows.append(window)
        return window

    def _prune_windows(self) -> None:
        # Runs every kick; rebuild the list only when something expired.
        # Expired windows take no more activity; the recorder retires
        # them once no deferred step still holds them.
        windows = self._open_windows
        if not windows:
            return
        now = self.engine.now
        for window in windows:
            if window.end <= now:
                kept = []
                for w in windows:
                    if w.end > now:
                        kept.append(w)
                    else:
                        w.closed = True
                self._open_windows = kept
                self.irlp.retire()
                return

    def _record_activity(
        self, chips: Tuple[int, ...], start: int, end: int
    ) -> None:
        """Attribute data-chip activity to the open write windows.

        Windows grow (``absorb``) after creation, so no span filtering
        happens here; ``WriteWindow.irlp`` clips intervals to the final
        span, making out-of-window contributions vanish.
        """
        for window in self._open_windows:
            for chip in chips:
                window.add_activity(chip, start, end)
