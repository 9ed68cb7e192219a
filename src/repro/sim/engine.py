"""Discrete-event simulation engine.

The whole simulator runs on a single binary-heap event queue.  Time is kept
in integer *ticks* so that event ordering is exact and runs are perfectly
reproducible; one tick is 0.1 ns, which divides both the CPU clock period
(0.4 ns at 2.5 GHz) and the memory clock period (2.5 ns at 400 MHz) used by
the paper's configuration (Table I).

Events scheduled for the same tick fire in the order they were scheduled
(a monotonically increasing sequence number breaks ties), which keeps the
controller logic deterministic without fragile floating-point comparisons.

Two scheduling flavours share one queue (and one sequence counter, so
relative ordering is identical whichever is used):

* :meth:`Engine.schedule_at` returns an :class:`EventHandle` that can be
  cancelled before it fires — for events a controller may retract (armed
  wake-ups).
* :meth:`Engine.call_at` is the fast path for events that are never
  cancelled (request completions, verify steps): no handle object is
  allocated, and the callback's arguments ride in the heap entry so call
  sites need no per-event closure.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Number of ticks per nanosecond.  One tick = 0.1 ns.
TICKS_PER_NS = 10


def ns_to_ticks(nanoseconds: float) -> int:
    """Convert a duration in nanoseconds to integer ticks (rounded)."""
    return int(round(nanoseconds * TICKS_PER_NS))


def ticks_to_ns(ticks: int) -> float:
    """Convert integer ticks back to nanoseconds."""
    return ticks / TICKS_PER_NS


class CancelledEvent(Exception):
    """Raised when interacting with an event handle that was cancelled."""


class EventHandle:
    """Handle to a scheduled event, usable to cancel it before it fires."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_engine")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._note_cancel()


#: Heap entry: (time, seq, callback, args, handle-or-None).  ``seq`` is
#: unique, so comparison never reaches the non-orderable tail fields.
_Entry = Tuple[int, int, Callable[..., None], Tuple[Any, ...], Optional[EventHandle]]


class Engine:
    """Binary-heap discrete-event engine with deterministic ordering.

    Usage::

        engine = Engine()
        engine.schedule_at(100, lambda: print("fires at tick 100"))
        engine.run()
    """

    #: Compaction floor: heaps smaller than this are never compacted —
    #: the rebuild costs more than the cancelled entries' pop-skip cost.
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self._queue: List[_Entry] = []
        self._seq = 0
        #: Non-cancelled events still queued (kept exact so ``pending()``
        #: is O(1) instead of a queue scan).
        self._live = 0
        #: Cancelled entries still physically in the heap.  When they
        #: outnumber the live population the heap is compacted in place
        #: (see :meth:`_compact`).
        self._cancelled = 0
        #: One-shot stop latch consumed by :meth:`run_until_stop`.
        self._stop = False
        self.now: int = 0
        self._running = False
        #: Total events fired over the engine's lifetime (always counted —
        #: one integer increment; the telemetry profile reports it).
        self.events_dispatched = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire at absolute tick ``time``.

        ``time`` must not be in the past.  Returns a handle that can be
        used to cancel the event.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at tick {time}, now is {self.now}"
            )
        self._seq += 1
        handle = EventHandle(time, self._seq, callback, self)
        heapq.heappush(self._queue, (time, self._seq, callback, (), handle))
        self._live += 1
        return handle

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback)

    def call_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a never-cancelled ``callback(*args)`` at tick ``time``.

        The fast path for completion-style events: no :class:`EventHandle`
        is allocated and the arguments travel in the heap entry, so hot
        call sites avoid both the handle and a per-event closure.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at tick {time}, now is {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, callback, args, None))
        self._live += 1

    def call_after(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a never-cancelled ``callback(*args)`` after ``delay``."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.call_at(self.now + delay, callback, *args)

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Bookkeeping for one cancellation; compacts a mostly-dead heap.

        Cancelled entries normally linger until popped, which is fine
        when they are a minority — skipping them is one tuple compare.
        Pausing-heavy runs, however, can cancel far more wake-ups than
        they fire, so once cancelled entries exceed half the heap (and
        the heap is big enough to matter) the queue is rebuilt without
        them.  The rebuild is *in place* (slice assignment + heapify) so
        the local aliases held by a running drain loop stay valid.
        """
        self._live -= 1
        self._cancelled += 1
        queue = self._queue
        if (
            len(queue) >= self.COMPACT_MIN_QUEUE
            and self._cancelled * 2 > len(queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap, preserving heap order.

        Entries compare by their ``(time, seq)`` prefix alone (``seq`` is
        unique), so filtering + :func:`heapq.heapify` reproduces exactly
        the pop order the bloated heap would have yielded.
        """
        queue = self._queue
        queue[:] = [
            entry for entry in queue
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Return the tick of the next pending event, or ``None`` if empty."""
        queue = self._queue
        while queue:
            entry = queue[0]
            handle = entry[4]
            if handle is not None and handle.cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` when idle."""
        queue = self._queue
        while queue:
            time, _seq, callback, args, handle = heapq.heappop(queue)
            if handle is not None and handle.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            self.events_dispatched += 1
            self._live -= 1
            callback(*args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` ticks pass, or a budget hits.

        Returns the number of events fired.  When ``until`` is given, the
        clock is advanced to ``until`` even if the queue drains earlier so
        callers can measure elapsed time consistently.
        """
        fired = 0
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                entry = queue[0]
                handle = entry[4]
                if handle is not None and handle.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                pop(queue)
                callback, args = entry[2], entry[3]
                self.now = time
                self.events_dispatched += 1
                self._live -= 1
                callback(*args)
                fired += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return fired

    def request_stop(self) -> None:
        """Ask :meth:`run_until_stop` to stop after the current callback.

        Called from inside a dispatched callback (the last core's finish
        hook); the drain loop honours it before popping the next event,
        so the event count is exactly what a caller polling a done-flag
        between single steps would have dispatched.
        """
        self._stop = True

    def run_until_stop(
        self,
        max_ticks: Optional[int] = None,
        on_boundary: Optional[Callable[[int], int]] = None,
    ) -> int:
        """Drain events until :meth:`request_stop` or the queue empties.

        The simulator's hot loop: where :meth:`run` re-checks ``until``/
        ``max_events`` budgets per event and callers poll a done-flag
        around :meth:`step`, this drains with all loop state in locals
        and batches entries sharing the current tick through an inner
        loop (one heap pop + one compare each, no ``self.now`` rewrite).
        Ordering is untouched — entries still pop in exact ``(time,
        seq)`` order — so event streams are bit-identical to the stepped
        loop.  Returns the number of events fired.  ``max_ticks`` mirrors
        the simulator's safety valve: the event that first advances the
        clock past it still fires, then the drain raises.

        ``on_boundary(now)`` (the time-series sampler's hook) is called
        after the first event dispatched at a tick at or past the
        current boundary — initially 0 — and returns the next boundary.
        Later events at the same tick never call it again, since a
        returned boundary lies past ``now``.  Without a hook the
        boundary is infinite: one compare per tick.

        The stop latch is consumed on exit: a stop requested before the
        call returns immediately (the poll-first-then-step equivalence
        above), and the next call starts unlatched.
        """
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        limit = float("inf") if max_ticks is None else max_ticks
        boundary = float("inf") if on_boundary is None else 0
        self._running = True
        try:
            while queue and not self._stop:
                time, _seq, callback, args, handle = pop(queue)
                if handle is not None and handle.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = time
                self.events_dispatched += 1
                self._live -= 1
                callback(*args)
                fired += 1
                if time >= boundary:
                    boundary = on_boundary(time)
                if time > limit:
                    raise RuntimeError(
                        f"simulation exceeded {max_ticks} ticks"
                    )
                # Same-tick batch: everything scheduled for this tick
                # (including zero-delay events a callback just pushed)
                # drains here without touching the clock again.
                while queue and queue[0][0] == time and not self._stop:
                    _t, _seq, callback, args, handle = pop(queue)
                    if handle is not None and handle.cancelled:
                        self._cancelled -= 1
                        continue
                    self.events_dispatched += 1
                    self._live -= 1
                    callback(*args)
                    fired += 1
        finally:
            self._stop = False
            self._running = False
        return fired

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live
