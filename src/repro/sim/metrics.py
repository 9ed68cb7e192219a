"""Measurement machinery: IRLP windows, latency and throughput statistics.

IRLP ("intra-rank-level parallelism during a write", paper footnote 2) is
the time-averaged number of chips doing *data-word* array work while a
write service window is open.  The controller opens a
:class:`WriteWindow` for every write (or WoW group) it issues and
attributes chip activity intervals — the dirty-word writes themselves plus
any reads overlapped by RoW — to the window.  ECC/PCC update activity is
deliberately excluded so the metric tops out at 8.0, matching the paper.
Each channel's :class:`IrlpRecorder` folds a window into summary columns
once it can no longer change, so a run keeps only its live windows.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.sim.engine import ticks_to_ns

if TYPE_CHECKING:
    from repro.telemetry.profiler import RunProfile
    from repro.telemetry.registry import MetricsRegistry


def merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping [start, end) intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


#: IRLP never exceeds the number of data words per line (paper footnote 2
#: reports it "out of a maximum of 8.0").
MAX_IRLP = 8


def clipped_activity(
    activities: List[Tuple[int, int, int]], start: int, end: int
) -> Dict[int, List[Tuple[int, int]]]:
    """Per-chip ``activities`` intervals clipped to [start, end), empty ones dropped."""
    per_chip: Dict[int, List[Tuple[int, int]]] = {}
    for chip, a_start, a_end in activities:
        if a_start < start:
            a_start = start
        if a_end > end:
            a_end = end
        if a_end > a_start:
            intervals = per_chip.get(chip)
            if intervals is None:
                per_chip[chip] = [(a_start, a_end)]
            else:
                intervals.append((a_start, a_end))
    return per_chip


def capped_busy_ticks(
    per_chip: Dict[int, List[Tuple[int, int]]], start: int, end: int
) -> int:
    """Busy chip-ticks over [start, end), the chip count capped at MAX_IRLP.

    Sweeps the chip-count changes so the instantaneous count can be
    capped; ``per_chip`` holds intervals already clipped to the span.
    """
    events: List[Tuple[int, int]] = []
    for intervals in per_chip.values():
        for i_start, i_end in merge_intervals(intervals):
            events.append((i_start, +1))
            events.append((i_end, -1))
    events.sort()
    busy = 0
    count = 0
    previous = start
    for time, delta in events:
        busy += min(count, MAX_IRLP) * (time - previous)
        count += delta
        previous = time
    busy += min(count, MAX_IRLP) * (end - previous)
    return busy


@dataclass(slots=True)
class WriteWindow:
    """One write service window and the chip activity inside it."""

    start: int
    end: int
    #: Tick the slowest trailing ECC/PCC update of the window finished;
    #: write-throughput busy time runs to here, IRLP only to ``end``.
    service_end: int = -1
    #: (chip, start, end) data-word activity intervals.
    activities: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Set once the controller stops attributing activity to the window
    #: (a prune found ``end <= now``).
    closed: bool = False
    #: Set while a deferred step (RoW's PCC update) will still grow the
    #: window; a closed window is final only once this clears.
    held: bool = False
    #: Memoised ``irlp()`` result: ((start, end, len(activities)), value).
    #: Activities only ever append and the span only moves via the
    #: mutators below, so that triple is a complete mutation stamp; the
    #: time-series sampler re-reads recent windows every cadence tick and
    #: would otherwise re-clip unchanged windows.
    _irlp_cache: Optional[Tuple[Tuple[int, int, int], float]] = field(
        default=None, repr=False, compare=False
    )

    def add_activity(self, chip: int, start: int, end: int) -> None:
        """Record data-word array work on ``chip`` over [start, end)."""
        if end > start:
            self.activities.append((chip, start, end))

    def extend(self, end: int) -> None:
        """Grow the window (WoW groups end with their slowest member)."""
        self.end = max(self.end, end)

    def absorb(self, start: int, end: int) -> None:
        """Expand the window to cover [start, end) (WoW member spans).

        A window created with ``start < 0`` is a placeholder; the first
        absorb defines its span.
        """
        if self.start < 0:
            self.start, self.end = start, end
        else:
            self.start = min(self.start, start)
            self.end = max(self.end, end)

    def note_service_end(self, end: int) -> None:
        """Record when the window's full service (ECC/PCC tail) finished."""
        self.service_end = max(self.service_end, end)

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def busy_end(self) -> int:
        """End of the window's full service (at least the IRLP span end)."""
        return max(self.end, self.service_end)

    def irlp(self) -> float:
        """Time-averaged busy data-chip count, capped at :data:`MAX_IRLP`.

        The cap matches the paper's definition: at most the eight data
        words of any line are in flight, even though a reconstruction read
        plus a trailing write can momentarily touch nine physical chips.
        While at most MAX_IRLP distinct chips are busy the cap cannot
        bind, so the busy chip-time is each chip's merged busy time,
        summed: the same integer :func:`capped_busy_ticks` sweeps to.
        """
        start, end = self.start, self.end
        if end <= start:
            return 0.0
        stamp = (start, end, len(self.activities))
        cache = self._irlp_cache
        if cache is not None and cache[0] == stamp:
            return cache[1]
        per_chip = clipped_activity(self.activities, start, end)
        if len(per_chip) > MAX_IRLP:
            busy = capped_busy_ticks(per_chip, start, end)
        else:
            busy = 0
            for intervals in per_chip.values():
                if len(intervals) == 1:
                    i_start, i_end = intervals[0]
                    busy += i_end - i_start
                else:
                    for i_start, i_end in merge_intervals(intervals):
                        busy += i_end - i_start
        value = busy / (end - start)
        self._irlp_cache = (stamp, value)
        return value


#: Windows the ``irlp.recent`` sampler probe reads per channel.
RECENT_WINDOWS = 4


class IrlpRecorder:
    """Streams one channel's write windows into compact columns.

    Windows live in a creation-ordered queue until they are sealed:
    closed by the controller's prune and no longer held by a deferred
    step.  Sealed windows retire from the head of the queue (a younger
    sealed window waits behind an older live one), so the retired
    columns followed by the live windows are always in creation order,
    and every summary reads the same values in the same order as a scan
    over all windows would.
    """

    def __init__(self) -> None:
        self._live: Deque[WriteWindow] = deque()
        #: The last :data:`RECENT_WINDOWS` windows opened, live or retired.
        self.recent: Deque[WriteWindow] = deque(maxlen=RECENT_WINDOWS)
        #: IRLP of each retired window with a positive duration.
        self._irlp = array("d")
        #: ``(start, busy_end)`` of each retired window with service time.
        self._span_starts = array("q")
        self._span_ends = array("q")

    def open_window(self, start: int, end: int) -> WriteWindow:
        window = WriteWindow(start, end)
        self._live.append(window)
        self.recent.append(window)
        return window

    @property
    def live_count(self) -> int:
        """Windows opened and not yet retired."""
        return len(self._live)

    def retire(self) -> None:
        """Fold the sealed windows at the head of the live queue."""
        live = self._live
        while live:
            window = live[0]
            if not window.closed or window.held:
                return
            live.popleft()
            start = window.start
            if window.end > start:
                self._irlp.append(window.irlp())
            busy_end = window.busy_end
            if busy_end > start:
                self._span_starts.append(start)
                self._span_ends.append(busy_end)

    def values(self) -> List[float]:
        """IRLP of every window with a positive duration, in creation order."""
        values = self._irlp.tolist()
        values.extend(w.irlp() for w in self._live if w.duration > 0)
        return values

    def average(self) -> float:
        """Mean IRLP across windows (0 when no writes were serviced)."""
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def maximum(self) -> float:
        values = self.values()
        return max(values) if values else 0.0

    def drain_busy_ticks(self) -> int:
        """Union duration of all write service spans (incl. ECC/PCC tails)."""
        spans = list(zip(self._span_starts, self._span_ends))
        spans.extend(
            (w.start, w.busy_end) for w in self._live if w.busy_end > w.start
        )
        return sum(end - start for start, end in merge_intervals(spans))


@dataclass
class MemoryStats:
    """Aggregate counters for one controller (or merged across channels)."""

    reads_completed: int = 0
    #: Writes the controller *accepted* (booked at submit, before any
    #: array work); the registry's own ``writes.completed`` counter is the
    #: one that counts array completions.  Named for the persisted schema.
    writes_completed: int = 0
    read_latency_ticks: int = 0          #: sum of arrival->completion
    read_latency_max: int = 0
    reads_delayed_by_write: int = 0
    forwarded_reads: int = 0             #: reads served from the write queue
    row_buffer_hits: int = 0             #: reads served from an open row
    row_buffer_misses: int = 0           #: reads that had to activate
    row_reads: int = 0                   #: reads served via RoW reconstruction
    row_normal_overlap_reads: int = 0    #: reads overlapped without reconstruction
    wow_member_writes: int = 0           #: writes consolidated into groups
    wow_groups: int = 0                  #: groups with >= 2 members
    silent_writes: int = 0               #: zero-dirty-word write-backs
    rollbacks: int = 0                   #: RoW verifications that failed
    verify_count: int = 0                #: deferred verifications performed
    dirty_word_histogram: List[int] = field(default_factory=lambda: [0] * 9)
    drain_entries: int = 0               #: number of drain episodes
    #: PCM word writes per physical chip (data words and ECC/PCC updates)
    #: — wear balance; rotation spreads these (paper §IV-C2).
    chip_word_writes: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record_read(self, latency_ticks: int, delayed: bool) -> None:
        self.reads_completed += 1
        self.read_latency_ticks += latency_ticks
        self.read_latency_max = max(self.read_latency_max, latency_ticks)
        if delayed:
            self.reads_delayed_by_write += 1

    def record_write(self, dirty_count: int) -> None:
        self.writes_completed += 1
        self.dirty_word_histogram[dirty_count] += 1
        if dirty_count == 0:
            self.silent_writes += 1

    def record_chip_write(self, chip: int) -> None:
        """Count one PCM word write on a physical chip (wear tracking)."""
        self.chip_word_writes[chip] = self.chip_word_writes.get(chip, 0) + 1

    def chip_write_imbalance(self) -> float:
        """Coefficient of variation of per-chip word writes (0 = even)."""
        counts = list(self.chip_word_writes.values())
        if len(counts) < 2:
            return 0.0
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return variance ** 0.5 / mean

    # ------------------------------------------------------------------
    @property
    def row_buffer_hit_rate(self) -> float:
        total = self.row_buffer_hits + self.row_buffer_misses
        if not total:
            return 0.0
        return self.row_buffer_hits / total

    @property
    def mean_read_latency_ticks(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.read_latency_ticks / self.reads_completed

    @property
    def mean_read_latency_ns(self) -> float:
        return ticks_to_ns(int(self.mean_read_latency_ticks))

    @property
    def delayed_read_fraction(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.reads_delayed_by_write / self.reads_completed

    @property
    def mean_dirty_words(self) -> float:
        total = sum(self.dirty_word_histogram)
        if not total:
            return 0.0
        return (
            sum(i * n for i, n in enumerate(self.dirty_word_histogram)) / total
        )

    # ------------------------------------------------------------------
    def merge(self, other: "MemoryStats") -> None:
        """Accumulate another controller's counters into this one.

        Every field adds (histogram bins and per-chip counts element-wise)
        except ``read_latency_max``, which takes the maximum.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "read_latency_max":
                self.read_latency_max = max(mine, theirs)
            elif isinstance(mine, list):
                for i, count in enumerate(theirs):
                    mine[i] += count
            elif isinstance(mine, dict):
                for chip, count in theirs.items():
                    mine[chip] = mine.get(chip, 0) + count
            else:
                setattr(self, f.name, mine + theirs)


#: Registry counters filled from the stats when a run is collected, by
#: the component that books them: registry name -> stats field.  The
#: stats are the only store; ``row``/``wow`` are published only when the
#: run built those policies and ``frontend`` (a
#: :class:`~repro.cache.frontend.FrontEndStats`) only with a DRAM tier,
#: so a dump names exactly the components the run had.
PUBLISHED_COUNTERS: Dict[str, Dict[str, str]] = {
    "controller": {
        "requests.write.enqueued": "writes_completed",
        "reads.completed": "reads_completed",
        "reads.forwarded": "forwarded_reads",
        "reads.delayed_by_write": "reads_delayed_by_write",
        "drain.entries": "drain_entries",
    },
    "row": {
        "row.reads": "row_reads",
        "row.overlap_reads": "row_normal_overlap_reads",
        "rollbacks": "rollbacks",
        "verifications": "verify_count",
    },
    "wow": {
        "wow.groups": "wow_groups",
        "wow.member_writes": "wow_member_writes",
    },
    "frontend": {
        "frontend.hits": "hits",
        "frontend.misses": "misses",
        "frontend.mshr_coalesced": "coalesced",
        "frontend.fills": "fills",
        "frontend.write_backs": "write_backs",
    },
}


def publish_counters(
    metrics: "MetricsRegistry", sources: Dict[str, object]
) -> None:
    """Add each ``sources`` component's stats to its registry counters.

    ``sources`` maps a :data:`PUBLISHED_COUNTERS` component to the stats
    object holding its counts.  Called once per run, at collection.
    """
    for component, stats in sources.items():
        for name, field_name in PUBLISHED_COUNTERS[component].items():
            metrics.counter(name).inc(getattr(stats, field_name))


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run."""

    system_name: str
    workload_name: str
    sim_ticks: int
    instructions: int
    cpu_cycles: int
    memory: MemoryStats
    irlp_average: float
    irlp_max: float
    write_service_busy_ticks: int
    #: RNG seed the run used (-1 when unknown, e.g. hand-built results);
    #: echoed into persisted result files for attributability.
    seed: int = -1
    #: Engine profile (events dispatched, wall seconds); populated by
    #: :class:`repro.sim.simulator.SystemSimulator`, never persisted.
    profile: Optional["RunProfile"] = None
    #: JSON-safe :meth:`MetricsRegistry.as_dict` dump, embedded when the
    #: run was launched with ``collect_metrics=True``; ``None`` otherwise.
    metrics: Optional[dict] = None
    #: JSON-safe :meth:`TimeSeries.as_dict` dump, embedded when the run
    #: sampled (``sample_every_ticks`` set); ``None`` otherwise.
    timeseries: Optional[dict] = None
    #: JSON-safe :meth:`DramCacheFrontEnd.summary` dump (hit/miss/fill/
    #: write-back counters and tier config), embedded when the run was
    #: launched with a simulated front end; ``None`` on the direct path.
    frontend: Optional[dict] = None

    @property
    def ipc(self) -> float:
        """Aggregate instructions per CPU cycle across all cores."""
        if not self.cpu_cycles:
            return 0.0
        return self.instructions / self.cpu_cycles

    @property
    def write_throughput(self) -> float:
        """Writes completed per microsecond of write-service busy time."""
        busy_ns = ticks_to_ns(self.write_service_busy_ticks)
        if busy_ns <= 0:
            return 0.0
        return self.memory.writes_completed / (busy_ns / 1000.0)

    @property
    def mean_read_latency_ns(self) -> float:
        return self.memory.mean_read_latency_ns
