"""Generic set-associative write-back cache with pluggable replacement.

Used for the L1s, the shared L2, and the 256 MB DRAM cache of Table I.
The model is functional (hit/miss/eviction): what the memory study needs
from the cache stack is the *filtering* of accesses and the per-word
dirty masks of evicted lines.  Timing belongs to the tier that wraps it —
:class:`repro.cache.frontend.DramCacheFrontEnd` schedules hit/fill/
write-back events on the shared engine (docs/FRONTEND.md).

Victim selection is delegated to a :class:`ReplacementPolicy` (LRU by
default, byte-identical to the historical hard-coded behaviour; CLOCK
and MAC ship as alternatives — see :mod:`repro.cache.replacement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.cache.cacheline import CacheLine, line_base, word_index
from repro.cache.replacement import ReplacementPolicy, make_replacement_policy
from repro.memory.request import LINE_BYTES, WORDS_PER_LINE


@dataclass(frozen=True)
class Eviction:
    """A dirty line pushed out of the cache (a write-back).

    Clean victims never materialise an ``Eviction``: they leave silently
    and are tallied in :attr:`CacheStats.clean_evictions`, so every
    object call sites receive represents real write-back traffic.
    """

    address: int        #: line-aligned byte address
    dirty_mask: int     #: per-word dirty bits (never 0)
    words: Optional[Tuple[int, ...]] = None

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    clean_evictions: int = 0    #: victims dropped without a write-back

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """Set-associative cache over 64-byte lines."""

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        name: str = "cache",
        track_words: bool = False,
        policy: Union[str, ReplacementPolicy, None] = None,
    ):
        if size_bytes % (LINE_BYTES * associativity):
            raise ValueError(
                f"{name}: size must be a multiple of line x associativity"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.n_sets = size_bytes // (LINE_BYTES * associativity)
        if self.n_sets < 1:
            raise ValueError(f"{name}: no sets")
        self.track_words = track_words
        self.policy = make_replacement_policy(policy)
        self._sets: Dict[int, List[CacheLine]] = {}
        self._clock = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _locate(self, address: int) -> Tuple[int, int]:
        line = line_base(address) // LINE_BYTES
        return line % self.n_sets, line // self.n_sets

    def _find(self, set_index: int, tag: int) -> Optional[CacheLine]:
        for entry in self._sets.get(set_index, ()):
            if entry.valid and entry.tag == tag:
                return entry
        return None

    def contains(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        return self._find(set_index, tag) is not None

    def line_state(self, address: int) -> Optional[CacheLine]:
        """The resident line (for tests/introspection), or None."""
        set_index, tag = self._locate(address)
        return self._find(set_index, tag)

    def merge_dirty(self, address: int, dirty_mask: int) -> None:
        """OR ``dirty_mask`` into the resident line (no-op on a miss).

        The backend-neutral way to inherit dirty words (spills, MSHR
        pending masks): the array backend's ``line_state`` returns a
        snapshot, so callers must not mutate that.
        """
        if not dirty_mask:
            return
        entry = self.line_state(address)
        if entry is not None:
            entry.dirty_mask |= dirty_mask

    # ------------------------------------------------------------------
    def access(
        self,
        address: int,
        is_write: bool,
        value: Optional[int] = None,
    ) -> Tuple[bool, Optional[Eviction]]:
        """One load/store.  Returns (hit, dirty-eviction-on-fill).

        A miss allocates the line (write-allocate) and may evict the
        policy's victim; the caller turns a dirty eviction into a
        write-back and a miss into a fill from the next level.  Clean
        victims return ``None`` (counted in ``stats.clean_evictions``).
        """
        self._clock += 1
        set_index, tag = self._locate(address)
        entry = self._find(set_index, tag)
        evicted: Optional[Eviction] = None
        hit = entry is not None
        if entry is None:
            self.stats.misses += 1
            evicted = self._fill(set_index, tag)
            entry = self._find(set_index, tag)
            assert entry is not None
        else:
            self.stats.hits += 1
            self.policy.on_hit(set_index, entry)
        entry.touch(self._clock)
        if is_write:
            word = word_index(address)
            if self.track_words and value is not None:
                entry.write_word(word, value)
            else:
                entry.mark_dirty(word)
        return hit, evicted

    def probe(self, address: int, dirty_mask: int = 0) -> Optional[CacheLine]:
        """Line-granularity lookup for the timed tier.

        On a hit: touch recency, run the policy's hit hook, merge
        ``dirty_mask`` into the line, count a hit, and return the line.
        On a miss: count a miss and return ``None`` *without allocating*
        — the timed tier installs lines only when their PCM fill
        completes (:meth:`install`), so a line is never visible before
        its data could exist.
        """
        self._clock += 1
        set_index, tag = self._locate(address)
        entry = self._find(set_index, tag)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry.touch(self._clock)
        if dirty_mask:
            entry.dirty_mask |= dirty_mask
        self.policy.on_hit(set_index, entry)
        return entry

    def _fill(self, set_index: int, tag: int) -> Optional[Eviction]:
        """Allocate (tag) in the set; returns the dirty eviction if any."""
        entries = self._sets.setdefault(set_index, [])
        evicted: Optional[Eviction] = None
        if len(entries) >= self.associativity:
            victim = self.policy.victim(set_index, entries)
            entries.remove(victim)
            self.policy.on_evict(set_index, victim)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
                victim_line = (
                    victim.tag * self.n_sets + set_index
                ) * LINE_BYTES
                evicted = Eviction(
                    victim_line, victim.dirty_mask, victim.words
                )
            else:
                self.stats.clean_evictions += 1
        words = None
        if self.track_words:
            words = tuple([0] * WORDS_PER_LINE)
        entry = CacheLine(tag=tag, words=words, last_use=self._clock)
        entries.append(entry)
        self.policy.on_fill(set_index, entry)
        return evicted

    # ------------------------------------------------------------------
    def install(
        self, address: int, words: Optional[Tuple[int, ...]] = None
    ) -> Optional[Eviction]:
        """Fill a line without an access (fill completion, back-fill)."""
        self._clock += 1
        set_index, tag = self._locate(address)
        if self._find(set_index, tag) is not None:
            return None
        return self._fill(set_index, tag)

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a line; returns its eviction record when it was dirty."""
        set_index, tag = self._locate(address)
        entry = self._find(set_index, tag)
        if entry is None:
            return None
        self._sets[set_index].remove(entry)
        self.policy.on_evict(set_index, entry)
        if entry.dirty:
            self.stats.evictions += 1
            self.stats.dirty_evictions += 1
            return Eviction(
                (tag * self.n_sets + set_index) * LINE_BYTES,
                entry.dirty_mask,
                entry.words,
            )
        return None

    def resident_lines(self) -> int:
        return sum(len(entries) for entries in self._sets.values())

    def dirty_lines(self) -> List[int]:
        """Addresses of dirty resident lines, in drain order.

        Order is first-fill order of sets (dict insertion order), then
        residency order within each set — the order the DRAM cache's
        flush has always used, and the order the array backend mirrors.
        """
        addresses: List[int] = []
        for set_index, entries in self._sets.items():
            for entry in entries:
                if entry.dirty:
                    addresses.append(
                        (entry.tag * self.n_sets + set_index) * LINE_BYTES
                    )
        return addresses

    # ------------------------------------------------------------------
    # Batch classification (scalar here; vectorized on the array backend)
    # ------------------------------------------------------------------
    def classify_batch(self, addresses: List[int]) -> List[bool]:
        """Advisory hit/miss classification (read-only, no bookkeeping)."""
        return [self.contains(address) for address in addresses]


# ======================================================================
# Backend selection
# ======================================================================
def make_set_cache(
    size_bytes: int,
    associativity: int,
    name: str = "cache",
    track_words: bool = False,
    policy: Union[str, ReplacementPolicy, None] = None,
):
    """Build a set-associative cache, picking the backend from the policy.

    The columnar :class:`~repro.cache.array_backend.ArraySetCache` (flat
    tag/recency/dirty/policy columns, index-arithmetic probes, batched
    classification) serves every policy that
    :func:`~repro.cache.replacement.array_policy_ops` mirrors — the
    three builtins, bit-identically.  Custom or subclassed policies get
    the historical per-line :class:`CacheLine` representation.  Direct
    ``SetAssociativeCache(...)`` construction remains object-backed.
    """
    from repro.cache.array_backend import ArraySetCache
    from repro.cache.replacement import array_policy_ops

    resolved = make_replacement_policy(policy)
    if array_policy_ops(resolved) is None:
        return SetAssociativeCache(
            size_bytes, associativity, name=name,
            track_words=track_words, policy=resolved,
        )
    return ArraySetCache(
        size_bytes, associativity, name=name,
        track_words=track_words, policy=resolved,
    )
