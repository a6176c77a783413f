"""A generic set-associative cache with LRU replacement.

Used for the private L1D caches, the banked shared L2 (SRAM and STT-MRAM
variants), the HybridGPU DRAM read/write buffer and the page-walk cache.  ZnG
extends the L2 tag array with *prefetch* and *accessed* bits (Section IV-B);
those bits live on :class:`CacheLine` so the prefetcher's access monitor can
inspect them on eviction.

Eviction contract: :meth:`SetAssociativeCache.insert` returns the evicted
:class:`CacheLine` itself — removed from the tag array, so nothing mutates
it afterwards — or ``None`` when nothing was evicted.  The line carries its
line-aligned ``address`` and the ``dirty``/``prefetched``/``accessed`` bits
it had when it left, which is everything a consumer (the access monitor,
the SSD engine's write-back) reads.  Callers that do not care about
evictions (the L1D, the page-walk cache) simply drop the return value, so
an eviction costs no allocation beyond the line that was already there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass(slots=True)
class CacheLine:
    """One tag-array entry."""

    #: Line-aligned byte address of the cached line.
    address: int
    dirty: bool = False
    # ZnG tag-array extension (Section IV-B).
    prefetched: bool = False
    accessed: bool = False
    # Pinned lines hold dirty flash-register spill data (Section IV-C) and are
    # excluded from normal replacement while pinned.
    pinned: bool = False


class SetAssociativeCache:
    """An LRU set-associative cache indexed by byte address.

    The cache only models the tag array (no data payloads).  ``line_bytes``
    defines the allocation granularity; the ZnG L2 inserts whole 4 KB flash
    pages by inserting each 128 B line of the page.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines < assoc:
            raise ValueError(f"cache {name!r} smaller than one set")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = max(1, num_lines // assoc)
        # Sets are allocated on first touch: a large L2 has thousands of sets
        # and eagerly building one dict per set dominates platform
        # construction at smoke scales, while most sweeps touch a fraction
        # of them.  Keyed by set index -> {line number: line}; the line
        # number (address // line_bytes) identifies a line within its set as
        # well as a tag would.  A set's dict order is its recency order:
        # every touch re-inserts the line at the end, so the least recently
        # used line comes first.
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0

    # -- address helpers ----------------------------------------------------
    # Every operation finds a line the same way, inline (one call per probe
    # is measurable on the request path): line number = address //
    # line_bytes, set = line number % num_sets, and the line number is the
    # key within the set.

    def line_address(self, address: int) -> int:
        return (address // self.line_bytes) * self.line_bytes

    # -- core operations ----------------------------------------------------
    def lookup(self, address: int, mark_accessed: bool = True) -> bool:
        """Probe the cache; update LRU state on a hit."""
        line_number = address // self.line_bytes
        cache_set = self._sets.get(line_number % self.num_sets)
        if cache_set:
            line = cache_set.pop(line_number, None)
            if line is not None:
                cache_set[line_number] = line
                if mark_accessed:
                    line.accessed = True
                self.hits += 1
                return True
        self.misses += 1
        return False

    def probe(self, address: int) -> bool:
        """Check residency without perturbing LRU state or statistics."""
        line_number = address // self.line_bytes
        cache_set = self._sets.get(line_number % self.num_sets)
        return bool(cache_set) and line_number in cache_set

    def insert(
        self,
        address: int,
        dirty: bool = False,
        prefetched: bool = False,
        pinned: bool = False,
    ) -> Optional[CacheLine]:
        """Allocate a line for ``address``; evict LRU if the set is full.

        Returns the evicted line, or ``None`` when nothing was evicted: the
        line was already resident, a way was free, or every way is pinned
        and the allocation is bypassed.
        """
        line_bytes = self.line_bytes
        line_number = address // line_bytes
        set_index = line_number % self.num_sets
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = {}
        existing = cache_set.pop(line_number, None)
        if existing is not None:
            cache_set[line_number] = existing
            existing.dirty = existing.dirty or dirty
            existing.pinned = existing.pinned or pinned
            if not prefetched:
                existing.accessed = True
            return None

        evicted: Optional[CacheLine] = None
        if len(cache_set) >= self.assoc:
            # Evict the least recently used unpinned line.
            for victim, evicted in cache_set.items():
                if not evicted.pinned:
                    break
            else:
                # Every line in the set is pinned: bypass the allocation.
                return None
            del cache_set[victim]
            self.evictions += 1
            if evicted.dirty:
                self.dirty_evictions += 1
        cache_set[line_number] = CacheLine(
            line_number * line_bytes, dirty, prefetched, not prefetched, pinned)
        self.insertions += 1
        return evicted

    def invalidate(self, address: int) -> bool:
        line_number = address // self.line_bytes
        cache_set = self._sets.get(line_number % self.num_sets)
        return cache_set is not None and cache_set.pop(line_number, None) is not None

    def mark_dirty(self, address: int) -> bool:
        line_number = address // self.line_bytes
        cache_set = self._sets.get(line_number % self.num_sets)
        line = cache_set.get(line_number) if cache_set else None
        if line is None:
            return False
        line.dirty = True
        return True

    def unpin_all(self) -> int:
        """Release every pinned line (used when register thrashing subsides)."""
        released = 0
        for cache_set in self._sets.values():
            for line in cache_set.values():
                if line.pinned:
                    line.pinned = False
                    released += 1
        return released

    def for_each_line(self, callback: Callable[[int, CacheLine], None]) -> None:
        for set_index in sorted(self._sets):
            for line in self._sets[set_index].values():
                callback(line.address, line)

    # -- statistics ---------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0

    def clear(self) -> None:
        self._sets = {}
        self.reset_statistics()
