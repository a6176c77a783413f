"""A generic set-associative cache with LRU replacement.

Used for the private L1D caches, the banked shared L2 (SRAM and STT-MRAM
variants), the HybridGPU DRAM read/write buffer and the page-walk cache.  ZnG
extends the L2 tag array with *prefetch* and *accessed* bits (Section IV-B);
those bits live on :class:`CacheLine` so the prefetcher's access monitor can
inspect them on eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(slots=True)
class CacheLine:
    """One tag-array entry."""

    tag: int
    dirty: bool = False
    # ZnG tag-array extension (Section IV-B).
    prefetched: bool = False
    accessed: bool = False
    # Pinned lines hold dirty flash-register spill data (Section IV-C) and are
    # excluded from normal replacement while pinned.
    pinned: bool = False


@dataclass
class EvictionRecord:
    """Information about an evicted line, consumed by the access monitor."""

    address: int
    dirty: bool
    prefetched: bool
    accessed: bool


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
        # of them.  Keyed by set index -> {tag: line}.  A set's dict order is
        # its recency order: every touch re-inserts the line at the end, so
        # the least recently used line comes first.
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0

    # -- address helpers ----------------------------------------------------
    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        # NOTE: lookup() and insert() inline these two expressions (they are
        # the hottest paths); change the indexing scheme in all three places
        # together.
        line_number = address // self.line_bytes
        return line_number % self.num_sets, line_number // self.num_sets

    def line_address(self, address: int) -> int:
        return (address // self.line_bytes) * self.line_bytes

    # -- core operations ----------------------------------------------------
    def lookup(self, address: int, mark_accessed: bool = True) -> bool:
        """Probe the cache; update LRU state on a hit."""
        # Inlined _index_and_tag (keep in lockstep with it): one probe per
        # L1/L2 access makes the call + tuple overhead measurable.
        line_number = address // self.line_bytes
        cache_set = self._sets.get(line_number % self.num_sets)
        if cache_set:
            tag = line_number // self.num_sets
            line = cache_set.pop(tag, None)
            if line is not None:
                cache_set[tag] = line
                if mark_accessed:
                    line.accessed = True
                self.hits += 1
                return True
        self.misses += 1
        return False

    def probe(self, address: int) -> bool:
        """Check residency without perturbing LRU state or statistics."""
        set_index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(set_index)
        return bool(cache_set) and tag in cache_set

    def insert(
        self,
        address: int,
        dirty: bool = False,
        prefetched: bool = False,
        pinned: bool = False,
    ) -> Optional[EvictionRecord]:
        """Allocate a line for ``address``; evict LRU if the set is full.

        Returns the evicted line's record, or ``None`` when nothing was
        evicted: the line was already resident, a way was free, or every
        way is pinned and the allocation is bypassed.
        """
        line_number = address // self.line_bytes
        num_sets = self.num_sets
        set_index = line_number % num_sets
        tag = line_number // num_sets
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = {}
        existing = cache_set.pop(tag, None)
        if existing is not None:
            cache_set[tag] = existing
            existing.dirty = existing.dirty or dirty
            existing.pinned = existing.pinned or pinned
            if not prefetched:
                existing.accessed = True
            return None

        evicted: Optional[EvictionRecord] = None
        if len(cache_set) >= self.assoc:
            evicted = self._evict_lru(set_index)
            if evicted is None:
                # Every line in the set is pinned: bypass the allocation.
                return None
        cache_set[tag] = CacheLine(tag, dirty, prefetched, not prefetched, pinned)
        self.insertions += 1
        return evicted

    def _evict_lru(self, set_index: int) -> Optional[EvictionRecord]:
        cache_set = self._sets[set_index]
        for tag, line in cache_set.items():
            if not line.pinned:
                break
        else:
            return None
        del cache_set[tag]
        self.evictions += 1
        if line.dirty:
            self.dirty_evictions += 1
        address = (line.tag * self.num_sets + set_index) * self.line_bytes
        return EvictionRecord(
            address=address,
            dirty=line.dirty,
            prefetched=line.prefetched,
            accessed=line.accessed,
        )

    def invalidate(self, address: int) -> bool:
        set_index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and cache_set.pop(tag, None) is not None

    def mark_dirty(self, address: int) -> bool:
        set_index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(set_index)
        line = cache_set.get(tag) if cache_set else None
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
                address = (line.tag * self.num_sets + set_index) * self.line_bytes
                callback(address, line)

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
