"""The shared, banked L2 cache.

Two flavours are used in the evaluation:

* the conventional 6 MB SRAM L2 (Table I, GPU column), read/write, and
* ZnG's 24 MB STT-MRAM L2 (Table I, right column) which is *read-only*: its
  long write latency (5 cycles vs 1) makes it unsuitable for buffering writes,
  so dirty data is kept in the flash registers instead (Section III-C).

The cache is partitioned into banks; each bank is a throughput resource, so
bank conflicts and the extra STT-MRAM write occupancy show up as queueing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import GPUConfig, STTMRAMConfig
from repro.gpu.cache import CacheLine, SetAssociativeCache
from repro.gpu.mshr import MSHR
from repro.sim.engine import Resource


class SharedL2Cache:
    """A banked, set-associative shared L2 cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        banks: int,
        read_latency_cycles: float,
        write_latency_cycles: float,
        mshr_entries_per_bank: int = 64,
        read_only: bool = False,
    ) -> None:
        self.name = name
        self.line_bytes = line_bytes
        self.banks = banks
        self.read_latency_cycles = read_latency_cycles
        self.write_latency_cycles = write_latency_cycles
        self.read_only = read_only
        per_bank_size = size_bytes // banks
        self._bank_arrays: List[SetAssociativeCache] = [
            SetAssociativeCache(
                name=f"{name}_bank{i}",
                size_bytes=per_bank_size,
                assoc=assoc,
                line_bytes=line_bytes,
            )
            for i in range(banks)
        ]
        self._bank_ports: List[Resource] = [
            Resource(f"{name}_bank{i}_port", ports=1) for i in range(banks)
        ]
        self.mshrs: List[MSHR] = [
            MSHR(f"{name}_bank{i}_mshr", mshr_entries_per_bank) for i in range(banks)
        ]
        self.write_bypasses = 0
        self.prefetch_insertions = 0
        #: Lines evicted since the last :meth:`drain_evictions`, kept only
        #: while ``keep_evictions`` is set: the ZnG prefetcher's access
        #: monitor is their one consumer, and no other platform drains them.
        self.keep_evictions = False
        self.evicted_records: List[CacheLine] = []

    # -- helpers ------------------------------------------------------------
    def bank_of(self, address: int) -> int:
        return (address // self.line_bytes) % self.banks

    def array(self, bank: int) -> SetAssociativeCache:
        return self._bank_arrays[bank]

    @classmethod
    def from_gpu_config(cls, config: GPUConfig, name: str = "l2_sram") -> "SharedL2Cache":
        return cls(
            name=name,
            size_bytes=config.l2_size_bytes,
            assoc=config.l2_assoc,
            line_bytes=config.l2_line_bytes,
            banks=config.l2_banks,
            read_latency_cycles=config.l2_read_latency_cycles,
            write_latency_cycles=config.l2_write_latency_cycles,
            mshr_entries_per_bank=config.l2_mshr_entries_per_bank,
            read_only=False,
        )

    @classmethod
    def from_stt_mram_config(
        cls, config: STTMRAMConfig, name: str = "l2_stt_mram"
    ) -> "SharedL2Cache":
        return cls(
            name=name,
            size_bytes=config.size_bytes,
            assoc=config.assoc,
            line_bytes=config.line_bytes,
            banks=config.banks,
            read_latency_cycles=config.read_latency_cycles,
            write_latency_cycles=config.write_latency_cycles,
            mshr_entries_per_bank=64,
            read_only=True,
        )

    # -- access path --------------------------------------------------------
    def access(self, address: int, is_write: bool, now: float) -> Tuple[bool, float]:
        """Probe the L2 for a 128 B request; return ``(hit, ready_cycle)``.

        Allocates on write hits only.  A *read-only* L2 (STT-MRAM) never
        allocates lines for writes and invalidates any stale copy instead,
        matching Section III-C.
        """
        bank = (address // self.line_bytes) % self.banks  # bank_of(), inlined
        array = self._bank_arrays[bank]
        latency = self.write_latency_cycles if is_write else self.read_latency_cycles
        # Single-port bank booking, inlined (see repro.sim.engine).
        port = self._bank_ports[bank]
        free_at = port._free_at
        free = free_at[0]
        start = now if now > free else free
        ready = start + latency
        free_at[0] = ready
        port.busy_cycles += latency
        port.wait_cycles += start - now
        port.requests_served += 1
        port.last_completion = ready

        if is_write:
            if self.read_only:
                # Writes bypass the read-only L2; keep it coherent by
                # invalidating.
                array.invalidate(address)
                self.write_bypasses += 1
                return False, ready
            hit = array.lookup(address)
            if hit:
                array.mark_dirty(address)
            return hit, ready
        return array.lookup(address), ready

    def fill(
        self,
        address: int,
        now: float,
        dirty: bool = False,
        prefetched: bool = False,
        pinned: bool = False,
    ) -> None:
        """Install one line (e.g. after a flash/DRAM fill or a prefetch).

        Fills are performed by the fill path of the bank and do not contend
        with the demand-access port.  (Booking the single demand port at the
        fill's future completion time ``now`` would falsely delay earlier
        demand accesses.)
        """
        evicted = self._bank_arrays[(address // self.line_bytes) % self.banks].insert(
            address, dirty, prefetched, pinned
        )
        if prefetched:
            self.prefetch_insertions += 1
        if evicted is not None and self.keep_evictions:
            self.evicted_records.append(evicted)

    def fill_page(
        self,
        page_address: int,
        page_bytes: int,
        now: float,
        prefetched: bool = True,
        limit_bytes: Optional[int] = None,
    ) -> None:
        """Install the lines of a fetched flash page (or a prefix of it).

        Inserts straight into the bank arrays (one insert per 128 B line);
        page fills happen on every prefetched miss, so this loop is hot.
        """
        span = min(page_bytes, limit_bytes) if limit_bytes else page_bytes
        bank_arrays = self._bank_arrays
        keep = self.evicted_records.append if self.keep_evictions else None
        line_bytes = self.line_bytes
        num_banks = self.banks
        offsets = range(0, span, line_bytes)
        for offset in offsets:
            address = page_address + offset
            evicted = bank_arrays[(address // line_bytes) % num_banks].insert(
                address, False, prefetched
            )
            if evicted is not None and keep is not None:
                keep(evicted)
        if prefetched:
            self.prefetch_insertions += len(offsets)

    def probe(self, address: int) -> bool:
        return self._bank_arrays[self.bank_of(address)].probe(address)

    def drain_evictions(self) -> List[CacheLine]:
        records = self.evicted_records
        self.evicted_records = []
        return records

    def pin_lines(self, addresses: List[int], now: float) -> None:
        """Pin L2 lines to hold spilled dirty register data (Section IV-C)."""
        for address in addresses:
            self.fill(address, now, dirty=True, pinned=True)

    def unpin_all(self) -> int:
        return sum(array.unpin_all() for array in self._bank_arrays)

    # -- statistics ---------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(a.hits for a in self._bank_arrays)

    @property
    def misses(self) -> int:
        return sum(a.misses for a in self._bank_arrays)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def size_bytes(self) -> int:
        return sum(a.size_bytes for a in self._bank_arrays)

    def reset_statistics(self) -> None:
        for array in self._bank_arrays:
            array.reset_statistics()
        for mshr in self.mshrs:
            mshr.reset()
        self.write_bypasses = 0
        self.prefetch_insertions = 0
        self.evicted_records.clear()
