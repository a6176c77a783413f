"""Unit and property tests for the set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import SetAssociativeCache


def make_cache(size=4096, assoc=4, line=128):
    return SetAssociativeCache("test", size_bytes=size, assoc=assoc, line_bytes=line)


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(size=4096, assoc=4, line=128)  # 32 lines, 8 sets
        assert cache.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_cache(size=0)
        with pytest.raises(ValueError):
            SetAssociativeCache("tiny", size_bytes=128, assoc=4, line_bytes=128)

    def test_line_address(self):
        cache = make_cache()
        assert cache.line_address(1000) == 896


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_same_line_aliases(self):
        cache = make_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x1000 + 64)  # same 128 B line

    def test_probe_does_not_touch_stats(self):
        cache = make_cache()
        cache.insert(0x1000)
        cache.probe(0x1000)
        cache.probe(0x9999)
        assert cache.hits == 0
        assert cache.misses == 0

    def test_insert_existing_line_is_hit(self):
        cache = make_cache()
        cache.insert(0x1000)
        assert cache.insert(0x1000) is None
        assert cache.insertions == 1

    def test_lru_eviction(self):
        cache = make_cache(size=1024, assoc=2, line=128)  # 4 sets, 2 ways
        base = 0
        way_stride = cache.num_sets * cache.line_bytes
        cache.insert(base)                     # way 0
        cache.insert(base + way_stride)        # way 1
        cache.lookup(base)                     # make way 0 MRU
        evicted = cache.insert(base + 2 * way_stride)
        assert evicted is not None
        assert evicted.address == base + way_stride

    def test_eviction_reports_dirty(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, dirty=True)
        evicted = cache.insert(stride)
        assert evicted is not None
        assert evicted.dirty
        assert cache.dirty_evictions == 1

    def test_mark_dirty(self):
        cache = make_cache()
        cache.insert(0x40)
        assert cache.mark_dirty(0x40)
        assert not cache.mark_dirty(0xFFFF00)

    def test_invalidate(self):
        cache = make_cache()
        cache.insert(0x80)
        assert cache.invalidate(0x80)
        assert not cache.lookup(0x80)
        assert not cache.invalidate(0x80)


class TestZnGTagExtensions:
    def test_prefetched_unaccessed_eviction_record(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, prefetched=True)
        evicted = cache.insert(stride)
        assert evicted.prefetched
        assert not evicted.accessed

    def test_access_clears_waste_signal(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, prefetched=True)
        cache.lookup(0)
        evicted = cache.insert(stride)
        assert evicted.prefetched
        assert evicted.accessed

    def test_pinned_lines_survive_eviction(self):
        cache = make_cache(size=1024, assoc=2, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, pinned=True)
        cache.insert(stride)
        evicted = cache.insert(2 * stride)
        # The pinned line must not be the victim.
        assert evicted.address == stride

    def test_fully_pinned_set_bypasses(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, pinned=True)
        assert cache.insert(stride) is None
        assert not cache.probe(stride)
        assert cache.probe(0)

    def test_unpin_all(self):
        cache = make_cache()
        cache.insert(0, pinned=True)
        cache.insert(128, pinned=True)
        assert cache.unpin_all() == 2
        assert cache.unpin_all() == 0


class TestEvictionContract:
    """An eviction returns the evicted line itself, carrying what the old
    eviction record did: its line-aligned address and its dirty, prefetched
    and accessed bits."""

    @given(
        inserts=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1 << 20),
                      st.booleans(), st.booleans(), st.booleans()),
            min_size=1, max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_evicted_line_carries_record_fields(self, inserts):
        cache = make_cache(size=1024, assoc=2, line=128)
        # Shadow model: line address -> [dirty, prefetched, accessed].
        shadow = {}
        for address, dirty, prefetched, touch in inserts:
            line_address = cache.line_address(address)
            if touch and cache.lookup(address):
                shadow[line_address][2] = True
            evicted = cache.insert(address, dirty=dirty, prefetched=prefetched)
            if line_address in shadow:
                bits = shadow[line_address]
                bits[0] = bits[0] or dirty
                bits[2] = bits[2] or not prefetched
            else:
                shadow[line_address] = [dirty, prefetched, not prefetched]
            if evicted is not None:
                assert evicted.address == cache.line_address(evicted.address)
                assert [evicted.dirty, evicted.prefetched, evicted.accessed] == (
                    shadow.pop(evicted.address))
                assert not cache.probe(evicted.address)

    def test_for_each_line_addresses(self):
        cache = make_cache(size=4096, assoc=4, line=128)
        addresses = [0x0, 0x80, 0x1000, 0x1234, 0x4000 + 64, 0x10080]
        for address in addresses:
            cache.insert(address)
        seen = []
        cache.for_each_line(lambda address, line: seen.append(address))
        # Ordered by set index, then recency; each address is line-aligned and
        # equals (tag * num_sets + set_index) * line_bytes.
        expected = []
        for set_index in range(cache.num_sets):
            for address in addresses:
                line_number = address // cache.line_bytes
                if line_number % cache.num_sets == set_index:
                    tag = line_number // cache.num_sets
                    expected.append((tag * cache.num_sets + set_index) * cache.line_bytes)
        assert seen == expected


class TestStatistics:
    def test_hit_rate(self):
        cache = make_cache()
        cache.insert(0)
        cache.lookup(0)
        cache.lookup(4096 * 64)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_occupancy_and_clear(self):
        cache = make_cache()
        cache.insert(0)
        cache.insert(128)
        assert cache.occupancy == 2
        cache.clear()
        assert cache.occupancy == 0


class TestProperties:
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = make_cache(size=2048, assoc=2, line=128)
        capacity = 2048 // 128
        for address in addresses:
            cache.insert(address)
            assert cache.occupancy <= capacity

    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_inserted_line_immediately_resident(self, addresses):
        cache = make_cache(size=4096, assoc=4, line=128)
        for address in addresses:
            cache.insert(address)
            assert cache.probe(address)

    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_hits_plus_misses_equals_lookups(self, addresses):
        cache = make_cache()
        for address in addresses:
            cache.lookup(address)
            cache.insert(address)
        assert cache.hits + cache.misses == len(addresses)
