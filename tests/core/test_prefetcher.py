"""Unit tests for the dynamic read prefetcher."""

import pytest

from repro.config import PrefetchConfig
from repro.core.prefetcher import DynamicReadPrefetcher
from repro.gpu.cache import CacheLine
from repro.sim.request import AccessType, MemoryRequest


def read_request(pc=0x1000, page=0, warp=0):
    return MemoryRequest(address=page * 4096, access=AccessType.READ, pc=pc, warp_id=warp)


class TestPrefetcher:
    def test_no_prefetch_before_training(self):
        prefetcher = DynamicReadPrefetcher()
        prefetch, fetch_bytes, reason = prefetcher.on_miss(read_request())
        assert not prefetch
        assert fetch_bytes == prefetcher.line_bytes

    def test_prefetch_after_training(self):
        config = PrefetchConfig(prefetch_threshold=3)
        prefetcher = DynamicReadPrefetcher(config)
        request = read_request(page=5)
        for _ in range(5):
            prefetcher.train(request)
        prefetch, fetch_bytes, reason = prefetcher.on_miss(request)
        assert prefetch
        assert fetch_bytes > prefetcher.line_bytes

    def test_write_never_prefetched(self):
        prefetcher = DynamicReadPrefetcher()
        request = MemoryRequest(address=0, access=AccessType.WRITE, pc=0x1000)
        prefetch, fetch_bytes, reason = prefetcher.on_miss(request)
        assert not prefetch
        assert reason == "write"

    def test_write_does_not_train(self):
        prefetcher = DynamicReadPrefetcher()
        request = MemoryRequest(address=0, access=AccessType.WRITE, pc=0x1000)
        prefetcher.train(request)
        assert prefetcher.predictor.updates == 0

    def test_eviction_feedback_adjusts_granularity(self):
        config = PrefetchConfig(monitor_window_evictions=8, high_waste_threshold=0.3)
        prefetcher = DynamicReadPrefetcher(config)
        start = prefetcher.current_granularity
        wasted = [
            CacheLine(address=i, dirty=False, prefetched=True, accessed=False)
            for i in range(8)
        ]
        prefetcher.observe_evictions(wasted)
        assert prefetcher.current_granularity < start

    def test_prefetch_rate(self):
        config = PrefetchConfig(prefetch_threshold=1)
        prefetcher = DynamicReadPrefetcher(config)
        request = read_request(page=1)
        prefetcher.train(request)
        prefetcher.train(request)
        prefetcher.on_miss(request)                     # prefetch
        prefetcher.on_miss(read_request(pc=0x999))      # demand (untrained)
        assert prefetcher.prefetch_rate == pytest.approx(0.5)

    def test_fetch_bytes_never_exceeds_page(self):
        config = PrefetchConfig(prefetch_threshold=1, initial_prefetch_bytes=8192)
        prefetcher = DynamicReadPrefetcher(config, page_size_bytes=4096)
        request = read_request()
        prefetcher.train(request)
        prefetcher.train(request)
        prefetch, fetch_bytes, reason = prefetcher.on_miss(request)
        assert fetch_bytes <= 4096

    def test_reset(self):
        prefetcher = DynamicReadPrefetcher()
        prefetcher.train(read_request())
        prefetcher.reset()
        assert prefetcher.predictor.occupancy == 0
        assert prefetcher.prefetches_issued == 0
