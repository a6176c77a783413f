"""Unit tests for the prefetch access monitor."""

import pytest

from repro.config import PrefetchConfig
from repro.core.access_monitor import AccessMonitor
from repro.gpu.cache import CacheLine


def wasted_record():
    return CacheLine(address=0, dirty=False, prefetched=True, accessed=False)


def useful_record():
    return CacheLine(address=0, dirty=False, prefetched=True, accessed=True)


class TestAccessMonitor:
    def test_high_waste_shrinks_granularity(self):
        config = PrefetchConfig(monitor_window_evictions=10, high_waste_threshold=0.3)
        monitor = AccessMonitor(config)
        start = monitor.granularity_bytes
        for _ in range(10):
            monitor.observe_eviction(wasted_record())
        assert monitor.granularity_bytes < start

    def test_low_waste_grows_granularity(self):
        config = PrefetchConfig(
            monitor_window_evictions=10, low_waste_threshold=0.05,
            initial_prefetch_bytes=1024, max_prefetch_bytes=4096,
        )
        monitor = AccessMonitor(config)
        start = monitor.granularity_bytes
        for _ in range(10):
            monitor.observe_eviction(useful_record())
        assert monitor.granularity_bytes > start

    def test_granularity_floor(self):
        config = PrefetchConfig(
            monitor_window_evictions=4, high_waste_threshold=0.1,
            initial_prefetch_bytes=256, min_prefetch_bytes=128,
        )
        monitor = AccessMonitor(config)
        for _ in range(40):
            monitor.observe_eviction(wasted_record())
        assert monitor.granularity_bytes >= config.min_prefetch_bytes

    def test_granularity_ceiling(self):
        config = PrefetchConfig(
            monitor_window_evictions=4, low_waste_threshold=0.9,
            initial_prefetch_bytes=4096, max_prefetch_bytes=4096,
        )
        monitor = AccessMonitor(config)
        for _ in range(40):
            monitor.observe_eviction(useful_record())
        assert monitor.granularity_bytes <= config.max_prefetch_bytes

    def test_no_adjustment_before_window(self):
        config = PrefetchConfig(monitor_window_evictions=10)
        monitor = AccessMonitor(config)
        for _ in range(5):
            snapshot = monitor.observe_eviction(wasted_record())
            assert snapshot is None

    def test_window_boundary_returns_snapshot(self):
        config = PrefetchConfig(monitor_window_evictions=4)
        monitor = AccessMonitor(config)
        snapshots = [monitor.observe_eviction(wasted_record()) for _ in range(4)]
        assert snapshots[-1] is not None
        assert snapshots[-1].waste_ratio == pytest.approx(1.0)

    def test_overall_waste_ratio(self):
        monitor = AccessMonitor(PrefetchConfig(monitor_window_evictions=1000))
        monitor.observe_eviction(wasted_record())
        monitor.observe_eviction(useful_record())
        assert monitor.overall_waste_ratio == pytest.approx(0.5)

    def test_non_prefetched_eviction_not_wasteful(self):
        monitor = AccessMonitor(PrefetchConfig(monitor_window_evictions=1000))
        record = CacheLine(address=0, dirty=False, prefetched=False, accessed=False)
        monitor.observe_eviction(record)
        assert monitor.overall_waste_ratio == 0.0

    def test_reset(self):
        monitor = AccessMonitor()
        monitor.observe_eviction(wasted_record())
        monitor.reset()
        assert monitor.total_evictions == 0
        assert monitor.granularity_bytes == monitor.config.initial_prefetch_bytes
