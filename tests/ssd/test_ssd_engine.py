"""Unit tests for the SSD engine (dispatcher + cores + DRAM buffer)."""

import pytest

from repro.config import SSDEngineConfig, ZNANDConfig
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.ssd_engine import SERVICE_COMPONENTS, SSDEngine
from repro.ssd.znand import ZNANDArray


def make_engine():
    config = ZNANDConfig(
        channels=4, dies_per_package=2, planes_per_die=2,
        blocks_per_plane=16, pages_per_block=8,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "bus"))
    return SSDEngine(SSDEngineConfig(), array)


def service(engine, *args, **kwargs):
    """``engine.service`` as ``(completion_cycle, buffer_hit, {component: cycles})``."""
    completion, buffer_hit, *cycles = engine.service(*args, **kwargs)
    return completion, buffer_hit, dict(zip(SERVICE_COMPONENTS, cycles))


class TestService:
    def test_cold_read_hits_flash(self):
        engine = make_engine()
        _, buffer_hit, breakdown = service(engine, 0x1000, 128, is_write=False, now=0.0)
        assert breakdown["flash_array"] > 0
        assert not buffer_hit

    def test_warm_read_hits_buffer(self):
        engine = make_engine()
        engine.service(0x1000, 128, is_write=False, now=0.0)
        _, buffer_hit, breakdown = service(engine, 0x1000, 128, is_write=False, now=1e6)
        assert buffer_hit
        assert breakdown["flash_array"] == 0.0

    def test_engine_latency_present(self):
        engine = make_engine()
        _, _, breakdown = service(engine, 0x2000, 128, is_write=False, now=0.0)
        assert breakdown["ssd_engine"] > 0
        assert breakdown["ssd_dispatcher"] > 0

    def test_engine_is_throughput_bottleneck(self):
        """Many concurrent requests serialize on the limited embedded cores."""
        engine = make_engine()
        last = 0.0
        for i in range(50):
            completion, _, _ = service(engine, i * 4096, 128, is_write=False, now=0.0)
            last = max(last, completion)
        # With only a few cores at a low request rate, 50 requests take a while.
        assert last > 0.0
        assert engine.requests_serviced == 50

    def test_write_path(self):
        engine = make_engine()
        completion, _, _ = service(engine, 0x3000, 128, is_write=True, now=0.0)
        assert completion > 0.0

    def test_buffer_hit_rate(self):
        engine = make_engine()
        engine.service(0x1000, 128, is_write=False, now=0.0)
        engine.service(0x1000, 128, is_write=False, now=1e6)
        assert engine.buffer_hit_rate == pytest.approx(0.5)

    def test_reset(self):
        engine = make_engine()
        engine.service(0x1000, 128, is_write=False, now=0.0)
        engine.reset_statistics()
        assert engine.requests_serviced == 0
        assert engine.buffer_hits == 0
