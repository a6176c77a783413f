"""Integration tests for the ZnG mechanisms inside a running platform."""

import pytest

from repro.platforms.zng import ZnGPlatform, ZnGVariant
from repro.workloads.multiapp import build_mix


@pytest.fixture(scope="module")
def mix():
    return build_mix("betw", "back", scale=0.3, seed=1,
                     warps_per_sm=4, memory_instructions_per_warp=64)


class TestFTLIntegration:
    def test_dbmt_populated(self, mix):
        platform = ZnGPlatform(ZnGVariant.FULL)
        platform.run(mix.combined)
        assert len(platform.ftl.dbmt) > 0

    def test_reads_translate(self, mix):
        platform = ZnGPlatform(ZnGVariant.FULL)
        platform.run(mix.combined)
        assert platform.ftl.reads_translated > 0

    def test_writes_handled(self, mix):
        """Writes are either absorbed in registers or allocated a log page."""
        platform = ZnGPlatform(ZnGVariant.FULL)
        platform.run(mix.combined)
        absorbed = platform.register_cache.write_hits + platform.register_cache.write_misses
        assert absorbed > 0

    def test_base_allocates_log_pages(self, mix):
        """ZnG-base programs log pages directly as its plane registers overflow."""
        platform = ZnGPlatform(ZnGVariant.BASE)
        platform.run(mix.combined)
        assert platform.ftl.writes_allocated > 0


class TestReadOptimization:
    def test_prefetcher_trains(self, mix):
        platform = ZnGPlatform(ZnGVariant.RDOPT)
        platform.run(mix.combined)
        assert platform.prefetcher.predictor.updates > 0

    def test_stt_mram_improves_l2_hit_rate(self, mix):
        base = ZnGPlatform(ZnGVariant.BASE)
        rdopt = ZnGPlatform(ZnGVariant.RDOPT)
        base_result = base.run(mix.combined)
        rdopt_result = rdopt.run(mix.combined)
        assert rdopt_result.l2_hit_rate >= base_result.l2_hit_rate


class TestWriteOptimization:
    def test_register_cache_absorbs_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        platform.run(mix.combined)
        assert platform.register_cache.write_hits > 0

    def test_register_hit_rate_high_for_redundant_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        result = platform.run(mix.combined)
        # Write redundancy (Fig. 5c) means most writes hit a resident register.
        assert result.extra["register_hit_rate"] > 0.5

    def test_fewer_programs_than_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        platform.run(mix.combined)
        writes = platform.stats.get("register_write_hits") + platform.stats.get(
            "register_write_misses"
        )
        programs = platform.register_cache.programs_issued
        assert programs < writes


class TestWriteHeatmap:
    def test_heatmap_reflects_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.BASE)
        platform.run(mix.combined)
        heatmap = platform.array.write_heatmap()
        assert heatmap.sum() > 0


class TestL2EvictionRecords:
    """Only a platform whose prefetcher drains L2 evictions keeps them."""

    @staticmethod
    def small_l2_config():
        from dataclasses import replace

        from repro.config import default_config

        config = default_config()
        return config.copy(
            gpu=replace(config.gpu, l2_size_bytes=48 * 1024),
            stt_mram=replace(config.stt_mram, size_bytes=48 * 1024),
        )

    @pytest.mark.parametrize("name", ["Hetero", "HybridGPU", "Optane",
                                      "ZnG-base", "ZnG-wropt"])
    def test_no_consumer_keeps_nothing(self, mix, name):
        from repro.platforms import build_platform

        platform = build_platform(name, self.small_l2_config())
        platform.run(mix.combined)
        assert sum(array.evictions for array in platform.l2._bank_arrays) > 0
        assert not platform.l2.keep_evictions
        assert platform.l2.evicted_records == []

    @pytest.mark.parametrize("variant", [ZnGVariant.RDOPT, ZnGVariant.FULL])
    def test_prefetcher_drains_evictions(self, mix, variant):
        platform = ZnGPlatform(variant, self.small_l2_config())
        platform.run(mix.combined)
        assert platform.l2.keep_evictions
        assert platform.prefetcher.monitor.total_evictions > 0
        # Drained after every miss: only lines evicted since the last one wait.
        assert len(platform.l2.evicted_records) <= platform.l2.banks * 32
