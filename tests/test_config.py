"""Tests for configuration presets (Tables II and IV)."""

import pytest

from repro.config import (
    CACHELINES_PER_PAGE,
    FLASH_TIMINGS,
    GB,
    MB,
    FlashGeometry,
    paper_config,
    scaled_config,
)


class TestTableII:
    def test_cpu_parameters(self):
        cfg = paper_config()
        assert cfg.cpu.cores == 8
        assert cfg.cpu.freq_ghz == 4.0
        assert cfg.cpu.rob_entries == 256
        assert cfg.cpu.l1_mshrs == 8
        assert cfg.cpu.l2_mshrs == 128
        assert cfg.cpu.l3_mshrs == 1024
        assert cfg.cpu.host_promote_budget_bytes == 2 * GB

    def test_ssd_parameters(self):
        cfg = paper_config()
        assert cfg.ssd.geometry.total_bytes == 128 * GB
        assert cfg.ssd.dram_bytes == 512 * MB
        assert cfg.ssd.write_log_bytes == 64 * MB
        assert cfg.ssd.data_cache_bytes == 448 * MB
        assert cfg.ssd.gc_threshold == 0.80

    def test_cxl_parameters(self):
        cfg = paper_config()
        assert cfg.cxl.protocol_ns == 40.0
        assert cfg.cxl.bandwidth_bytes_per_ns == 16.0  # 16 GB/s

    def test_context_switch_parameters(self):
        cfg = paper_config()
        assert cfg.os.context_switch_ns == 2000.0
        assert cfg.os.cs_threshold_ns == 2000.0
        assert cfg.os.t_policy == "FAIRNESS"

    def test_fpga_measured_latencies(self):
        cfg = paper_config()
        assert cfg.ssd.log_index_ns == 72.0
        assert cfg.ssd.cache_index_ns == 49.0


class TestTableIV:
    @pytest.mark.parametrize(
        "name,read,program,erase",
        [
            ("ULL", 3, 100, 1000),
            ("ULL2", 4, 75, 850),
            ("SLC", 25, 200, 1500),
            ("MLC", 50, 600, 3000),
        ],
    )
    def test_timings_in_us(self, name, read, program, erase):
        t = FLASH_TIMINGS[name]
        assert t.read_ns == read * 1000
        assert t.program_ns == program * 1000
        assert t.erase_ns == erase * 1000


class TestScaling:
    def test_ratios_preserved(self):
        """The mechanisms care about ratios, not absolute capacity."""
        paper = paper_config()
        scaled = scaled_config(scale=512)
        paper_flash_dram = paper.ssd.geometry.total_bytes / paper.ssd.dram_bytes
        scaled_flash_dram = scaled.ssd.geometry.total_bytes / scaled.ssd.dram_bytes
        assert scaled_flash_dram == pytest.approx(paper_flash_dram, rel=0.01)
        assert scaled.ssd.write_log_bytes / scaled.ssd.dram_bytes == pytest.approx(
            paper.ssd.write_log_bytes / paper.ssd.dram_bytes, rel=0.01
        )
        assert (
            scaled.cpu.host_promote_budget_bytes / scaled.ssd.dram_bytes
        ) == pytest.approx(
            paper.cpu.host_promote_budget_bytes / paper.ssd.dram_bytes, rel=0.01
        )

    def test_scaling_keeps_die_parallelism(self):
        """Capacity scales through blocks/pages, not device parallelism."""
        geo = scaled_config(scale=512).ssd.geometry
        assert geo.channels >= 8
        assert geo.chips_per_channel * geo.dies_per_chip >= 16

    def test_scale_one_is_paper_size(self):
        assert scaled_config(scale=1).ssd.geometry.total_bytes == 128 * GB

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_config(scale=0)

    def test_timing_selection(self):
        cfg = scaled_config(timing="MLC")
        assert cfg.ssd.timing.name == "MLC"


class TestConfigHelpers:
    def test_replace_helpers_are_functional(self):
        cfg = paper_config()
        cfg2 = cfg.replace(os=dict(cs_threshold_ns=5000.0))
        assert cfg.os.cs_threshold_ns == 2000.0
        assert cfg2.os.cs_threshold_ns == 5000.0
        cfg3 = cfg.replace(ssd=dict(dram_bytes=MB))
        assert cfg3.ssd.dram_bytes == MB
        cfg4 = cfg.replace(skybyte=dict(write_log_enable=False))
        assert not cfg4.skybyte.write_log_enable

    def test_geometry_derived_counts(self):
        geo = FlashGeometry()
        assert geo.planes_per_channel == 64
        assert geo.blocks_per_channel == 8192
        assert geo.total_blocks == 131072
        assert geo.pages_per_channel * geo.channels == geo.total_pages

    def test_logical_pages_exclude_overprovision(self):
        cfg = paper_config()
        assert cfg.ssd.logical_pages < cfg.ssd.geometry.total_pages

    def test_cachelines_per_page(self):
        assert CACHELINES_PER_PAGE == 64
