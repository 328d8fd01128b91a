"""Tests for the host DRAM model."""

import pytest

from repro.config import CPUConfig
from repro.cpu.dram import HostDRAM


class TestHostDRAM:
    def test_fixed_latency(self):
        d = HostDRAM(CPUConfig())
        assert d.access(0.0) == pytest.approx(70.0)

    def test_bandwidth_serialisation(self):
        d = HostDRAM(CPUConfig(dram_bandwidth_bytes_per_ns=64.0))
        first = d.access(0.0)
        second = d.access(0.0)
        assert second - first == pytest.approx(1.0)  # 64B at 64 B/ns
        assert d.accesses == 2
