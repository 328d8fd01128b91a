"""Tests for CXL link timing."""

import pytest

from repro.config import CXLConfig
from repro.cxl.link import CXLLink
from repro.sim.stats import SimStats


def make_link(protocol_ns=40.0, bw=16.0):
    stats = SimStats()
    link = CXLLink(CXLConfig(protocol_ns=protocol_ns, bandwidth_bytes_per_ns=bw), stats)
    return link, stats


def test_downstream_pays_protocol_and_serialisation():
    link, _ = make_link()
    arrival = link.send_downstream(0.0, 12)
    # 16 bytes with overhead at 16 B/ns = 1 ns, + 40 ns protocol.
    assert arrival == pytest.approx(41.0)


def test_downstream_burst_serialises():
    link, _ = make_link()
    a1 = link.send_downstream(0.0, 60)  # 64B -> 4ns
    a2 = link.send_downstream(0.0, 60)
    assert a2 - a1 == pytest.approx(4.0)


def test_upstream_is_latency_adder_not_blocking():
    link, _ = make_link()
    # A flash response ready far in the future must NOT delay an earlier
    # hit response submitted afterwards (out-of-order readiness).
    late = link.send_upstream(10_000.0, 64)
    early = link.send_upstream(100.0, 64)
    assert early < late
    assert early == pytest.approx(100.0 + (64 + 4) / 16.0 + 40.0)


def test_bytes_metered_both_directions():
    link, stats = make_link()
    link.send_downstream(0.0, 10)
    link.send_upstream(0.0, 20)
    assert stats.cxl_bytes == (10 + 4) + (20 + 4)


def test_round_trip_includes_both_directions():
    link, _ = make_link()
    arrive_device = link.send_downstream(0.0, 8)
    arrive_host = link.send_upstream(arrive_device, 68)
    assert arrive_host > 2 * 40.0


def test_transfer_ns_scales_with_bytes():
    cfg = CXLConfig()
    assert cfg.transfer_ns(160) == pytest.approx(10.0)
