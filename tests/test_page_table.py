"""Tests for the host page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.page_table import Location, PageTable


def test_default_location_is_cxl():
    pt = PageTable()
    assert not pt.is_promoted(5)
    assert pt.entry(5).location == Location.CXL


def test_promote_assigns_frame():
    pt = PageTable()
    entry = pt.promote(5)
    assert entry.location == Location.HOST
    assert entry.host_frame is not None
    assert pt.is_promoted(5)
    assert pt.promoted_count == 1


def test_double_promotion_rejected():
    pt = PageTable()
    pt.promote(5)
    with pytest.raises(ValueError):
        pt.promote(5)


def test_demote_returns_dirty_mask():
    pt = PageTable()
    pt.promote(5, carried_dirty_mask=0b100)
    pt.record_host_access(5, 0, True, 10.0)
    entry, dirty = pt.demote(5)
    assert dirty == 0b101
    assert not pt.is_promoted(5)
    assert pt.promoted_count == 0
    assert entry.dirty_mask == 0


def test_demote_unpromoted_rejected():
    pt = PageTable()
    with pytest.raises(ValueError):
        pt.demote(7)


def test_carried_dirty_mask_preserved():
    """Dirty-versus-flash state dropped by the SSD must survive in the
    host copy so no write is ever lost across a promotion."""
    pt = PageTable()
    pt.promote(3, carried_dirty_mask=0b1010)
    _, dirty = pt.demote(3)
    assert dirty == 0b1010


def test_coldest_promoted_by_last_access():
    pt = PageTable()
    for vpn in (1, 2, 3):
        pt.promote(vpn)
    pt.record_host_access(1, 0, False, 300.0)
    pt.record_host_access(2, 0, False, 100.0)
    pt.record_host_access(3, 0, False, 200.0)
    assert pt.coldest_promoted() == 2


def test_coldest_none_when_nothing_promoted():
    pt = PageTable()
    assert pt.coldest_promoted() is None


def test_frames_unique():
    pt = PageTable()
    frames = {pt.promote(v).host_frame for v in range(10)}
    assert len(frames) == 10


def _coldest_by_full_scan(pt):
    """The reference victim: first PTE in creation order, among promoted
    ones, with the strictly smallest ``last_access_ns``."""
    best_vpn, best_time = None, None
    for vpn, e in pt._entries.items():
        if e.location != Location.HOST:
            continue
        if best_time is None or e.last_access_ns < best_time:
            best_vpn, best_time = vpn, e.last_access_ns
    return best_vpn


# Few distinct times, 0.0 (never host-accessed) among them: ties are the
# common case the creation-order tie break has to get right.
_pt_ops = st.lists(
    st.tuples(
        st.sampled_from(["entry", "promote", "demote", "access"]),
        st.integers(0, 12),
        st.sampled_from([0.0, 0.0, 5.0, 7.0, 9.0]),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(ops=_pt_ops)
def test_coldest_promoted_matches_full_scan(ops):
    pt = PageTable()
    for op, vpn, now in ops:
        if op == "entry":
            pt.entry(vpn)
        elif op == "promote" and not pt.is_promoted(vpn):
            pt.promote(vpn)
        elif op == "demote" and pt.is_promoted(vpn):
            pt.demote(vpn)  # a later "promote" re-promotes it
        elif op == "access" and pt.is_promoted(vpn):
            pt.record_host_access(vpn, 0, False, now)
        assert pt.coldest_promoted() == _coldest_by_full_scan(pt)


def test_coldest_ties_go_to_the_oldest_pte():
    pt = PageTable()
    pt.entry(7)  # created first, promoted last
    pt.promote(3)
    pt.promote(7)
    assert pt.coldest_promoted() == 7  # both at 0.0
    pt.demote(7)
    assert pt.coldest_promoted() == 3
    pt.promote(7)
    assert pt.coldest_promoted() == 7
