"""Tests for the trace record helpers."""

import numpy as np
import pytest

from repro.workloads.trace import (
    make_trace,
    trace_footprint_pages,
    trace_instructions,
    trace_mpki,
    trace_write_ratio,
)


def sample_trace():
    return [(10, False, 0), (5, True, 4096), (0, False, 8192)]


def test_make_trace_zips_arrays():
    gaps = np.array([1, 2])
    writes = np.array([0, 1])
    addrs = np.array([64, 128])
    trace = make_trace(gaps, writes, addrs)
    assert trace == [(1, False, 64), (2, True, 128)]


def test_make_trace_length_mismatch():
    with pytest.raises(ValueError):
        make_trace(np.array([1]), np.array([0, 1]), np.array([0, 64]))


def test_instruction_count():
    assert trace_instructions(sample_trace()) == 15 + 3


def test_footprint_pages():
    assert trace_footprint_pages(sample_trace()) == 3


def test_write_ratio():
    assert trace_write_ratio(sample_trace()) == pytest.approx(1 / 3)
    assert trace_write_ratio([]) == 0.0


def test_mpki():
    trace = [(999, False, 0)]
    assert trace_mpki(trace) == pytest.approx(1.0)
