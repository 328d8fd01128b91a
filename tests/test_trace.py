"""Tests for the compact trace, its record helpers and the trace oracle.

``tests/golden/trace_digests.json`` freezes the tuple form of every
Table I workload and scenario trace (1000 records, seed 3, at 1, 8 and
24 threads), recorded while traces were still lists of tuples; the
packed form, the generators and the runner's shared memo must all
reproduce it.
"""

import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import build_config, run_workload
from repro.scenarios.library import SCENARIOS
from repro.scenarios.tracefile import write_tracefile
from repro.sim.system import run_system
from repro.variants import get_variant
from repro.workloads.suites import TABLE_I, get_model
from repro.workloads.trace import (
    MAX_ADDRESS,
    MAX_GAP_TOTAL,
    Trace,
    trace_instructions,
    trace_mpki,
    trace_write_ratio,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "trace_digests.json").read_text()
)["digests"]
ORACLE_RECORDS, ORACLE_SEED, ORACLE_SCALE = 1000, 3, 512
NAMES = sorted(TABLE_I) + sorted(SCENARIOS)
#: The workloads whose per-thread traces depend on the thread count.
PARTITIONED = {"radix", "analytics-scan", "tab1-radix"}


def sample_trace():
    return [(10, False, 0), (5, True, 4096), (0, False, 8192)]


def test_instruction_count():
    assert trace_instructions(sample_trace()) == 15 + 3
    assert trace_instructions(Trace.from_records(sample_trace())) == 15 + 3


def test_write_ratio():
    assert trace_write_ratio(sample_trace()) == pytest.approx(1 / 3)
    assert trace_write_ratio([]) == 0.0
    assert trace_write_ratio(Trace.from_records([])) == 0.0


def test_mpki():
    trace = [(999, False, 0)]
    assert trace_mpki(trace) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The packed form
# ---------------------------------------------------------------------------


def test_from_records_packs_and_round_trips():
    records = [(10, False, 64), (5, True, 4096 + 3), (0, True, MAX_ADDRESS)]
    trace = Trace.from_records(records)
    assert list(trace.ops) == [128, ((4096 + 3) << 1) | 1,
                               (MAX_ADDRESS << 1) | 1]
    assert list(trace.cum) == [0, 10, 15, 15]
    assert list(trace.records()) == records
    assert list(trace.records(1, 2)) == [records[1]]
    assert list(trace) == records and len(trace) == 3
    # Decoding works for any address, aligned or not.
    op = trace.ops[1]
    assert (op >> 13, (op >> 7) & 0x3F, op & 1) == (1, 0, 1)


def test_trace_equality_and_derived_traces():
    a = Trace.from_records(sample_trace())
    assert a == Trace.from_records(sample_trace())
    assert a != Trace.from_records(sample_trace()[:2])
    shifted = a.shifted(1 << 20)
    assert [r[2] for r in shifted] == [r[2] + (1 << 20) for r in a]
    assert shifted.cum is a.cum and a.shifted(0) is a
    both = Trace.concat([a, shifted])
    assert list(both) == list(a) + list(shifted)
    assert Trace.concat([a]) is a


def test_plan_is_cached_per_key():
    trace = Trace.from_records([(100, False, i * 64) for i in range(6)])
    plan = trace.plan(250, 8)
    assert list(plan) == [2, 2, 2, 2, 2, 1]
    assert trace.plan(250, 8) is plan
    assert list(trace.plan(1000, 4)) == [4, 4, 4, 3, 2, 1]
    assert list(Trace.from_records([]).plan(250, 8)) == []


BAD_RECORDS = [
    ((1, False), "expected a"),
    ((1, False, 0, 7), "expected a"),
    (5, "expected a"),
    ((-1, False, 0), "negative"),
    ((1, True, -64), "negative"),
    ((1.5, False, 0), "must be integers"),
    ((1, False, 64.0), "must be integers"),
    ((1, "w", 64), "must be integers"),
    ((1, 2, 64), "is_write"),
    ((1, False, MAX_ADDRESS + 1), "exceeds"),
    ((MAX_GAP_TOTAL - 2, False, 64), "gap total exceeds"),
]


@pytest.mark.parametrize("bad,why", BAD_RECORDS)
def test_from_records_rejects_bad_records(bad, why):
    with pytest.raises(ValueError, match=why) as info:
        Trace.from_records([(3, False, 0), bad], tid=4)
    assert "thread 4, record 1" in str(info.value)


def test_run_system_rejects_bad_record_before_running():
    config = build_config(threads=2).replace(warmup_fraction=0.0)
    good = [(5, False, i * 64) for i in range(10)]
    bad = good[:3] + [(-2, False, 256)] + good[3:]
    with pytest.raises(ValueError, match="thread 1, record 3: negative"):
        run_system(config, [good, bad], get_variant("SkyByte-Full"))
    # Record lists and compact traces simulate identically.
    stats = run_system(config, [good, good], get_variant("SkyByte-Full"))
    again = run_system(config, [Trace.from_records(good)] * 2,
                       get_variant("SkyByte-Full"))
    assert stats.to_dict() == again.to_dict()


def test_tracefile_with_unpackable_address_is_rejected(tmp_path):
    """Varints hold any non-negative address; one that does not pack
    into an int64 is refused when the replay builds its threads."""
    path = tmp_path / "huge.sbt"
    config = build_config(threads=1)
    write_tracefile(path, [[(5, False, 64), (5, True, 1 << 62)]],
                    {"config": config.to_dict(), "mlp": 8,
                     "records_per_thread": 2})
    with pytest.raises(ValueError, match="thread 0, record 1: address"):
        run_workload("replay", "SkyByte-Full", trace=str(path))


# ---------------------------------------------------------------------------
# The oracle: generators and the shared memo reproduce the tuple form
# ---------------------------------------------------------------------------


def _digest(traces):
    blob = json.dumps([[list(r) for r in t.records()] for t in traces],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _generate(name, threads, records=ORACLE_RECORDS):
    if name in TABLE_I:
        return get_model(name, scale=ORACLE_SCALE,
                         seed=ORACLE_SEED).generate(threads, records)
    return SCENARIOS[name].generate(threads, records, scale=ORACLE_SCALE,
                                    seed=ORACLE_SEED)


@pytest.mark.parametrize("name", NAMES)
def test_generators_match_frozen_digests(name):
    for threads in (1, 8, 24):
        assert _digest(_generate(name, threads)) == GOLDEN[
            f"{name}|{threads}"], threads


@pytest.mark.parametrize("name", NAMES)
def test_memo_matches_frozen_digests(name, monkeypatch):
    monkeypatch.setattr(runner, "_TRACE_MEMO", type(runner._TRACE_MEMO)())
    for threads in (1, 8, 24, 8):
        traces, _mlp = runner._traces_for(
            name, threads, ORACLE_RECORDS, ORACLE_SCALE, ORACLE_SEED)
        assert len(traces) == threads
        assert _digest(traces) == GOLDEN[f"{name}|{threads}"], threads
    # Thread counts share one entry unless the footprint is partitioned.
    assert len(runner._TRACE_MEMO) == (3 if name in PARTITIONED else 1)


@pytest.mark.parametrize("name", NAMES)
def test_thread_traces_shared_across_thread_counts(name):
    eight, twenty_four = _generate(name, 8, 200), _generate(name, 24, 200)
    shared = eight == twenty_four[:8]
    assert shared == (name not in PARTITIONED)
    partitioned = runner._trace_source(name, ORACLE_SCALE, ORACLE_SEED)[2]
    assert partitioned == (name in PARTITIONED)


def test_memo_generates_only_missing_threads(monkeypatch):
    monkeypatch.setattr(runner, "_TRACE_MEMO", type(runner._TRACE_MEMO)())
    asked = []
    real = runner._trace_source

    def spy(*args):
        generate, mlp, partitioned = real(*args)

        def generate_spy(threads, records, tids):
            asked.append(list(tids))
            return generate(threads, records, tids)

        return generate_spy, mlp, partitioned

    monkeypatch.setattr(runner, "_trace_source", spy)
    first, _ = runner._traces_for("web-tier", 2, 50, 512, 1)
    more, _ = runner._traces_for("web-tier", 4, 50, 512, 1)
    fewer, _ = runner._traces_for("web-tier", 3, 50, 512, 1)
    assert asked == [[0, 1], [2, 3]]
    assert more[:2] == first and all(a is b for a, b in zip(first, more))
    assert fewer == more[:3]


def test_memo_shared_by_threads_stays_consistent(monkeypatch):
    """More threads than cores hammer one small memo with overlapping
    keys and thread counts; every caller gets the serial traces, and no
    entry ever holds fewer threads than were asked of it."""
    monkeypatch.setattr(runner, "_TRACE_MEMO", type(runner._TRACE_MEMO)())
    monkeypatch.setattr(runner, "_TRACE_MEMO_MAX", 3)
    names = ["web-tier", "tab1-radix", "bc", "radix", "graph-walk"]
    want = {(name, n): _generate(name, n, 60)
            for name in names for n in (1, 3, 5)}
    failures = []

    def worker(offset):
        try:
            for i in range(30):
                name = names[(i + offset) % len(names)]
                n = (1, 5, 3)[(i * 7 + offset) % 3]
                got, _ = runner._traces_for(name, n, 60, ORACLE_SCALE,
                                            ORACLE_SEED)
                if got != want[(name, n)]:
                    failures.append((name, n))
        except Exception as exc:  # reported below, with the thread's key
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in workers)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(runner._TRACE_MEMO) <= 3
