"""Tests for the portable ``.sbt`` trace format.

The format's contract: encode -> decode is the identity for any valid
trace (property-tested across sizes and shapes), files are
byte-deterministic, and every malformed input -- truncation at any
point, bit corruption, trailing garbage -- raises
:class:`~repro.workloads.trace.TraceFormatError` instead of replaying a
prefix.
"""

import gzip
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios.tracefile import (
    MAGIC,
    TraceFileReader,
    TraceFileWriter,
    decode_records,
    encode_records,
    file_sha256,
    inspect_tracefile,
    read_meta,
    read_tracefile,
    write_tracefile,
)
from repro.workloads.trace import TraceFormatError

COMMON_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

record_st = st.tuples(
    st.integers(min_value=0, max_value=1 << 40),
    st.booleans(),
    st.integers(min_value=0, max_value=1 << 48),
)
trace_st = st.lists(record_st, max_size=200)
traces_st = st.lists(trace_st, max_size=6)


@COMMON_SETTINGS
@given(records=trace_st)
def test_encode_decode_identity(records):
    assert decode_records(encode_records(records), len(records)) == records


@COMMON_SETTINGS
@given(traces=traces_st, seed=st.integers(0, 2**31))
def test_file_roundtrip_identity(tmp_path_factory, traces, seed):
    path = tmp_path_factory.mktemp("sbt") / "t.sbt"
    meta = {"seed": seed, "workload": "prop"}
    write_tracefile(path, traces, meta)
    got_meta, got = read_tracefile(path)
    assert got_meta == meta
    assert got == traces


def test_file_bytes_are_deterministic(tmp_path):
    traces = [[(5, False, 4096), (0, True, 4160)], [], [(1, True, 0)]]
    a, b = tmp_path / "a.sbt", tmp_path / "b.sbt"
    write_tracefile(a, traces, {"k": 1})
    write_tracefile(b, traces, {"k": 1})
    assert a.read_bytes() == b.read_bytes()
    assert file_sha256(a) == file_sha256(b)


def test_read_meta_does_not_need_frames(tmp_path):
    path = tmp_path / "t.sbt"
    write_tracefile(path, [[(1, False, 64)]], {"workload": "x", "seed": 9})
    # Chop everything after the metadata header: read_meta still works.
    blob = path.read_bytes()
    (meta_len,) = struct.unpack(">I", blob[5:9])
    path.write_bytes(blob[: 9 + meta_len])
    assert read_meta(path)["workload"] == "x"
    with pytest.raises(TraceFormatError, match="truncated"):
        read_tracefile(path)


def test_streaming_reader_matches_bulk(tmp_path):
    traces = [[(i, i % 3 == 0, 64 * i) for i in range(50)], [(0, True, 128)]]
    path = tmp_path / "t.sbt"
    write_tracefile(path, traces, {})
    with TraceFileReader(path) as reader:
        streamed = [thread for thread in reader.iter_threads()]
    assert streamed == read_tracefile(path)[1]


def test_writer_aborts_on_exception_leaving_no_partial_file(tmp_path):
    """A body that raises mid-write must not leave a digest-valid file
    holding only the threads written so far."""
    path = tmp_path / "t.sbt"
    with pytest.raises(RuntimeError, match="producer died"):
        with TraceFileWriter(path, {"k": 1}) as writer:
            writer.write_thread([(1, False, 0)])
            raise RuntimeError("producer died")
    assert not path.exists()


def test_writer_counts(tmp_path):
    path = tmp_path / "t.sbt"
    with TraceFileWriter(path, {"n": 1}) as writer:
        writer.write_thread([(1, False, 0), (2, True, 64)])
        writer.write_thread([])
    _, threads = read_tracefile(path)
    assert [len(t) for t in threads] == [2, 0]


def test_inspect_summarises(tmp_path):
    traces = [[(1, False, 0), (2, True, 4096)], [(0, True, 8192)]]
    path = tmp_path / "t.sbt"
    write_tracefile(path, traces, {"workload": "w", "seed": 3})
    info = inspect_tracefile(path)
    assert info["threads"] == 2
    assert info["records"] == 3
    assert info["per_thread"][0] == {
        "records": 2, "write_ratio": 0.5, "pages": 2,
    }
    assert info["meta"]["workload"] == "w"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.sbt"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(TraceFormatError, match="bad magic"):
        read_tracefile(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "t.sbt"
    write_tracefile(path, [[(1, False, 0)]], {})
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC)] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="version 99"):
        read_tracefile(path)


def test_truncation_detected_at_many_cut_points(tmp_path):
    traces = [[(i, bool(i & 1), 64 * i) for i in range(40)] for _ in range(3)]
    path = tmp_path / "t.sbt"
    write_tracefile(path, traces, {"workload": "cut"})
    blob = path.read_bytes()
    bad = tmp_path / "bad.sbt"
    # Every strictly-shorter prefix must fail loudly, never replay less.
    for cut in range(2, len(blob), 7):
        bad.write_bytes(blob[:cut])
        with pytest.raises(TraceFormatError):
            read_tracefile(bad)
    bad.write_bytes(blob[: len(blob) - 1])
    with pytest.raises(TraceFormatError):
        read_tracefile(bad)


def test_corruption_fails_digest(tmp_path):
    path = tmp_path / "t.sbt"
    write_tracefile(path, [[(i, False, 64 * i) for i in range(64)]], {})
    blob = bytearray(path.read_bytes())
    # Flip one bit inside the (compressed) frame payload.
    blob[len(blob) - 40] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError):
        read_tracefile(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.sbt"
    write_tracefile(path, [[(1, False, 0)]], {})
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(TraceFormatError, match="after the end marker"):
        read_tracefile(path)


def test_frame_record_count_mismatch_rejected():
    data = encode_records([(1, False, 0), (2, True, 64)])
    with pytest.raises(TraceFormatError, match="varint ends"):
        decode_records(data, 3)  # declared more than encoded
    with pytest.raises(TraceFormatError, match="beyond the declared"):
        decode_records(data, 1)  # declared fewer than encoded


def test_negative_gap_refused_at_write_time():
    with pytest.raises(ValueError, match="negative gap"):
        encode_records([(-1, False, 0)])


def test_meta_must_be_json_object(tmp_path):
    path = tmp_path / "t.sbt"
    header = gzip.compress(b"[1, 2]", mtime=0)
    path.write_bytes(
        MAGIC + bytes([1]) + struct.pack(">I", len(header)) + header
    )
    with pytest.raises(TraceFormatError, match="not a JSON object"):
        read_meta(path)
