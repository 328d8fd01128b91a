"""Portable, versioned, compressed trace files (``.sbt``).

A trace that travels -- between hosts, backends, CI jobs and commits --
needs a real format: self-describing, streaming, and **able to say no**
to truncated or corrupt input instead of silently replaying a prefix.
Layout::

    "SBTF"  u8 version=1
    u32be meta_len, gzip(JSON metadata)
    repeat per thread:
        u8 0x01   u32be record_count   u32be frame_len
        gzip(varint-encoded records)
    u8 0x00
    sha256 over every byte between the metadata and the end marker

Records are delta-encoded: ``varint(gap)`` then
``varint(zigzag(address - previous_address) << 1 | is_write)`` --
spatially local traces compress to ~2 bytes/record before gzip.  All
gzip members are written with ``mtime=0``, so the same traces + metadata
produce **byte-identical files** (they can be content-addressed and
diffed in CI).

Metadata is free-form JSON; the generators in this repo record
provenance (scenario/workload definition, seed, scale, resolved
``SimConfig``, tenant map for colocation traces) so ``python -m repro
trace replay`` can rebuild the exact simulation a file came from.

Every malformed-input path raises
:class:`~repro.workloads.trace.TraceFormatError` with a message naming
what broke; short reads are never treated as end-of-trace.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.workloads.trace import TraceFormatError, TraceRecord

MAGIC = b"SBTF"
VERSION = 1
THREAD_MARKER = 0x01
END_MARKER = 0x00
_DIGEST_BYTES = 32

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Varint / zigzag primitives
# ---------------------------------------------------------------------------


def _write_varint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TraceFormatError(
                "truncated trace frame: varint ends mid-byte-sequence"
            )
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise TraceFormatError("corrupt trace frame: varint too long")


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


def encode_records(records: Sequence[TraceRecord]) -> bytes:
    """Varint-delta encode one thread's records (pre-compression)."""
    buf = bytearray()
    prev_addr = 0
    for gap, is_write, address in records:
        if gap < 0:
            raise ValueError(f"negative gap {gap} in trace record")
        if address < 0:
            raise ValueError(f"negative address {address} in trace record")
        _write_varint(buf, int(gap))
        delta = int(address) - prev_addr
        _write_varint(buf, (_zigzag(delta) << 1) | (1 if is_write else 0))
        prev_addr = int(address)
    return bytes(buf)


def decode_records(data: bytes, count: int) -> List[TraceRecord]:
    """Inverse of :func:`encode_records`; validates count and bounds."""
    out: List[TraceRecord] = []
    pos = 0
    prev_addr = 0
    for index in range(count):
        gap, pos = _read_varint(data, pos)
        packed, pos = _read_varint(data, pos)
        is_write = bool(packed & 1)
        address = prev_addr + _unzigzag(packed >> 1)
        if address < 0:
            raise TraceFormatError(
                f"corrupt trace frame: negative address at record {index}"
            )
        prev_addr = address
        out.append((gap, is_write, address))
    if pos != len(data):
        raise TraceFormatError(
            f"corrupt trace frame: {len(data) - pos} byte(s) beyond the "
            f"declared {count} record(s)"
        )
    return out


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class TraceFileWriter:
    """Streaming writer: metadata up front, one frame per thread.

    Usable as a context manager; :meth:`close` finalizes the end marker
    and content digest (a file missing them is detected as truncated).
    """

    def __init__(self, path: PathLike, meta: Dict[str, object]) -> None:
        self.path = Path(path)
        self._fh: Optional[BinaryIO] = open(self.path, "wb")
        self._sha = hashlib.sha256()
        header = gzip.compress(
            json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            mtime=0,
        )
        self._fh.write(MAGIC)
        self._fh.write(bytes([VERSION]))
        self._fh.write(struct.pack(">I", len(header)))
        self._fh.write(header)

    def _emit(self, data: bytes) -> None:
        assert self._fh is not None, "writer already closed"
        self._fh.write(data)
        self._sha.update(data)

    def write_thread(self, records: Sequence[TraceRecord]) -> None:
        """Append one thread's frame: a record list or a compact
        :class:`~repro.workloads.trace.Trace` (written in its tuple
        form, :meth:`~repro.workloads.trace.Trace.records`)."""
        frame = gzip.compress(encode_records(records), mtime=0)
        self._emit(bytes([THREAD_MARKER]))
        self._emit(struct.pack(">II", len(records), len(frame)))
        self._emit(frame)

    def close(self) -> None:
        if self._fh is None:
            return
        self._emit(bytes([END_MARKER]))
        self._fh.write(self._sha.digest())
        self._fh.close()
        self._fh = None

    def abort(self) -> None:
        """Discard the file: close without finalizing and unlink it.

        A partial file must never be left with a valid end marker and
        digest -- it would read back as a smaller-but-valid trace, the
        exact silent-prefix failure this format exists to prevent.
        """
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_tracefile(
    path: PathLike,
    traces: Sequence[Sequence[TraceRecord]],
    meta: Dict[str, object],
) -> None:
    """Write per-thread ``traces`` with ``meta`` to one ``.sbt`` file."""
    with TraceFileWriter(path, meta) as writer:
        for trace in traces:
            writer.write_thread(trace)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def _must_read(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TraceFormatError(
            f"truncated tracefile: expected {n} byte(s) of {what}, "
            f"got {len(data)}"
        )
    return data


def _read_header(fh: BinaryIO) -> Dict[str, object]:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceFormatError(
            f"not a SkyByte tracefile (bad magic {magic!r}; expected {MAGIC!r})"
        )
    version = _must_read(fh, 1, "version")[0]
    if version != VERSION:
        raise TraceFormatError(
            f"unsupported tracefile version {version} (this build reads "
            f"version {VERSION})"
        )
    (meta_len,) = struct.unpack(">I", _must_read(fh, 4, "metadata length"))
    blob = _must_read(fh, meta_len, "metadata")
    try:
        meta = json.loads(gzip.decompress(blob).decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise TraceFormatError(f"corrupt tracefile metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise TraceFormatError("corrupt tracefile metadata: not a JSON object")
    return meta


def read_meta(path: PathLike) -> Dict[str, object]:
    """Just the metadata header (cheap: no frames are read)."""
    with open(path, "rb") as fh:
        return _read_header(fh)


class TraceFileReader:
    """Streaming reader: iterate thread frames without holding them all.

    The content digest is verified when the end marker is reached --
    callers that stop early skip the check; :func:`read_tracefile`
    always reaches it.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._fh: Optional[BinaryIO] = open(self.path, "rb")
        try:
            self.meta = _read_header(self._fh)
        except Exception:
            self._fh.close()
            self._fh = None
            raise
        self._sha = hashlib.sha256()

    def iter_threads(self) -> Iterator[List[TraceRecord]]:
        """Yield each thread's records in file order, verifying at EOF."""
        assert self._fh is not None, "reader already closed"
        fh = self._fh
        while True:
            marker = _must_read(fh, 1, "frame marker")
            self._sha.update(marker)
            if marker[0] == END_MARKER:
                stored = _must_read(fh, _DIGEST_BYTES, "content digest")
                if stored != self._sha.digest():
                    raise TraceFormatError(
                        "corrupt tracefile: content digest mismatch"
                    )
                trailing = fh.read(1)
                if trailing:
                    raise TraceFormatError(
                        "corrupt tracefile: data after the end marker"
                    )
                return
            if marker[0] != THREAD_MARKER:
                raise TraceFormatError(
                    f"corrupt tracefile: unknown frame marker {marker[0]:#x}"
                )
            head = _must_read(fh, 8, "frame header")
            self._sha.update(head)
            count, frame_len = struct.unpack(">II", head)
            frame = _must_read(fh, frame_len, "thread frame")
            self._sha.update(frame)
            try:
                data = gzip.decompress(frame)
            except (OSError, EOFError) as exc:
                raise TraceFormatError(
                    f"corrupt thread frame: {exc}"
                ) from exc
            yield decode_records(data, count)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_tracefile(
    path: PathLike,
) -> Tuple[Dict[str, object], List[List[TraceRecord]]]:
    """Read a whole ``.sbt`` file; digest-verified, truncation-checked.

    Threads come back as record lists; a simulation converts and
    validates them once when it builds its threads
    (:meth:`~repro.workloads.trace.Trace.from_records`)."""
    with TraceFileReader(path) as reader:
        traces = list(reader.iter_threads())
        return reader.meta, traces


def inspect_tracefile(path: PathLike) -> Dict[str, object]:
    """Header + per-thread shape summary (reads and verifies the file)."""
    path = Path(path)
    with TraceFileReader(path) as reader:
        threads = []
        total = 0
        for records in reader.iter_threads():
            writes = sum(1 for r in records if r[1])
            threads.append({
                "records": len(records),
                "write_ratio": writes / len(records) if records else 0.0,
                "pages": len({r[2] // 4096 for r in records}),
            })
            total += len(records)
        return {
            "path": str(path),
            "file_bytes": path.stat().st_size,
            "version": VERSION,
            "threads": len(threads),
            "records": total,
            "per_thread": threads,
            "meta": reader.meta,
        }


def file_sha256(path: PathLike) -> str:
    """Content hash of the whole file (cache keys for replay cells)."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()
