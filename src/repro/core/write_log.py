"""Cacheline-granular write log (§III-B, Fig. 12).

All host writes append 64 B entries to a circular log in SSD DRAM -- no
flash access on the critical path.  The log is *double-buffered*: when the
active buffer fills, SkyByte swaps to the standby buffer and compacts the
full one in the background, so incoming writes keep landing in DRAM while
compaction drains.

Each buffer owns a :class:`~repro.core.log_index.LogIndex`.  Read lookups
consult the active buffer first (newest data), then the draining buffer --
the paper's "parallel lookup in both the new log and the old log".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class LogBuffer:
    """One half of the double-buffered log: a circular entry array."""

    def __init__(self, capacity_entries: int, index_cls) -> None:
        if capacity_entries < 1:
            raise ValueError("log buffer needs at least one entry")
        self.capacity = capacity_entries
        self.index = index_cls()
        self.head = 0  # oldest live entry
        self.tail = 0  # next append position
        self._used = 0
        #: bumped on every reset so stale background-finish events can tell
        #: the buffer was already reclaimed (and maybe refilled) and must
        #: not wipe it again.
        self.generation = 0
        #: log position -> (lpa, line_offset); sparse record of appends so
        #: compaction and tests can verify latest-write-wins.
        self.entries: Dict[int, Tuple[int, int]] = {}
        self.draining = False

    @property
    def used(self) -> int:
        return self._used

    @property
    def full(self) -> bool:
        return self._used >= self.capacity

    @property
    def empty(self) -> bool:
        return self._used == 0

    def append(self, lpa: int, line_offset: int) -> int:
        """Append one cacheline write; returns its log offset.

        Raises ``RuntimeError`` if full -- callers must swap buffers first.
        """
        if self.full:
            raise RuntimeError("append to a full log buffer")
        pos = self.tail
        self.tail = (self.tail + 1) % self.capacity
        self._used += 1
        self.entries[pos] = (lpa, line_offset)
        self.index.insert(lpa, line_offset, pos)
        return pos

    def reset(self) -> None:
        """Reclaim the buffer after compaction (drop index + entries)."""
        self.index.clear()
        self.entries.clear()
        self.head = self.tail = 0
        self._used = 0
        self.draining = False
        self.generation += 1


class WriteLog:
    """The double-buffered cacheline write log."""

    def __init__(self, capacity_entries: int, index_cls=None) -> None:
        if index_cls is None:
            from repro.core.log_index import LogIndex

            index_cls = LogIndex
        per_buffer = max(1, capacity_entries // 2)
        self.buffers = [LogBuffer(per_buffer, index_cls) for _ in range(2)]
        self._active = 0
        self.total_appends = 0
        self.coalesced_appends = 0
        #: Completion horizon of this log's in-flight compaction; the
        #: DRAM manager stalls a blocked writer only against the horizon
        #: of the log its write lands in (per-tenant under partitioning).
        self.drain_until = 0.0

    def log_for(self, lpa: int) -> "WriteLog":
        """The log responsible for ``lpa`` (self; overridden when
        partitioned)."""
        return self

    @property
    def active(self) -> LogBuffer:
        return self.buffers[self._active]

    @property
    def standby(self) -> LogBuffer:
        return self.buffers[1 - self._active]

    def append(self, lpa: int, line_offset: int) -> bool:
        """Append a write to the active buffer.

        Returns True when the append *filled* the active buffer, i.e. a
        compaction should be triggered and the buffers swapped.
        """
        buf = self.active
        if self.active.index.lookup(lpa, line_offset) is not None:
            self.coalesced_appends += 1
        buf.append(lpa, line_offset)
        self.total_appends += 1
        return buf.full

    def can_swap(self) -> bool:
        """True if the standby buffer has finished draining."""
        return self.standby.empty and not self.standby.draining

    def swap(self) -> LogBuffer:
        """Switch to the standby buffer; returns the now-draining buffer.

        The caller (the compactor) is responsible for calling
        ``reset()`` on the returned buffer once the flush completes.
        """
        if not self.can_swap():
            raise RuntimeError("standby buffer still draining")
        full_buffer = self.active
        full_buffer.draining = True
        self._active = 1 - self._active
        return full_buffer

    def lookup(self, lpa: int, line_offset: int) -> Optional[int]:
        """Newest logged copy of (lpa, line): active buffer first, then the
        draining one.  Returns a log offset or None."""
        pos = self.active.index.lookup(lpa, line_offset)
        if pos is not None:
            return pos
        return self.standby.index.lookup(lpa, line_offset)

    def has_line(self, lpa: int, line_offset: int) -> bool:
        first, second = self.buffers
        return (first.index.has_line(lpa, line_offset)
                or second.index.has_line(lpa, line_offset))

    def has_page(self, lpa: int) -> bool:
        return self.active.index.has_page(lpa) or self.standby.index.has_page(lpa)

    def line_mask(self, lpa: int) -> int:
        """Bitmask of the lines of ``lpa`` logged in either buffer (the
        R3 merge and promotion's dirty bitmap need no log offsets)."""
        first, second = self.buffers
        return first.index.line_mask(lpa) | second.index.line_mask(lpa)

    def remove_page(self, lpa: int) -> int:
        """Invalidate all entries of a page in both buffers (promotion)."""
        return self.active.index.remove_page(lpa) + self.standby.index.remove_page(lpa)


class PartitionedWriteLog:
    """Per-tenant write-log shares ("log-partition" isolation).

    Each tenant owns a private double-buffered :class:`WriteLog` sized
    proportionally to its weight, so one tenant's write burst fills (and
    compacts) only its own share instead of stealing the whole log's
    coalescing window.  Lookups route by the page's owning partition;
    aggregate counters sum the shares so stats and reports are unchanged
    in shape.  Pages outside every tenant partition fall back to share 0.
    """

    def __init__(self, capacity_entries: int, tenant_map,
                 index_cls=None) -> None:
        from repro.qos import partition_capacities

        self._map = tenant_map
        shares = partition_capacities(
            capacity_entries, tenant_map.weights, minimum=2
        )
        self.logs = [WriteLog(share, index_cls) for share in shares]

    def log_for(self, lpa: int) -> WriteLog:
        tenant = self._map.tenant_of_page(lpa)
        return self.logs[tenant if tenant is not None else 0]

    # -- routed queries -----------------------------------------------------

    def lookup(self, lpa: int, line_offset: int) -> Optional[int]:
        return self.log_for(lpa).lookup(lpa, line_offset)

    def has_line(self, lpa: int, line_offset: int) -> bool:
        return self.log_for(lpa).has_line(lpa, line_offset)

    def has_page(self, lpa: int) -> bool:
        return self.log_for(lpa).has_page(lpa)

    def line_mask(self, lpa: int) -> int:
        return self.log_for(lpa).line_mask(lpa)

    def remove_page(self, lpa: int) -> int:
        return self.log_for(lpa).remove_page(lpa)

    # -- aggregates ---------------------------------------------------------

    @property
    def buffers(self):
        return [b for log in self.logs for b in log.buffers]

    @property
    def total_appends(self) -> int:
        return sum(log.total_appends for log in self.logs)

    @property
    def coalesced_appends(self) -> int:
        return sum(log.coalesced_appends for log in self.logs)
