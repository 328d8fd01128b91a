"""Two-level hash index for the write log (Fig. 12).

The first level is a hash table keyed by logical page address (LPA); each
valid entry points to a second-level table keyed by the cacheline offset
within that page (6 bits for 64 lines/4 KB page) and storing the log
offset (26 bits).  Grouping by page makes compaction cheap: all logged
lines of one page are found by traversing one second-level table.

The paper sizes the structures precisely -- 16 B first-level entries, 4 B
second-level entries, second-level tables starting at four entries and
doubling when the load factor exceeds 0.75 -- because DRAM footprint
matters inside an SSD controller.  This implementation reproduces that
sizing model (:meth:`LogIndex.memory_bytes`) so the paper's worst-case
32 MB / measured 5.6 MB numbers can be checked, while using Python dicts
for the actual storage.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.config import CACHELINES_PER_PAGE

FIRST_LEVEL_ENTRY_BYTES = 16  # 8 B LPA + 8 B second-level pointer
SECOND_LEVEL_ENTRY_BYTES = 4  # 6-bit page offset + 26-bit log offset
SECOND_LEVEL_INITIAL_SLOTS = 4
SECOND_LEVEL_LOAD_FACTOR = 0.75


class SecondLevelTable:
    """Per-page table: cacheline offset -> log offset.

    Keeps its peak entry count, from which :attr:`slots` derives the
    slots a resizable open hash table of this load factor would hold,
    for footprint accounting.
    """

    __slots__ = ("entries", "peak", "mask")

    def __init__(self) -> None:
        self.entries: Dict[int, int] = {}
        #: Most entries the table has held (it never shrinks its slots).
        self.peak = 0
        #: Bitmask of the indexed line offsets (the R3 merge mask).
        self.mask = 0

    def insert(self, line_offset: int, log_offset: int) -> None:
        entries = self.entries
        entries[line_offset] = log_offset
        self.mask |= 1 << line_offset
        count = len(entries)
        if count > self.peak:
            self.peak = count

    @property
    def slots(self) -> int:
        """Slots of a table that starts at four and doubles whenever an
        insert pushes it past the load factor: a function of the peak
        entry count alone, since slots never shrink."""
        slots = SECOND_LEVEL_INITIAL_SLOTS
        while self.peak > slots * SECOND_LEVEL_LOAD_FACTOR:
            slots *= 2
        return slots

    def lookup(self, line_offset: int) -> Optional[int]:
        return self.entries.get(line_offset)

    def remove(self, line_offset: int) -> None:
        self.entries.pop(line_offset, None)
        self.mask &= ~(1 << line_offset)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def memory_bytes(self) -> int:
        return self.slots * SECOND_LEVEL_ENTRY_BYTES


class LogIndex:
    """The full two-level index of one write-log buffer."""

    def __init__(self) -> None:
        self._first: Dict[int, SecondLevelTable] = {}
        self._entry_count = 0

    def insert(self, lpa: int, line_offset: int, log_offset: int) -> bool:
        """Index a logged cacheline.  Returns True if this *replaced* an
        older entry for the same (page, line) -- i.e. the write coalesced.
        """
        if not 0 <= line_offset < CACHELINES_PER_PAGE:
            raise ValueError("line_offset out of page range")
        table = self._first.get(lpa)
        if table is None:
            table = SecondLevelTable()
            self._first[lpa] = table
        replaced = line_offset in table.entries
        table.insert(line_offset, log_offset)
        if not replaced:
            self._entry_count += 1
        return replaced

    def lookup(self, lpa: int, line_offset: int) -> Optional[int]:
        """Log offset of the newest logged copy of (lpa, line), or None."""
        table = self._first.get(lpa)
        if table is None:
            return None
        return table.lookup(line_offset)

    def has_line(self, lpa: int, line_offset: int) -> bool:
        table = self._first.get(lpa)
        return table is not None and line_offset in table.entries

    def lines_for_page(self, lpa: int) -> Dict[int, int]:
        """All logged lines of ``lpa``: line offset -> log offset."""
        table = self._first.get(lpa)
        return dict(table.entries) if table is not None else {}

    def line_mask(self, lpa: int) -> int:
        """Bitmask of the logged lines of ``lpa`` (no dict copy)."""
        table = self._first.get(lpa)
        return 0 if table is None else table.mask

    def has_page(self, lpa: int) -> bool:
        return lpa in self._first

    def remove_page(self, lpa: int) -> int:
        """Invalidate every entry of ``lpa`` (used after page promotion --
        "the SSD ... invalidates the write log index by setting the
        corresponding entry as NULL", §III-C).  Returns entries dropped."""
        table = self._first.pop(lpa, None)
        if table is None:
            return 0
        dropped = len(table)
        self._entry_count -= dropped
        return dropped

    def pages(self) -> Iterator[int]:
        """LPAs with at least one logged line (compaction scan, step L1)."""
        return iter(self._first.keys())

    def items(self) -> Iterator[Tuple[int, Dict[int, int]]]:
        for lpa, table in self._first.items():
            yield lpa, dict(table.entries)

    def clear(self) -> None:
        self._first.clear()
        self._entry_count = 0

    def __len__(self) -> int:
        return self._entry_count

    @property
    def memory_bytes(self) -> int:
        """DRAM footprint under the paper's sizing model."""
        first = len(self._first) * FIRST_LEVEL_ENTRY_BYTES
        second = sum(t.memory_bytes for t in self._first.values())
        return first + second
