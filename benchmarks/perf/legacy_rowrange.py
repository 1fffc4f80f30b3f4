"""Frozen seed (pre-vectorization) row-range algebra — benchmark reference.

This is the repository's original per-object implementation, kept verbatim
so the perf harness can measure real speedups of the array-backed rewrite
on the same machine, instead of trusting recorded numbers from another
host.  Do not import this from production code.

Original module docstring:

Row-range algebra.

A :class:`RowRange` is a half-open interval ``[start, end)`` of row ids.
A :class:`RangeList` is an ordered, non-overlapping, non-adjacent list of
row ranges.  Range lists are the currency of the whole system:

* the vectorized scan produces a range list of qualifying rows,
* the predicate cache stores (bounded) range lists per cached predicate,
* a cached range list restricts the candidate rows of a repeated scan.

Ranges are half-open (like Python slices) so that lengths and
concatenations are free of ±1 bookkeeping.  The paper describes ranges as
``(start row, end row)`` pairs; the open/closed convention is internal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["RowRange", "RangeList"]


@dataclass(frozen=True, slots=True)
class RowRange:
    """A half-open interval ``[start, end)`` of row ids."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"range start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"range end {self.end} < start {self.start}")

    def __len__(self) -> int:
        return self.end - self.start

    def __bool__(self) -> bool:
        return self.end > self.start

    def __contains__(self, row: int) -> bool:
        return self.start <= row < self.end

    def overlaps(self, other: "RowRange") -> bool:
        """True if the two ranges share at least one row."""
        return self.start < other.end and other.start < self.end

    def touches(self, other: "RowRange") -> bool:
        """True if the ranges overlap or are directly adjacent."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "RowRange") -> "RowRange":
        """The overlapping part of the two ranges (may be empty)."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        return RowRange(start, max(start, end))

    def union_touching(self, other: "RowRange") -> "RowRange":
        """Merge with a touching range.

        Raises:
            ValueError: if the ranges neither overlap nor touch.
        """
        if not self.touches(other):
            raise ValueError(f"ranges {self} and {other} do not touch")
        return RowRange(min(self.start, other.start), max(self.end, other.end))

    def shift(self, offset: int) -> "RowRange":
        """A copy of this range translated by ``offset`` rows."""
        return RowRange(self.start + offset, self.end + offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start},{self.end})"


class RangeList:
    """An ordered list of disjoint, non-adjacent row ranges.

    The constructor normalizes arbitrary input ranges: it sorts them,
    drops empty ranges, and merges overlapping or adjacent ones.  All set
    operations (union, intersection, complement) preserve the invariant.
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Iterable[RowRange | Tuple[int, int]] = ()) -> None:
        normalized: List[RowRange] = []
        items = [r if isinstance(r, RowRange) else RowRange(*r) for r in ranges]
        for r in sorted((r for r in items if r), key=lambda r: r.start):
            if normalized and normalized[-1].touches(r):
                normalized[-1] = normalized[-1].union_touching(r)
            else:
                normalized.append(r)
        self._ranges = normalized

    # -- constructors -----------------------------------------------------

    @classmethod
    def full(cls, num_rows: int) -> "RangeList":
        """A range list covering ``[0, num_rows)``."""
        if num_rows <= 0:
            return cls()
        return cls([RowRange(0, num_rows)])

    @classmethod
    def empty(cls) -> "RangeList":
        return cls()

    @classmethod
    def from_mask(cls, mask: np.ndarray, offset: int = 0) -> "RangeList":
        """Build a range list from a boolean qualification mask.

        This is what the vectorized scan produces: consecutive ``True``
        runs become ranges.  ``offset`` translates mask positions into
        global row ids.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.size == 0:
            return cls()
        # Find run boundaries: diff of the int mask is +1 at run starts
        # and -1 one past run ends.
        diff = np.diff(mask.astype(np.int8))
        starts = np.flatnonzero(diff == 1) + 1
        ends = np.flatnonzero(diff == -1) + 1
        if mask[0]:
            starts = np.concatenate(([0], starts))
        if mask[-1]:
            ends = np.concatenate((ends, [mask.size]))
        out = cls.__new__(cls)
        out._ranges = [
            RowRange(int(s) + offset, int(e) + offset)
            for s, e in zip(starts, ends)
        ]
        return out

    @classmethod
    def from_rows(cls, rows: Sequence[int] | np.ndarray) -> "RangeList":
        """Build a range list from individual (unsorted, unique) row ids."""
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return cls()
        breaks = np.flatnonzero(np.diff(rows) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [rows.size - 1]))
        out = cls.__new__(cls)
        out._ranges = [
            RowRange(int(rows[s]), int(rows[e]) + 1) for s, e in zip(starts, ends)
        ]
        return out

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterator[RowRange]:
        return iter(self._ranges)

    def __getitem__(self, idx: int) -> RowRange:
        return self._ranges[idx]

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeList):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(tuple((r.start, r.end) for r in self._ranges))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeList({self._ranges!r})"

    # -- measures ----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Total number of rows covered by all ranges."""
        return sum(len(r) for r in self._ranges)

    @property
    def span(self) -> RowRange:
        """The bounding range ``[first.start, last.end)`` (empty if none)."""
        if not self._ranges:
            return RowRange(0, 0)
        return RowRange(self._ranges[0].start, self._ranges[-1].end)

    def contains_row(self, row: int) -> bool:
        """Binary search membership test for a single row id."""
        lo, hi = 0, len(self._ranges)
        while lo < hi:
            mid = (lo + hi) // 2
            r = self._ranges[mid]
            if row < r.start:
                hi = mid
            elif row >= r.end:
                lo = mid + 1
            else:
                return True
        return False

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "RangeList") -> "RangeList":
        """Rows in either list."""
        return RangeList(list(self._ranges) + list(other._ranges))

    def intersect(self, other: "RangeList") -> "RangeList":
        """Rows in both lists (linear merge)."""
        out: List[RowRange] = []
        i = j = 0
        a, b = self._ranges, other._ranges
        while i < len(a) and j < len(b):
            hit = a[i].intersect(b[j])
            if hit:
                out.append(hit)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        result = RangeList.__new__(RangeList)
        result._ranges = out
        return result

    def difference(self, other: "RangeList") -> "RangeList":
        """Rows in this list but not in ``other``."""
        if not other._ranges:
            return self
        span_end = max(self.span.end, other.span.end)
        return self.intersect(other.complement(span_end))

    def complement(self, num_rows: int) -> "RangeList":
        """Rows in ``[0, num_rows)`` not covered by this list."""
        out: List[RowRange] = []
        cursor = 0
        for r in self._ranges:
            if r.start >= num_rows:
                break
            if r.start > cursor:
                out.append(RowRange(cursor, min(r.start, num_rows)))
            cursor = max(cursor, r.end)
        if cursor < num_rows:
            out.append(RowRange(cursor, num_rows))
        result = RangeList.__new__(RangeList)
        result._ranges = out
        return result

    # -- transforms ----------------------------------------------------------

    def clip(self, start: int, end: int) -> "RangeList":
        """Restrict the list to the window ``[start, end)``."""
        window = RowRange(start, max(start, end))
        out = [r.intersect(window) for r in self._ranges]
        result = RangeList.__new__(RangeList)
        result._ranges = [r for r in out if r]
        return result

    def shift(self, offset: int) -> "RangeList":
        """Translate every range by ``offset`` rows."""
        result = RangeList.__new__(RangeList)
        result._ranges = [r.shift(offset) for r in self._ranges]
        return result

    def coalesce(self, max_ranges: int) -> "RangeList":
        """Reduce to at most ``max_ranges`` ranges by closing smallest gaps.

        This is the *offline* equivalent of the paper's gap-heap
        construction (:mod:`repro.core.gapheap` builds the same result
        online): we keep the ``max_ranges - 1`` largest gaps between
        consecutive ranges and merge across all other gaps.  The result
        covers a superset of the original rows (false positives only).
        """
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        if len(self._ranges) <= max_ranges:
            return self
        gaps = [
            (self._ranges[i + 1].start - self._ranges[i].end, i)
            for i in range(len(self._ranges) - 1)
        ]
        gaps.sort(reverse=True)
        keep = sorted(i for _, i in gaps[: max_ranges - 1])
        out: List[RowRange] = []
        start = self._ranges[0].start
        for i in keep:
            out.append(RowRange(start, self._ranges[i].end))
            start = self._ranges[i + 1].start
        out.append(RowRange(start, self._ranges[-1].end))
        result = RangeList.__new__(RangeList)
        result._ranges = out
        return result

    def to_mask(self, num_rows: int) -> np.ndarray:
        """Materialize as a boolean mask over ``[0, num_rows)``."""
        mask = np.zeros(num_rows, dtype=bool)
        for r in self._ranges:
            if r.start >= num_rows:
                break
            mask[r.start : min(r.end, num_rows)] = True
        return mask

    def to_row_ids(self) -> np.ndarray:
        """Materialize as an int64 array of row ids."""
        if not self._ranges:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.arange(r.start, r.end, dtype=np.int64) for r in self._ranges]
        )

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Plain ``(start, end)`` tuples, e.g. for serialization."""
        return [(r.start, r.end) for r in self._ranges]

    def covers(self, other: "RangeList") -> bool:
        """True if every row of ``other`` is contained in this list."""
        return other.difference(self).num_rows == 0

    @property
    def nbytes(self) -> int:
        """Memory footprint: two 8-byte row ids per range (paper §4.1.1)."""
        return 16 * len(self._ranges)


# -- seed gap-heap builder (pre-vectorization) ---------------------------------

import heapq
from typing import Optional


class LegacyGapHeapRangeBuilder:
    """Seed per-gap heapq builder (see repro.core.gapheap for the paper context)."""

    def __init__(self, max_ranges: int) -> None:
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        self.max_ranges = max_ranges
        self._gaps: List[Tuple[int, int, int]] = []
        self._first_start: Optional[int] = None
        self._last_end: Optional[int] = None
        self._finished = False

    def add(self, start: int, end: int) -> None:
        if self._finished:
            raise RuntimeError("builder already finished")
        if end <= start:
            return
        if self._last_end is not None and start < self._last_end:
            raise ValueError("ranges must be streamed in ascending order")
        if self._first_start is None:
            self._first_start = start
        elif start > self._last_end:
            self._push_gap(self._last_end, start)
        self._last_end = end

    def _push_gap(self, gap_start: int, gap_end: int) -> None:
        width = gap_end - gap_start
        entry = (width, gap_start, gap_end)
        if len(self._gaps) < self.max_ranges - 1:
            heapq.heappush(self._gaps, entry)
        elif self._gaps and width > self._gaps[0][0]:
            heapq.heapreplace(self._gaps, entry)

    def finish(self) -> "RangeList":
        self._finished = True
        if self._first_start is None:
            return RangeList()
        kept = sorted((start, end) for _, start, end in self._gaps)
        ranges: List[RowRange] = []
        cursor = self._first_start
        for gap_start, gap_end in kept:
            ranges.append(RowRange(cursor, gap_start))
            cursor = gap_end
        ranges.append(RowRange(cursor, self._last_end))
        result = RangeList.__new__(RangeList)
        result._ranges = ranges
        return result


# -- seed ColumnStore hot paths (pre-vectorization) -----------------------------

def legacy_read_ranges(self, ranges, rms, rows=None):
    """Seed ColumnStore.read_ranges: nested Python while loop per range.

    Bound as a method onto the live ColumnStore class for legacy-mode
    scan benchmarking; works with any RangeList exposing iteration.
    ``rows`` (the caller's precomputed row ids) is accepted and ignored,
    so the seed path still walks the ranges itself.
    """
    del rows
    from repro.storage.dtypes import DataType

    if not ranges:
        return self._to_array([])
    pieces = []
    decoded = {}
    sealed_rows = self.num_sealed_rows
    tail = None
    for r in ranges:
        cursor = r.start
        while cursor < r.end:
            if cursor >= sealed_rows:
                if tail is None:
                    tail = self.tail_values()
                lo = cursor - sealed_rows
                hi = min(r.end - sealed_rows, len(tail))
                pieces.append(tail[lo:hi])
                cursor = r.end
                continue
            block_index = cursor // self.rows_per_block
            block_start = block_index * self.rows_per_block
            block_end = block_start + self.rows_per_block
            values = decoded.get(block_index)
            if values is None:
                values = rms.read_block(
                    self._block_key(block_index), self.blocks[block_index]
                )
                decoded[block_index] = values
            hi = min(r.end, block_end)
            pieces.append(values[cursor - block_start : hi - block_start])
            cursor = hi
    if not pieces:
        return self._to_array([])
    if self.dtype is DataType.STRING:
        return np.concatenate([np.asarray(p, dtype=object) for p in pieces])
    return np.concatenate(pieces)


def legacy_prunable_block_ranges(self, bounds):
    """Seed ColumnStore.prunable_block_ranges: per-block tuple generator."""
    pruned = self.zonemap.pruned_blocks(bounds)
    if not pruned.any():
        return RangeList()
    size = self.rows_per_block
    return RangeList(
        (int(i) * size, (int(i) + 1) * size) for i in np.flatnonzero(pruned)
    )
