"""Per-slice column storage: sealed compressed blocks plus a tail buffer.

A :class:`ColumnStore` holds one column of one data slice.  Rows arrive
appended to an in-memory *tail* (Redshift's insert buffer, §4.3.1); once
the tail reaches the block size it is *sealed* into a compressed block
with a zone-map entry.  Sealed blocks are immutable; reads go through
:class:`~repro.storage.rms.ManagedStorage` so every block access is
counted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.rowrange import RangeList
from .compression import EncodedBlock, choose_codec
from .dtypes import DataType
from .rms import BlockKey, ManagedStorage
from .zonemap import ZoneMap

__all__ = ["ColumnStore", "GrowableArray"]


class GrowableArray:
    """An amortized-append numpy array (doubling growth)."""

    __slots__ = ("_data", "_size")

    def __init__(self, dtype: np.dtype, capacity: int = 64) -> None:
        self._data = np.empty(max(capacity, 1), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        """A view of the live portion (do not keep across appends)."""
        return self._data[: self._size]

    def append_many(self, values: np.ndarray) -> None:
        needed = self._size + len(values)
        if needed > len(self._data):
            capacity = max(needed, 2 * len(self._data))
            grown = np.empty(capacity, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = values
        self._size = needed

    def replace(self, values: np.ndarray) -> None:
        """Swap in entirely new contents (vacuum rebuild)."""
        self._data = np.array(values, dtype=self._data.dtype)
        self._size = len(values)


class ColumnStore:
    """One column of one slice: sealed blocks + unsealed tail."""

    def __init__(
        self,
        table_name: str,
        slice_id: int,
        column_name: str,
        dtype: DataType,
        rows_per_block: int,
        block_store=None,
    ) -> None:
        self.table_name = table_name
        self.slice_id = slice_id
        self.column_name = column_name
        self.dtype = dtype
        self.rows_per_block = rows_per_block
        # Optional MemmapBlockStore: sealed payloads spill to disk and
        # page in on demand (out-of-core tables); None keeps payloads
        # resident, byte-for-byte the historical layout.
        self.block_store = block_store
        self.blocks: List[EncodedBlock] = []
        self.zonemap = ZoneMap()
        self._tail: List[object] = []

    # -- size -----------------------------------------------------------------

    @property
    def num_sealed_rows(self) -> int:
        return len(self.blocks) * self.rows_per_block

    @property
    def num_rows(self) -> int:
        return self.num_sealed_rows + len(self._tail)

    @property
    def num_blocks(self) -> int:
        """Sealed blocks plus the tail counted as one open block."""
        return len(self.blocks) + (1 if self._tail else 0)

    @property
    def compressed_nbytes(self) -> int:
        """Compressed size of all sealed blocks."""
        return sum(b.nbytes for b in self.blocks)

    def metrics_snapshot(self) -> dict:
        """Current storage shape of this column (observability rollup).

        :meth:`Database.register_metrics` sums these per table at scrape
        time; keeping the raw numbers here means the storage layer owns
        its own accounting and the registry never reaches into internals.
        """
        return {
            "blocks_sealed": len(self.blocks),
            "rows_sealed": self.num_sealed_rows,
            "rows_tail": len(self._tail),
            "compressed_nbytes": self.compressed_nbytes,
        }

    # -- writes ---------------------------------------------------------------

    def append(self, values: Sequence[object], rms: Optional[ManagedStorage]) -> None:
        """Append values to the tail, sealing full blocks as they fill."""
        self._tail.extend(values)
        while len(self._tail) >= self.rows_per_block:
            self._seal(self._tail[: self.rows_per_block], rms)
            del self._tail[: self.rows_per_block]

    def _seal(self, values: Sequence[object], rms: Optional[ManagedStorage]) -> None:
        array = self._to_array(values)
        block = choose_codec(array)
        if self.block_store is not None:
            # nbytes and checksum are already stamped; only payload
            # residency changes (see blockstore module doc).
            block = self.block_store.externalize(block)
        self.blocks.append(block)
        self.zonemap.append_block(array)
        if rms is not None:
            # The rows were previously served from the tail; make sure no
            # stale decoded tail data lingers for the new block id.
            rms.invalidate_block(self._block_key(len(self.blocks) - 1))

    def _to_array(self, values: Sequence[object]) -> np.ndarray:
        if self.dtype is DataType.STRING:
            return np.array(values, dtype=object)
        return np.asarray(values, dtype=self.dtype.numpy_dtype)

    def rebuild(self, values: np.ndarray, rms: Optional[ManagedStorage]) -> None:
        """Replace the whole column (vacuum): reseal everything."""
        if self.block_store is not None:
            for block in self.blocks:
                self.block_store.release(block)
        self.blocks = []
        self.zonemap = ZoneMap()
        self._tail = []
        if rms is not None:
            rms.invalidate_table(self.table_name)
        self.append(list(values), rms)

    # -- reads ----------------------------------------------------------------

    def _block_key(self, block_index: int) -> BlockKey:
        return (self.table_name, self.slice_id, self.column_name, block_index)

    def tail_values(self) -> np.ndarray:
        return self._to_array(self._tail)

    def read_ranges(
        self,
        ranges: RangeList,
        rms: ManagedStorage,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gather the column's values for the given local row ranges.

        Sealed blocks are fetched through managed storage exactly once
        per call (the per-access counting the cost model needs); tail
        rows are served from the insert buffer without block accounting.

        ``rows`` is ``ranges.to_row_ids()`` when the caller already has
        it: a slice scan materializes its candidate row ids once and
        hands them to every column it reads, to the visibility check
        and to range building.  Block coverage comes from the sorted row
        ids in one vectorized pass, and the touched blocks are read with
        one :meth:`ManagedStorage.read_blocks` call — no per-range
        Python loop, no per-block lock round trip.
        """
        if not ranges:
            return self._to_array([])
        if rows is None:
            rows = ranges.to_row_ids()
        sealed_rows = self.num_sealed_rows
        # rows is sorted: sealed rows first, then tail rows, then any
        # rows past the column's end (dropped, as a clip would).
        cut, stop = np.searchsorted(rows, (sealed_rows, self.num_rows))
        pieces: List[np.ndarray] = []
        if cut:
            pieces.append(self._gather_sealed(rows[:cut], rms))
        if stop > cut:
            pieces.append(self.tail_values()[rows[cut:stop] - sealed_rows])
        if not pieces:
            return self._to_array([])
        if self.dtype is DataType.STRING:
            return np.concatenate([np.asarray(p, dtype=object) for p in pieces])
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def _gather_sealed(self, rows: np.ndarray, rms: ManagedStorage) -> np.ndarray:
        """Read each touched sealed block once, gather the given rows.

        ``rows`` is sorted, so each touched block's rows form one
        contiguous run of it.
        """
        size = self.rows_per_block
        block_of = rows // size
        offsets = rows - block_of * size
        run_starts = np.flatnonzero(block_of[1:] != block_of[:-1]) + 1
        touched = block_of[np.concatenate(([0], run_starts))].tolist()
        decoded = rms.read_blocks(
            [self._block_key(b) for b in touched],
            [self.blocks[b] for b in touched],
        )
        out_dtype = object if self.dtype is DataType.STRING else decoded[0].dtype
        out = np.empty(len(rows), dtype=out_dtype)
        cuts = run_starts.tolist()
        cuts.append(len(rows))
        lo = 0
        for values, hi in zip(decoded, cuts):
            out[lo:hi] = values[offsets[lo:hi]]
            lo = hi
        return out

    def read_all(self, rms: ManagedStorage) -> np.ndarray:
        """Read the entire column (loads, joins on full tables)."""
        return self.read_ranges(RangeList.full(self.num_rows), rms)

    # -- block pruning ----------------------------------------------------------

    def prunable_block_ranges(self, bounds) -> RangeList:
        """Row ranges of sealed blocks that cannot contain matches.

        ``bounds`` is a :class:`repro.predicates.ast.Bounds`.  The tail
        block carries no zone map (it is still mutable), so it is never
        pruned — matching Redshift, where the insert buffer is always
        scanned.
        """
        pruned = self.zonemap.pruned_blocks(bounds)
        if not pruned.any():
            return RangeList.empty()
        # Scale merged block-index runs into row ranges in one shot;
        # adjacent pruned blocks collapse into a single range, exactly
        # like the per-block constructor used to produce.
        return RangeList.from_mask(pruned, scale=self.rows_per_block)
