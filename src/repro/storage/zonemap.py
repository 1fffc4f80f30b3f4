"""Zone maps: per-block min/max bounds for block pruning.

Redshift's first scan step eliminates blocks whose min/max bounds cannot
satisfy the pushed-down predicate (§4.2.2).  A :class:`ZoneMap` holds the
bounds for every sealed block of one column; pruning intersects the
predicate's implied value interval with each block's interval.

:meth:`ZoneMap.pruned_blocks` answers a whole column in a few numpy
comparisons when every block's bounds share one type — int, float or
str, as every block of an INT64/DATE, FLOAT64 or STRING column does.
It compares only where numpy gives exactly the answer of Python's
comparison in :meth:`ZoneEntry.may_contain`: ints against ints, floats
against floats, ints against floats only when every operand is exact in
float64, strings against strings.  A side whose bound cannot be ordered
against the type (a number against strings) prunes nothing, as the
``TypeError`` rule of ``may_contain`` has it.  Any other zone map or
type/bound pairing takes ``may_contain`` block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["ZoneEntry", "ZoneMap"]


@dataclass(frozen=True, slots=True)
class ZoneEntry:
    """Min/max bounds of one block (None for non-comparable blocks)."""

    minimum: Optional[object]
    maximum: Optional[object]

    def may_contain(self, bounds) -> bool:
        """True unless the bound interval and block interval are disjoint.

        ``bounds`` is a :class:`repro.predicates.ast.Bounds`; unbounded
        sides are None.  Unknown block bounds always *may* contain
        matches (no false negatives).  Strict endpoints additionally
        prune blocks whose extreme equals the excluded bound.
        """
        if self.minimum is None or self.maximum is None:
            return True
        try:
            if bounds.hi is not None:
                if self.minimum > bounds.hi:
                    return False
                if bounds.hi_strict and self.minimum >= bounds.hi:
                    return False
            if bounds.lo is not None:
                if self.maximum < bounds.lo:
                    return False
                if bounds.lo_strict and self.maximum <= bounds.lo:
                    return False
        except TypeError:
            # Incomparable types (e.g. numeric bound vs string block):
            # never prune on unsound comparisons.
            return True
        return True


#: Largest magnitude below which every integer is exact in float64.
_FLOAT_EXACT = 2**53
_DTYPES = {int: np.int64, float: np.float64, str: object}

# Outcomes of coercing one bound for the zone map's type besides a value.
_INCOMPARABLE = object()  # Python raises TypeError: never prunes
_INEXACT = object()  # numpy could differ from Python: per-entry path


class ZoneMap:
    """Bounds for all sealed blocks of one column of one slice."""

    __slots__ = ("_entries", "_arrays")

    def __init__(self) -> None:
        self._entries: List[ZoneEntry] = []
        # (kind, mins, maxs, exact_in_float); () when the blocks'
        # bounds do not share one type; None until the next prune.
        self._arrays: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, block_index: int) -> ZoneEntry:
        return self._entries[block_index]

    def append_block(self, values: np.ndarray) -> None:
        """Record bounds for a newly sealed block."""
        self._arrays = None
        if len(values) == 0:
            self._entries.append(ZoneEntry(None, None))
            return
        if values.dtype == object:
            try:
                minimum, maximum = min(values), max(values)
            except TypeError:
                minimum = maximum = None
        else:
            minimum, maximum = values.min(), values.max()
        self._entries.append(ZoneEntry(_to_python(minimum), _to_python(maximum)))

    def truncate(self, num_blocks: int) -> None:
        """Drop entries beyond ``num_blocks`` (used by vacuum rebuilds)."""
        del self._entries[num_blocks:]
        self._arrays = None

    def pruned_blocks(self, bounds) -> np.ndarray:
        """Boolean array: True where the block can be skipped entirely.

        Exactly ``not entry.may_contain(bounds)`` per block; see the
        module doc for when array comparisons answer it.
        """
        if self._arrays is None:
            self._arrays = self._build_arrays()
        if self._arrays:
            pruned = _compare(*self._arrays, bounds)
            if pruned is not None:
                return pruned
        return np.array(
            [not entry.may_contain(bounds) for entry in self._entries],
            dtype=bool,
        )

    def _build_arrays(self) -> tuple:
        kinds = {type(e.minimum) for e in self._entries}
        kinds |= {type(e.maximum) for e in self._entries}
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind not in _DTYPES:
            return ()
        try:
            mins = np.array([e.minimum for e in self._entries], dtype=_DTYPES[kind])
            maxs = np.array([e.maximum for e in self._entries], dtype=_DTYPES[kind])
        except OverflowError:  # Python ints past int64
            return ()
        exact_in_float = kind is int and (
            -int(mins.min()) <= _FLOAT_EXACT and int(maxs.max()) <= _FLOAT_EXACT
        )
        return kind, mins, maxs, exact_in_float

    @property
    def nbytes(self) -> int:
        """16 bytes (min + max) per block, as in the paper's Table 3."""
        return 16 * len(self._entries)


def _coerce(kind: type, bound: object, exact_in_float: bool) -> object:
    """``bound`` as a numpy operand giving Python's answer against
    ``kind`` values, or ``_INCOMPARABLE`` / ``_INEXACT``."""
    bound_kind = type(bound)
    if kind is str:
        if bound_kind is str:
            return bound
        return _INCOMPARABLE if bound_kind in (int, float, bool) else _INEXACT
    if bound_kind is str:
        return _INCOMPARABLE
    if bound_kind is bool:
        bound, bound_kind = int(bound), int
    if bound_kind is int:
        if kind is int:
            return bound if -(2**63) <= bound < 2**63 else _INEXACT
        return float(bound) if abs(bound) <= _FLOAT_EXACT else _INEXACT
    if bound_kind is float:
        return bound if kind is float or exact_in_float else _INEXACT
    return _INEXACT


def _compare(kind, mins, maxs, exact_in_float, bounds) -> Optional[np.ndarray]:
    """Vectorized ``not may_contain`` per block, or None to defer."""
    hi = lo = None
    if bounds.hi is not None:
        hi = _coerce(kind, bounds.hi, exact_in_float)
        if hi is _INEXACT:
            return None
        if hi is _INCOMPARABLE:
            # may_contain checks hi first: every block raises there.
            return np.zeros(len(mins), dtype=bool)
    if bounds.lo is not None:
        lo = _coerce(kind, bounds.lo, exact_in_float)
        if lo is _INEXACT:
            return None
    if kind is int and float in (type(hi), type(lo)):
        # A float comparison: the int side must be exact there too.
        if any(type(b) is int and abs(b) > _FLOAT_EXACT for b in (hi, lo)):
            return None
        mins, maxs = mins.astype(np.float64), maxs.astype(np.float64)
    pruned = np.zeros(len(mins), dtype=bool)
    if hi is not None:
        pruned |= (mins >= hi) if bounds.hi_strict else (mins > hi)
    if lo is not None and lo is not _INCOMPARABLE:
        pruned |= (maxs <= lo) if bounds.lo_strict else (maxs < lo)
    return pruned


def _to_python(value: object) -> object:
    """Convert numpy scalars to plain Python for stable comparisons."""
    if isinstance(value, np.generic):
        return value.item()
    return value
