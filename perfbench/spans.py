"""Span recording around the public calls of each layer, from outside ``src/``.

The traced run patches the names the engine's callers actually bind
(``execute_scan`` as imported into ``repro.engine.executor``,
``decode_block`` as imported into ``repro.storage.rms``, class methods on
their classes) with thin wrappers that record one span per call.  Spans
live on per-thread stacks, so the recorder works under ``QueryServer``'s
worker threads, which a ``repro.obs.Tracer`` cannot follow.

A span is the row ``(sid, name, start, end, parent_sid, stmt, thread)``.
``stmt`` is the statement id (-1 outside a statement): every
``QueryEngine.execute`` call opens a new one, and every span below it on
that thread carries it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Columns of the span array returned by :meth:`Recorder.spans`.
SID, NAME, START, END, PARENT, STMT, THREAD = range(7)

#: Span name of the statement root; its self time is what no layer covers.
STATEMENT = "engine.statement"
#: Spans that enclose nearly all work below the statement root, so time in
#: an unwrapped function beneath the executor lands in their self time.
CATCHALL = ("engine.scan_self", "engine.operator")


class Recorder:
    """Installs span-recording wrappers and keeps the spans in memory.

    Each thread appends its spans to its own flat ``array('d')`` (seven
    numbers per span), so recording takes no lock and a long run's
    spans cost 56 bytes each.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._stmt_ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        # Per-thread buffers, merged by spans()/counts(); list.append is atomic.
        self._buffers: List[array] = []
        self._thread_counts: List[Counter] = []

    # -- recording ----------------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.buffer, local.counts
        except AttributeError:
            local.stack = []
            local.buffer = array("d")
            local.counts = Counter()
            local.stmt = -1
            local.tid = threading.get_ident() % (1 << 52)
            self._buffers.append(local.buffer)
            self._thread_counts.append(local.counts)
            return local.stack, local.buffer, local.counts

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the calling thread's counter ``name``."""
        self._state()[2][name] += amount

    def counts(self) -> Counter:
        total: Counter = Counter()
        for per_thread in self._thread_counts:
            total.update(per_thread)
        return total

    def spans(self) -> np.ndarray:
        """Every finished span as rows of ``(SID, NAME, ..., THREAD)``."""
        parts = [np.frombuffer(b, dtype=np.float64) for b in self._buffers if b]
        if not parts:
            return np.empty((0, 7))
        return np.concatenate(parts).reshape(-1, 7)

    def wrap(
        self,
        fn: Callable,
        name: str,
        root: bool = False,
        outermost: bool = False,
        on_result: Optional[Callable[["Recorder", object], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span named ``name`` per call.

        ``root`` opens a statement id for the spans beneath it;
        ``outermost`` skips the span when the caller is already inside a
        span of the same name (recursive predicate trees);
        ``on_result(recorder, result)`` counts work from the return value.
        """
        local = self._local
        ids = self._ids
        stmt_ids = self._stmt_ids
        clock = time.perf_counter
        state = self._state
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, buffer, _ = state()
            if outermost and stack and stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            opened = root and local.stmt < 0
            if opened:
                local.stmt = next(stmt_ids)
            stack.append((sid, name_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer.extend((sid, name_id, start, end, parent, local.stmt, local.tid))
                if opened:
                    local.stmt = -1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counting(self, fn: Callable, name: str) -> Callable:
        """A wrapper of ``fn`` that only counts calls (no span)."""
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state()[2][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Works on module functions and on plain, class and static methods
        (read from the class ``__dict__`` so descriptors stay intact).
        """
        self._replace(owner, attr, lambda fn: self.wrap(fn, name, **options))

    def patch_counter(self, owner: object, attr: str, name: str) -> None:
        self._replace(owner, attr, lambda fn: self.counting(fn, name))

    def _replace(self, owner: object, attr: str, make: Callable) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: object = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _count_rows(recorder: Recorder, result: object) -> None:
    size = getattr(result, "size", None)
    if size is not None:
        recorder.count("predicates.rows", int(size))


def _count_pruned(recorder: Recorder, result: object) -> None:
    recorder.count("storage.pruned_rows", result.num_rows)


def install_layer_wrappers(recorder: Recorder) -> None:
    """Wrap the public call of every layer the benchmark reports on."""
    import repro.engine.engine as engine_module
    import repro.engine.executor as executor_module
    import repro.engine.scan as scan_module
    import repro.reuse as reuse_package
    import repro.sql as sql_package
    import repro.storage.rms as rms_module
    from repro.core.cache import PredicateCache
    from repro.core.rowrange import RangeList
    from repro.engine.bloom import BloomFilter
    from repro.engine.engine import QueryEngine
    from repro.engine.executor import Executor
    from repro.predicates import ast as predicate_ast
    from repro.reuse.compose import ComposedSliceState
    from repro.serve.server import QueryServer, ReadWriteLock
    from repro.storage.column import ColumnStore
    from repro.storage.rms import ManagedStorage
    from repro.storage.slice import DataSlice
    from repro.storage.table import Table

    patch = recorder.patch
    patch(QueryEngine, "execute", STATEMENT, root=True)
    # The engine imports both lazily from the package on every statement.
    patch(sql_package, "parse_statement", "sql.parse")
    patch(sql_package, "plan_select", "sql.plan")
    patch(PredicateCache, "select_entry", "core.lookup")
    patch(PredicateCache, "record_slice_scan", "core.install")
    # The scan path imports both lazily from the package.
    patch(reuse_package, "decompose", "reuse.decompose")
    patch(reuse_package, "plan_reuse", "reuse.plan")
    patch(ComposedSliceState, "candidates", "reuse.compose")
    patch(RangeList, "from_rows", "rowrange.build")
    patch(RangeList, "to_row_ids", "rowrange.to_row_ids")
    for setop in ("intersect", "union", "difference", "complement"):
        patch(RangeList, setop, "rowrange.setop")
    for cls in vars(predicate_ast).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, predicate_ast.Predicate)
            and "evaluate" in vars(cls)
        ):
            patch(
                cls,
                "evaluate",
                "predicates.eval",
                outermost=True,
                on_result=_count_rows,
            )
    patch(ColumnStore, "read_ranges", "storage.gather")
    patch(ManagedStorage, "read_block", "storage.read_block")
    patch(DataSlice, "visibility_mask", "storage.visibility")
    patch(rms_module, "decode_block", "storage.decode")
    patch(
        ColumnStore, "prunable_block_ranges", "storage.zonemap", on_result=_count_pruned
    )
    patch(ManagedStorage, "end_scan_phase", "storage.phase_settle")
    patch(Table, "insert", "storage.insert")
    patch(Table, "delete_local_rows", "storage.delete")
    patch(executor_module, "execute_scan", "engine.scan_self")
    patch(engine_module, "execute_scan", "engine.scan_self")
    patch(Executor, "execute", "engine.operator")
    patch(BloomFilter, "add_many", "engine.bloom_build")
    patch(BloomFilter, "may_contain", "engine.bloom_probe")
    patch(ReadWriteLock, "acquire_read", "serve.lock_wait_read")
    patch(ReadWriteLock, "acquire_write", "serve.lock_wait_write")
    patch(QueryServer, "submit", "serve.admission")
    recorder.patch_counter(scan_module, "_scan_slice", "engine.slice_scans")


#: Span names whose per-statement self time is reported as ``<name>_ms``.
TIMED_LAYERS: Tuple[str, ...] = (
    "sql.parse",
    "sql.plan",
    "core.lookup",
    "core.install",
    "reuse.decompose",
    "reuse.plan",
    "reuse.compose",
    "rowrange.build",
    "rowrange.to_row_ids",
    "rowrange.setop",
    "predicates.eval",
    "storage.gather",
    "storage.read_block",
    "storage.visibility",
    "storage.decode",
    "storage.zonemap",
    "storage.phase_settle",
    "storage.insert",
    "storage.delete",
    "engine.scan_self",
    "engine.operator",
    "engine.bloom_build",
    "engine.bloom_probe",
)


# -- arithmetic ---------------------------------------------------------------------


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self seconds of every span: its duration minus what its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once (their union), so the self times of a tree
    always add up to the root's duration.  Vectorized: children are
    sorted by (parent, start) and each group is shifted past the
    previous one, so one running maximum of end times walks all groups.
    """
    n = len(spans)
    start, end = spans[:, START], spans[:, END]
    out = end - start
    if n == 0:
        return out
    sid = spans[:, SID].astype(np.int64)
    parent = spans[:, PARENT].astype(np.int64)
    by_sid = np.argsort(sid)
    child = np.flatnonzero(parent > 0)
    slot = np.searchsorted(sid[by_sid], parent[child]).clip(0, n - 1)
    found = sid[by_sid][slot] == parent[child]
    child, prow = child[found], by_sid[slot[found]]
    c_start = np.maximum(start[child], start[prow])
    c_end = np.minimum(end[child], end[prow])
    keep = c_end > c_start
    prow, c_start, c_end = prow[keep], c_start[keep], c_end[keep]
    if len(prow) == 0:
        return out
    order = np.lexsort((c_start, prow))
    prow, c_start, c_end = prow[order], c_start[order], c_end[order]
    _, group = np.unique(prow, return_inverse=True)
    origin = float(start.min())
    shift = group * (float(end.max()) - origin + 1.0)
    s = c_start - origin + shift
    e = c_end - origin + shift
    reach = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    piece = np.clip(e - np.maximum(s, reach), 0.0, None)
    return out - np.bincount(prow, weights=piece, minlength=n)


def self_time_by_name(spans: np.ndarray, names: Sequence[str]) -> Dict[str, float]:
    """Summed self seconds per span name."""
    totals = np.bincount(
        spans[:, NAME].astype(np.int64), weights=self_times(spans), minlength=len(names)
    )
    return {name: float(totals[i]) for i, name in enumerate(names)}


def durations(spans: np.ndarray, names: Sequence[str], name: str) -> np.ndarray:
    """Durations of every span called ``name``."""
    if name not in names:
        return np.empty(0)
    rows = spans[spans[:, NAME] == names.index(name)]
    return rows[:, END] - rows[:, START]


def write_spans(spans: np.ndarray, names: Sequence[str], path) -> None:
    """Write spans as a tab-separated file (one span per line)."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("sid\tname\tstart\tend\tparent\tstmt\tthread\n")
        for sid, name, start, end, parent, stmt, tid in spans.tolist():
            out.write(
                f"{int(sid)}\t{names[int(name)]}\t{start:.9f}\t{end:.9f}\t"
                f"{int(parent)}\t{int(stmt)}\t{int(tid)}\n"
            )
