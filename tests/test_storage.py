"""Storage engine: zone maps, column stores, managed storage."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rowrange import RangeList
from repro.storage.column import ColumnStore, GrowableArray
from repro.storage.dtypes import DataType, date_to_days, days_to_date
from repro.storage.rms import ManagedStorage
from repro.predicates.ast import Bounds
from repro.storage.zonemap import ZoneEntry, ZoneMap


class TestDtypes:
    def test_date_roundtrip(self):
        days = date_to_days("1995-01-31")
        assert days_to_date(days).isoformat() == "1995-01-31"

    def test_date_from_int_passthrough(self):
        assert date_to_days(100) == 100

    def test_numpy_dtypes(self):
        assert DataType.INT64.numpy_dtype == np.int64
        assert DataType.DATE.numpy_dtype == np.int64
        assert DataType.FLOAT64.numpy_dtype == np.float64
        assert DataType.STRING.numpy_dtype == object

    def test_is_numeric(self):
        assert DataType.DATE.is_numeric
        assert not DataType.STRING.is_numeric


class TestGrowableArray:
    def test_append_and_read(self):
        a = GrowableArray(np.dtype(np.int64), capacity=2)
        a.append_many(np.array([1, 2, 3]))
        a.append_many(np.array([4]))
        assert a.values.tolist() == [1, 2, 3, 4]
        assert len(a) == 4

    def test_replace(self):
        a = GrowableArray(np.dtype(np.int64))
        a.append_many(np.arange(10))
        a.replace(np.array([7, 8]))
        assert a.values.tolist() == [7, 8]


class TestZoneMap:
    def test_bounds_recorded(self):
        zm = ZoneMap()
        zm.append_block(np.array([5, 1, 9]))
        assert zm[0].minimum == 1
        assert zm[0].maximum == 9

    def test_may_contain(self):
        entry = ZoneEntry(10, 20)
        assert entry.may_contain(Bounds(15, 18))
        assert entry.may_contain(Bounds(None, 10))  # touches minimum
        assert entry.may_contain(Bounds(20, None))
        assert not entry.may_contain(Bounds(None, 9))
        assert not entry.may_contain(Bounds(21, None))

    def test_strict_bounds_prune_equal_extremes(self):
        entry = ZoneEntry(10, 20)
        assert not entry.may_contain(Bounds(hi=10, hi_strict=True))
        assert not entry.may_contain(Bounds(lo=20, lo_strict=True))
        assert entry.may_contain(Bounds(hi=10))
        assert entry.may_contain(Bounds(lo=20))

    def test_unknown_bounds_never_prune(self):
        assert ZoneEntry(None, None).may_contain(Bounds(0, 1))

    def test_incomparable_types_never_prune(self):
        entry = ZoneEntry("apple", "pear")
        assert entry.may_contain(Bounds(1, 5))

    def test_pruned_blocks(self):
        zm = ZoneMap()
        zm.append_block(np.array([0, 9]))
        zm.append_block(np.array([10, 19]))
        zm.append_block(np.array([20, 29]))
        assert zm.pruned_blocks(Bounds(12, 15)).tolist() == [True, False, True]

    def test_nbytes(self):
        zm = ZoneMap()
        zm.append_block(np.array([1]))
        zm.append_block(np.array([2]))
        assert zm.nbytes == 32


# Values near the float64 exactness edge (2**53) and the int64 limits
# make numpy and Python comparisons differ if the vectorized path ever
# compares where it should defer to ZoneEntry.may_contain.
_EDGE_INTS = [2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
_ints = st.one_of(st.integers(-20, 20), st.sampled_from(_EDGE_INTS))
_floats = st.one_of(
    st.sampled_from([-2.5, 0.0, 0.5, 3.0, 7.25, float(2**53)]),
    st.floats(-20, 20),
    st.just(float("nan")),
    st.just(float("inf")),
)
_strings = st.text(alphabet="abcxyz", max_size=3)


def _block(draw_kind, values):
    if draw_kind == "int":
        return np.array(values, dtype=np.int64)
    if draw_kind == "float":
        return np.array(values, dtype=np.float64)
    return np.array(values, dtype=object)


_typed_blocks = {
    "small int": st.lists(st.integers(-20, 20), min_size=1, max_size=4).map(
        lambda v: _block("int", v)
    ),
    "edge int": st.lists(_ints, min_size=1, max_size=3).map(
        lambda v: _block("int", v)
    ),
    "float": st.lists(_floats, min_size=1, max_size=3).map(
        lambda v: _block("float", v)
    ),
    "str": st.lists(_strings, min_size=1, max_size=3).map(
        lambda v: _block("obj", v)
    ),
}
_blocks = st.one_of(
    *_typed_blocks.values(),
    # Python ints past int64, mixed int/float, incomparable and empty.
    st.just(_block("obj", [1, 2**70])),
    st.just(_block("obj", [1, 2.5])),
    st.just(_block("obj", [1, "a"])),
    st.just(_block("obj", [True, False])),
    st.just(_block("int", [])),
)
# Zone maps of one column type take the array path; mixed ones do not.
_zone_maps = st.one_of(
    st.sampled_from(list(_typed_blocks.values())).flatmap(
        lambda blocks: st.lists(blocks, max_size=12)
    ),
    st.lists(_blocks, max_size=12),
)
_bound_values = st.one_of(
    st.none(), _ints, _floats, _strings, st.booleans(), st.just(2**70)
)
_bounds = st.builds(
    Bounds, _bound_values, _bound_values, st.booleans(), st.booleans()
)


class TestZoneMapVectorized:
    """``pruned_blocks`` answers with array comparisons where that is
    exact; it must agree with the per-entry ``may_contain`` rule on
    every block, bound type, endpoint strictness and truncation."""

    @staticmethod
    def per_entry(zm, bounds):
        return [not zm[i].may_contain(bounds) for i in range(len(zm))]

    @given(_zone_maps, st.lists(_bounds, min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_entry_oracle(self, blocks, bounds_list):
        zm = ZoneMap()
        for values in blocks:
            zm.append_block(values)
        for bounds in bounds_list:
            got = zm.pruned_blocks(bounds)
            assert got.dtype == bool and len(got) == len(blocks)
            assert got.tolist() == self.per_entry(zm, bounds)

    @given(_zone_maps, st.integers(0, 12), st.lists(_blocks, max_size=4), _bounds)
    @settings(max_examples=200, deadline=None)
    def test_truncate_then_append(self, blocks, keep, more, bounds):
        zm = ZoneMap()
        for values in blocks:
            zm.append_block(values)
        zm.pruned_blocks(bounds)  # builds the arrays before truncating
        zm.truncate(keep)
        for values in more:
            zm.append_block(values)
        assert len(zm) == min(keep, len(blocks)) + len(more)
        assert zm.pruned_blocks(bounds).tolist() == self.per_entry(zm, bounds)

    def test_examples(self):
        zm = ZoneMap()
        zm.append_block(np.array([0, 9]))
        zm.append_block(np.array([0.5, 1.5]))
        zm.append_block(np.array(["apple", "pear"], dtype=object))
        zm.append_block(np.array([], dtype=np.int64))
        assert zm.pruned_blocks(Bounds(hi=0, hi_strict=True)).tolist() == [
            True, True, False, False,
        ]
        assert zm.pruned_blocks(Bounds(hi=0)).tolist() == [
            False, True, False, False,
        ]
        # A string bound: numeric blocks cannot be ordered against it.
        assert zm.pruned_blocks(Bounds(lo="q")).tolist() == [
            False, False, True, False,
        ]
        assert zm.pruned_blocks(Bounds(lo=9.5)).tolist() == [
            True, True, False, False,
        ]

    def test_float_exactness_edges(self):
        """Every pairing of edge blocks and edge bounds, exhaustively:
        near 2**53 a float64 comparison rounds where Python's does not."""
        int_blocks = [[2**53 + 1], [2**53], [-(2**53) - 1], [2**63 - 1], [3, 9]]
        float_blocks = [[float(2**53)], [2.5, 7.0], [float("nan")]]
        edges = [
            None, float(2**53), 2**53 + 1, 2**53, 2.5, 3, float("nan"),
            float("inf"), 2**70, True, "a",
        ]
        zone_maps = [[b] for b in int_blocks] + [int_blocks]
        zone_maps += [[b] for b in float_blocks] + [float_blocks]
        for blocks in zone_maps:
            zm = ZoneMap()
            for values in blocks:
                dtype = np.int64 if isinstance(values[0], int) else np.float64
                zm.append_block(np.array(values, dtype=dtype))
            for lo in edges:
                for hi in edges:
                    for lo_strict in (False, True):
                        for hi_strict in (False, True):
                            bounds = Bounds(lo, hi, lo_strict, hi_strict)
                            assert zm.pruned_blocks(bounds).tolist() == (
                                self.per_entry(zm, bounds)
                            ), (blocks, bounds)

    def test_column_types_take_the_array_path(self):
        for values in ([3, 9], [0.5, 1.5], ["apple", "pear"]):
            zm = ZoneMap()
            zm.append_block(np.array(values, dtype=object))
            zm.append_block(np.array(values, dtype=object))
            assert zm.pruned_blocks(Bounds(lo=values[1])).tolist() == [
                False, False,
            ]
            assert zm._arrays, values
            # A side whose bound is of the other kind never prunes:
            # numbers cannot be ordered against strings.
            assert not zm.pruned_blocks(Bounds(lo="zz", hi=5)).any()


def make_column(values, rows_per_block=10, dtype=DataType.INT64):
    column = ColumnStore("t", 0, "c", dtype, rows_per_block)
    column.append(list(values), None)
    return column


class TestColumnStore:
    def test_sealing(self):
        column = make_column(range(25), rows_per_block=10)
        assert len(column.blocks) == 2
        assert column.num_sealed_rows == 20
        assert column.num_rows == 25
        assert column.num_blocks == 3  # 2 sealed + open tail

    def test_read_ranges_spanning_blocks_and_tail(self):
        column = make_column(range(25), rows_per_block=10)
        rms = ManagedStorage()
        values = column.read_ranges(RangeList([(5, 12), (18, 23)]), rms)
        assert values.tolist() == list(range(5, 12)) + list(range(18, 23))

    def test_tail_reads_do_not_count_blocks(self):
        column = make_column(range(25), rows_per_block=10)
        rms = ManagedStorage()
        column.read_ranges(RangeList([(21, 24)]), rms)
        assert rms.stats.blocks_accessed == 0

    def test_sealed_reads_count_blocks_once_per_call(self):
        column = make_column(range(30), rows_per_block=10)
        rms = ManagedStorage()
        column.read_ranges(RangeList([(0, 5), (7, 9)]), rms)  # both in block 0
        assert rms.stats.blocks_accessed == 1

    def test_read_all(self):
        column = make_column(range(15), rows_per_block=10)
        assert column.read_all(ManagedStorage()).tolist() == list(range(15))

    def test_string_column(self):
        column = make_column(
            ["a", "b", "c", "d"], rows_per_block=2, dtype=DataType.STRING
        )
        values = column.read_ranges(RangeList([(1, 4)]), ManagedStorage())
        assert values.tolist() == ["b", "c", "d"]

    def test_prunable_block_ranges(self):
        column = make_column(list(range(100)), rows_per_block=10)
        prunable = column.prunable_block_ranges(Bounds(35, 44))
        # Only blocks 3 ([30,40)) and 4 ([40,50)) may contain matches.
        assert prunable.complement(100).to_pairs() == [(30, 50)]

    def test_tail_never_pruned(self):
        column = make_column(list(range(15)), rows_per_block=10)
        prunable = column.prunable_block_ranges(Bounds(1000, 2000))
        assert prunable.to_pairs() == [(0, 10)]  # only the sealed block

    def test_rebuild(self):
        column = make_column(range(20), rows_per_block=10)
        column.rebuild(np.array([5, 6, 7]), None)
        assert column.num_rows == 3
        assert column.read_all(ManagedStorage()).tolist() == [5, 6, 7]

    def test_compressed_nbytes_positive(self):
        column = make_column(range(20), rows_per_block=10)
        assert column.compressed_nbytes > 0


class TestManagedStorage:
    def _block(self, values):
        from repro.storage.compression import choose_codec

        return choose_codec(np.asarray(values))

    def test_remote_then_local(self):
        rms = ManagedStorage()
        block = self._block([1, 2, 3])
        key = ("t", 0, "c", 0)
        rms.read_block(key, block)
        rms.read_block(key, block)
        assert rms.stats.remote_fetches == 1
        assert rms.stats.local_hits == 1
        assert rms.stats.blocks_accessed == 2

    def test_lru_eviction(self):
        rms = ManagedStorage(cache_capacity=2)
        blocks = {i: self._block([i]) for i in range(3)}
        for i in range(3):
            rms.read_block(("t", 0, "c", i), blocks[i])
        # Block 0 evicted; re-reading is a remote fetch again.
        rms.read_block(("t", 0, "c", 0), blocks[0])
        assert rms.stats.remote_fetches == 4

    def test_invalidate_table(self):
        rms = ManagedStorage()
        rms.read_block(("a", 0, "c", 0), self._block([1]))
        rms.read_block(("b", 0, "c", 0), self._block([2]))
        rms.invalidate_table("a")
        assert rms.cached_blocks == 1
        rms.read_block(("a", 0, "c", 0), self._block([1]))
        assert rms.stats.remote_fetches == 3

    def test_bytes_fetched(self):
        rms = ManagedStorage()
        block = self._block(np.arange(100))
        rms.read_block(("t", 0, "c", 0), block)
        assert rms.stats.bytes_fetched == block.nbytes

    def test_stats_delta(self):
        rms = ManagedStorage()
        rms.read_block(("t", 0, "c", 0), self._block([1]))
        before = rms.stats.snapshot()
        rms.read_block(("t", 0, "c", 0), self._block([1]))
        delta = rms.stats.delta(before)
        assert delta.local_hits == 1
        assert delta.remote_fetches == 0


class TestBatchedReads:
    """``read_blocks`` must be indistinguishable from a ``read_block`` loop."""

    KEYS = [("t", 1, "c", i) for i in range(8)]
    WARM = (1, 2, 5, 6)  # cached before the batch; the rest miss

    def _blocks(self):
        from repro.storage.compression import choose_codec

        return [choose_codec(np.arange(10, dtype=np.int64) * 10 + i) for i in range(8)]

    def _storage(self, blocks, cache_capacity=5):
        rms = ManagedStorage(cache_capacity=cache_capacity)
        for i in self.WARM:
            rms.read_block(self.KEYS[i], blocks[i])
        return rms

    def _run(self, rms, blocks, batched):
        """One phased read of every key under a bound query context."""
        query = rms.begin_query()
        phase = rms.begin_scan_phase()
        values, error = None, None
        try:
            if batched:
                values = rms.read_blocks(self.KEYS, blocks)
            else:
                values = [rms.read_block(k, b) for k, b in zip(self.KEYS, blocks)]
        except Exception as exc:  # compared, not swallowed
            error = exc
        log = {slice_id: list(keys) for slice_id, keys in phase.accesses.items()}
        counts = rms.end_scan_phase()
        rms.end_query(query)
        return {
            "values": values,
            "error": (type(error), str(error)) if error else None,
            "stats": vars(rms.stats),
            "query_stats": vars(query.stats),
            "log": log,
            "counts": counts,
            "lru": list(rms._cache),
        }

    def test_matches_per_block_loop(self):
        blocks = self._blocks()
        batched = self._run(self._storage(blocks), blocks, batched=True)
        looped = self._run(self._storage(blocks), blocks, batched=False)
        assert batched["error"] is None and looped["error"] is None
        assert len(batched["values"]) == len(looped["values"]) == 8
        for got, want in zip(batched["values"], looped["values"]):
            assert np.array_equal(got, want)
        for name in ("stats", "query_stats", "log", "counts", "lru"):
            assert batched[name] == looped[name], name
        assert batched["query_stats"]["local_hits"] == len(self.WARM)
        assert batched["query_stats"]["remote_fetches"] == 8 - len(self.WARM)
        assert batched["log"] == {1: self.KEYS}
        # Capacity 5: the settle evicted the coldest of the 8 touched blocks.
        assert len(batched["lru"]) == 5

    def test_outside_a_phase_matches_per_block_loop(self):
        blocks = self._blocks()
        batched, looped = self._storage(blocks), self._storage(blocks)
        got = batched.read_blocks(self.KEYS, blocks)
        want = [looped.read_block(k, b) for k, b in zip(self.KEYS, blocks)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert vars(batched.stats) == vars(looped.stats)
        assert list(batched._cache) == list(looped._cache)

    def test_fault_mid_batch_matches_per_block_loop(self):
        from repro.faults import FaultInjector, RetryPolicy, TransientStorageError

        blocks = self._blocks()
        outcomes, injectors = [], []
        for batched in (True, False):
            rms = self._storage(blocks)
            # Draw 0 is block 0's clean fetch; draws 1-4 fail every
            # attempt at block 3 (the second miss), mid-batch.
            injector = FaultInjector(
                seed=3, schedule={1: "error", 2: "error", 3: "error", 4: "error"}
            )
            rms.attach_faults(injector, RetryPolicy(max_attempts=4))
            outcomes.append(self._run(rms, blocks, batched))
            injectors.append(injector)
        batched, looped = outcomes
        assert batched["error"] is not None
        assert batched["error"][0] is TransientStorageError
        for name in ("error", "stats", "query_stats", "log", "counts", "lru"):
            assert batched[name] == looped[name], name
        # Blocks 1-2 hit, block 0 fetched, block 3 failed: 4 keys logged.
        assert batched["log"] == {1: self.KEYS[:4]}
        assert batched["query_stats"]["local_hits"] == 2
        assert batched["query_stats"]["remote_fetches"] == 1
        assert batched["query_stats"]["transient_errors"] == 4
        assert injectors[0].reads_seen == injectors[1].reads_seen == 5
        assert injectors[0].errors_injected == injectors[1].errors_injected

    def test_concurrent_batches_lose_no_counts(self):
        """Threads batch-reading overlapping blocks under their own phase
        and query context: every read is counted once, globally and in
        exactly one query sink."""
        import sys
        import threading

        blocks = self._blocks()
        rms = ManagedStorage(cache_capacity=3)
        sinks, errors = [], []

        def worker(seed):
            try:
                order = np.random.default_rng(seed).permutation(8).tolist()
                for _ in range(40):
                    query = rms.begin_query()
                    rms.begin_scan_phase()
                    try:
                        rms.read_blocks(
                            [self.KEYS[i] for i in order], [blocks[i] for i in order]
                        )
                    finally:
                        rms.end_scan_phase()
                        rms.end_query(query)
                    sinks.append(query.stats)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(sinks) == 6 * 40
        assert rms.stats.blocks_accessed == 6 * 40 * 8
        for name in ("local_hits", "remote_fetches", "bytes_fetched"):
            assert getattr(rms.stats, name) == sum(getattr(s, name) for s in sinks)
        assert rms.cached_blocks <= 3
