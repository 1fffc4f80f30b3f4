"""The PredicateCache: keys, lookups, invalidation, eviction (§4)."""

import dataclasses

import pytest

from repro.core import (
    PredicateCache,
    PredicateCacheConfig,
    RangeList,
    ScanKey,
    SemiJoinDescriptor,
)


def make_cache(**kwargs):
    return PredicateCache(PredicateCacheConfig(**kwargs))


class TestKeys:
    def test_plain_key_equality(self):
        assert ScanKey("t", "x = 1") == ScanKey("t", "x = 1")
        assert ScanKey("t", "x = 1") != ScanKey("t", "x = 2")
        assert ScanKey("a", "x = 1") != ScanKey("b", "x = 1")

    def test_semijoin_order_is_canonical(self):
        s1 = SemiJoinDescriptor("a = b", "dim1")
        s2 = SemiJoinDescriptor("c = d", "dim2")
        assert ScanKey("t", "TRUE", (s1, s2)) == ScanKey("t", "TRUE", (s2, s1))

    def test_referenced_tables_recursive(self):
        inner = SemiJoinDescriptor("x = y", "region")
        outer = SemiJoinDescriptor("a = b", "nation", "TRUE", (inner,))
        key = ScanKey("supplier", "TRUE", (outer,))
        assert key.referenced_tables() == frozenset({"nation", "region"})

    def test_base_key_strips_joins(self):
        key = ScanKey("t", "x = 1", (SemiJoinDescriptor("a = b", "d"),))
        assert key.base_key() == ScanKey("t", "x = 1")
        assert key.is_join_key and not key.base_key().is_join_key

    def test_key_text_mirrors_paper_layout(self):
        descriptor = SemiJoinDescriptor(
            "l_orderkey = o_orderkey",
            "orders",
            "o_orderdate BETWEEN 9131 AND 9161",
        )
        text = ScanKey("lineitem", "l_discount = 0.1", (descriptor,)).key()
        assert "table=orders" in text
        assert "l_orderkey = o_orderkey" in text


class TestLookupAndInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        key = ScanKey("t", "x = 1")
        assert cache.lookup(key) is None
        entry = cache.get_or_create(key, num_slices=2)
        cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 100)
        found = cache.lookup(key)
        assert found is entry
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_get_or_create_is_idempotent(self):
        cache = make_cache()
        key = ScanKey("t", "x = 1")
        assert cache.get_or_create(key, 1) is cache.get_or_create(key, 1)
        assert cache.stats.inserts == 1

    def test_record_extends_existing_slice(self):
        cache = make_cache(variant="range")
        entry = cache.get_or_create(ScanKey("t", "x = 1"), 1)
        cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 100)
        cache.record_slice_scan(entry, 0, RangeList([(100, 110)]), 200)
        assert cache.stats.extensions == 1
        assert entry.slice_states[0].last_cached_row == 200

    def test_select_entry_prefers_most_selective(self):
        cache = make_cache()
        plain = cache.get_or_create(ScanKey("t", "x = 1"), 1)
        plain.record_scan_stats(500, 1000)
        join_key = ScanKey("t", "x = 1", (SemiJoinDescriptor("a = b", "d"),))
        join = cache.get_or_create(join_key, 1)
        join.record_scan_stats(10, 1000)
        chosen = cache.select_entry([join_key, ScanKey("t", "x = 1")])
        assert chosen is join

    def test_select_entry_falls_back_to_plain(self):
        cache = make_cache()
        plain_key = ScanKey("t", "x = 1")
        plain = cache.get_or_create(plain_key, 1)
        join_key = ScanKey("t", "x = 1", (SemiJoinDescriptor("a = b", "d"),))
        assert cache.select_entry([join_key, plain_key]) is plain

    def test_select_entry_counts_one_lookup(self):
        cache = make_cache()
        cache.select_entry([ScanKey("t", "a"), ScanKey("t", "b")])
        assert cache.stats.lookups == 1
        assert cache.stats.misses == 1


class TestInvalidation:
    def test_layout_invalidation_drops_table_entries(self):
        cache = make_cache()
        cache.get_or_create(ScanKey("t", "x = 1"), 1)
        cache.get_or_create(ScanKey("u", "y = 2"), 1)
        assert cache.invalidate_table("t") == 1
        assert ScanKey("t", "x = 1") not in cache
        assert ScanKey("u", "y = 2") in cache

    def test_build_side_invalidation_spares_plain_entries(self):
        cache = make_cache()
        plain = ScanKey("fact", "x = 1")
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("a = b", "dim"),))
        cache.get_or_create(plain, 1)
        cache.get_or_create(join, 1, {"dim": 3})
        assert cache.invalidate_build_side("dim") == 1
        assert plain in cache
        assert join not in cache

    def test_stale_version_rejected_at_lookup(self):
        cache = make_cache()
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("a = b", "dim"),))
        cache.get_or_create(join, 1, {"dim": 3})
        assert cache.lookup(join, {"dim": 4}) is None
        assert cache.stats.stale_rejections == 1
        assert join not in cache

    def test_matching_version_accepted(self):
        cache = make_cache()
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("a = b", "dim"),))
        cache.get_or_create(join, 1, {"dim": 3})
        assert cache.lookup(join, {"dim": 3}) is not None

    def test_table_events_wire_invalidation(self):
        from repro.storage import ColumnSpec, Database, DataType, TableSchema

        db = Database(num_slices=1)
        db.create_table(TableSchema("fact", (ColumnSpec("x", DataType.INT64),)))
        db.create_table(TableSchema("dim", (ColumnSpec("y", DataType.INT64),)))
        cache = make_cache()
        cache.watch_table(db.table("fact"))
        cache.watch_table(db.table("dim"))
        plain = ScanKey("fact", "x = 1")
        join = ScanKey("fact", "x = 1", (SemiJoinDescriptor("x = y", "dim"),))
        cache.get_or_create(plain, 1)
        cache.get_or_create(join, 1, {"dim": 0})
        # DML on dim kills the join entry, keeps the plain one (§4.4).
        db.table("dim").insert({"y": [1]}, db.begin())
        assert plain in cache and join not in cache
        # Vacuum-like layout change on fact kills everything on fact.
        db.table("fact").insert({"x": [1]}, db.begin())
        deleted = db.table("fact").delete_local_rows(0, [0], db.begin())
        assert deleted == 1
        db.table("fact").vacuum(db.horizon_txid)
        assert plain not in cache


class TestEviction:
    def test_entry_count_lru(self):
        cache = make_cache(max_entries=2)
        keys = [ScanKey("t", f"x = {i}") for i in range(3)]
        for key in keys:
            cache.get_or_create(key, 1)
        assert keys[0] not in cache
        assert keys[1] in cache and keys[2] in cache
        assert cache.stats.evictions == 1

    def test_lookup_refreshes_lru_position(self):
        cache = make_cache(max_entries=2)
        a, b, c = (ScanKey("t", f"x = {i}") for i in range(3))
        cache.get_or_create(a, 1)
        cache.get_or_create(b, 1)
        cache.lookup(a)  # refresh a
        cache.get_or_create(c, 1)
        assert a in cache and b not in cache

    def test_byte_budget(self):
        cache = make_cache(max_bytes=100, variant="range")
        for i in range(10):
            entry = cache.get_or_create(ScanKey("t", f"x = {i}"), 1)
            cache.record_slice_scan(entry, 0, RangeList([(0, 5)]), 100)
            cache._evict_if_needed()
        assert cache.total_nbytes <= 100 or len(cache) == 1

    def test_join_keys_disabled_by_config(self):
        cache = make_cache(cache_join_keys=False)
        join = ScanKey("t", "x", (SemiJoinDescriptor("a = b", "d"),))
        with pytest.raises(ValueError):
            cache.get_or_create(join, 1)


class TestRunningByteTotal:
    """``total_nbytes`` is a running total; it must equal the re-summed
    payload after every kind of mutation, for both variants."""

    @staticmethod
    def check(cache):
        assert cache.total_nbytes == sum(e.nbytes for e in cache.entries())

    @pytest.mark.parametrize("variant", ["range", "bitmap"])
    def test_tracks_every_mutation(self, variant):
        cache = make_cache(
            variant=variant, max_bytes=400, max_ranges_per_slice=4, bitmap_block_rows=8
        )
        check = self.check
        dim = SemiJoinDescriptor("a = b", "dim")
        # Installs: fresh states in several slices of several entries.
        entries = []
        for i in range(3):
            entry = cache.get_or_create(ScanKey("t", f"x = {i}"), 2)
            cache.record_slice_scan(entry, 0, RangeList([(0, 5), (9, 12)]), 40)
            check(cache)
            cache.record_slice_scan(entry, 1, RangeList([(3, 4)]), 40)
            check(cache)
            entries.append(entry)
        join = cache.get_or_create(ScanKey("t", "x = 0", (dim,)), 2, {"dim": 1})
        cache.record_slice_scan(join, 0, RangeList([(1, 2)]), 40)
        check(cache)
        # Extensions over appended tails grow (or coalesce) the states.
        for upto in (64, 200, 900):
            for entry in cache.entries():
                cache.record_slice_scan(
                    entry, 0, RangeList([(upto - 9, upto - 7), (upto - 3, upto)]), upto
                )
                check(cache)
        # Byte-budget evictions: many fragmented installs under 400 B.
        for i in range(3, 40):
            entry = cache.get_or_create(ScanKey("u", f"y = {i}"), 1)
            pieces = RangeList([(j * 16, j * 16 + 1) for j in range(i % 7 + 1)])
            cache.record_slice_scan(entry, 0, pieces, 200)
            check(cache)
        assert cache.stats.evictions > 0
        # Entry-count evictions.
        budget = cache.config
        cache.config = dataclasses.replace(budget, max_entries=3)
        cache.get_or_create(ScanKey("v", "z = 1"), 1)
        check(cache)
        assert len(cache) <= 3
        cache.config = budget
        # Invalidations.
        for i in range(3):
            entry = cache.get_or_create(ScanKey("t", f"x = {i}"), 2)
            cache.record_slice_scan(entry, 1, RangeList([(0, 2)]), 10)
        join = cache.get_or_create(ScanKey("u", "y = 1", (dim,)), 1, {"dim": 1})
        cache.record_slice_scan(join, 0, RangeList([(1, 2)]), 10)
        check(cache)
        assert cache.invalidate_build_side("dim") == 1
        check(cache)
        assert cache.invalidate_table("t") > 0
        check(cache)
        # Memory-pressure trim.
        for i in range(4):
            entry = cache.get_or_create(ScanKey("w", f"q = {i}"), 1)
            cache.record_slice_scan(entry, 0, RangeList([(0, 3), (8, 9)]), 30)
        before = cache.total_nbytes
        released = cache.trim_to_bytes(before // 3)
        assert released > 0 and cache.total_nbytes == before - released
        check(cache)
        # Restored installs, including one replacing a live entry.
        survivor = cache.entries()[-1]
        state = survivor.slice_states[0]
        cache.install_restored(ScanKey("r", "p = 1"), 1, {}, {0: state})
        check(cache)
        cache.install_restored(survivor.key, 1, {}, {})
        check(cache)
        cache.install_restored(survivor.key, 1, {}, {0: state})
        check(cache)
        # Drops of every entry.
        cache.clear()
        check(cache)
        assert cache.total_nbytes == 0

    # Budgets small enough to evict, large enough to keep entries that
    # later rounds extend.
    @pytest.mark.parametrize("variant,budget", [("range", 5500), ("bitmap", 150)])
    def test_tracks_engine_traffic(self, variant, budget):
        """Installs, extensions after appends, join entries, build-side
        DML and vacuum, driven through the engine's scan path."""
        import numpy as np

        from repro.engine import QueryEngine
        from repro.storage import ColumnSpec, Database, DataType, TableSchema

        db = Database(num_slices=2, rows_per_block=16)
        for name, columns in (("fact", ("x", "d")), ("dim", ("y", "g"))):
            specs = tuple(ColumnSpec(c, DataType.INT64) for c in columns)
            db.create_table(TableSchema(name, specs))
        cache = make_cache(variant=variant, max_bytes=budget, bitmap_block_rows=8)
        engine = QueryEngine(db, predicate_cache=cache)
        rng = np.random.default_rng(5)

        def load(n):
            engine.insert(
                "fact", {"x": rng.integers(0, 100, n), "d": rng.integers(0, 10, n)}
            )

        load(300)
        engine.insert("dim", {"y": np.arange(10), "g": np.arange(10) % 3})
        queries = [f"select count(*) from fact where x < {c}" for c in (5, 30, 60, 90)]
        queries.append(
            "select count(*) from fact, dim"
            " where fact.d = dim.y and dim.g = 1 and fact.x < 40"
        )
        for _ in range(3):
            for sql in queries:
                engine.execute(sql)
                self.check(cache)
            load(50)  # appended tails: the next round extends the entries
            self.check(cache)
        engine.insert("dim", {"y": [10], "g": [1]})  # build-side invalidation
        self.check(cache)
        engine.execute("delete from fact where x = 7")
        db.vacuum(["fact"])  # layout invalidation
        self.check(cache)
        for sql in queries:
            engine.execute(sql)
            self.check(cache)
        assert cache.total_nbytes > 0
        stats = cache.stats
        assert stats.extensions and stats.evictions and stats.invalidations


class TestConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            PredicateCacheConfig(variant="tree")

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            PredicateCacheConfig(max_ranges_per_slice=0)
        with pytest.raises(ValueError):
            PredicateCacheConfig(bitmap_block_rows=0)

    def test_stats_snapshot_delta(self):
        cache = make_cache()
        cache.lookup(ScanKey("t", "x"))
        before = cache.stats.snapshot()
        cache.lookup(ScanKey("t", "x"))
        delta = cache.stats.delta(before)
        assert delta.lookups == 1
