"""Tables: distribution, MVCC visibility, vacuum, change events."""

import numpy as np
import pytest

from repro.core.rowrange import RangeList
from repro.storage import ColumnSpec, Database, DataType, TableSchema


def make_db(num_slices=2, rows_per_block=10):
    db = Database(num_slices=num_slices, rows_per_block=rows_per_block)
    db.create_table(
        TableSchema(
            "t",
            (
                ColumnSpec("k", DataType.INT64),
                ColumnSpec("v", DataType.FLOAT64),
            ),
        )
    )
    return db


class TestSchema:
    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (ColumnSpec("a", DataType.INT64), ColumnSpec("a", DataType.INT64)),
            )

    def test_rejects_unknown_dist_key(self):
        with pytest.raises(ValueError):
            TableSchema("t", (ColumnSpec("a", DataType.INT64),), dist_key="b")

    def test_dtype_of(self):
        schema = TableSchema("t", (ColumnSpec("a", DataType.DATE),))
        assert schema.dtype_of("a") is DataType.DATE
        with pytest.raises(KeyError):
            schema.dtype_of("z")


class TestInsertAndDistribution:
    def test_round_robin_covers_all_slices(self):
        db = make_db(num_slices=4)
        table = db.table("t")
        table.insert({"k": np.arange(100), "v": np.zeros(100)}, db.begin())
        assert all(s.num_rows == 25 for s in table.slices)

    def test_hash_distribution_is_stable(self):
        db = Database(num_slices=4)
        db.create_table(
            TableSchema(
                "h",
                (ColumnSpec("k", DataType.INT64), ColumnSpec("v", DataType.INT64)),
                dist_key="k",
            )
        )
        table = db.table("h")
        table.insert({"k": np.arange(50), "v": np.zeros(50)}, db.begin())
        table.insert({"k": np.arange(50), "v": np.ones(50)}, db.begin())
        # Same key -> same slice: every slice's key set is duplicated.
        for s in table.slices:
            keys = s.columns["k"].read_all(table.rms)
            unique, counts = np.unique(keys, return_counts=True)
            assert (counts == 2).all()

    def test_insert_missing_column_raises(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.table("t").insert({"k": [1]}, db.begin())

    def test_insert_bumps_data_version_only(self):
        db = make_db()
        table = db.table("t")
        v_data, v_layout = table.data_version, table.layout_version
        table.insert({"k": [1], "v": [1.0]}, db.begin())
        assert table.data_version == v_data + 1
        assert table.layout_version == v_layout


class TestMVCC:
    def test_snapshot_isolation_of_inserts(self):
        db = make_db()
        table = db.table("t")
        tx1 = db.begin()
        table.insert({"k": [1, 2], "v": [0.0, 0.0]}, tx1)
        read_old = tx1 - 1
        assert table.visible_row_count(read_old) == 0
        assert table.visible_row_count(tx1) == 2

    def test_delete_hides_rows_from_later_snapshots(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(10), "v": np.zeros(10)}, db.begin())
        del_tx = db.begin()
        table.delete_local_rows(0, np.array([0, 1, 2]), del_tx)
        assert table.visible_row_count(db.begin()) == 7
        # A snapshot before the delete still sees all rows.
        assert table.visible_row_count(del_tx - 1) == 10

    def test_double_delete_is_idempotent(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(5), "v": np.zeros(5)}, db.begin())
        assert table.delete_local_rows(0, np.array([1]), db.begin()) == 1
        assert table.delete_local_rows(0, np.array([1]), db.begin()) == 0

    def test_visibility_mask(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(6), "v": np.zeros(6)}, db.begin())
        table.delete_local_rows(0, np.array([2, 3]), db.begin())
        mask = table.slices[0].visibility_mask(RangeList.full(6), db.begin())
        assert mask.tolist() == [True, True, False, False, True, True]


class TestVacuum:
    def test_vacuum_reclaims_and_renumbers(self):
        db = make_db(num_slices=1, rows_per_block=4)
        table = db.table("t")
        table.insert({"k": np.arange(10), "v": np.zeros(10)}, db.begin())
        table.delete_local_rows(0, np.array([0, 5]), db.begin())
        assert table.vacuum(db.horizon_txid)
        assert table.num_rows == 8
        kept = table.read_column_all("k")
        assert kept.tolist() == [1, 2, 3, 4, 6, 7, 8, 9]

    def test_vacuum_without_dead_rows_is_noop(self):
        db = make_db()
        table = db.table("t")
        table.insert({"k": [1], "v": [1.0]}, db.begin())
        assert not table.vacuum(db.horizon_txid)

    def test_vacuum_fires_layout_event(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        events = []
        table.on_change(lambda t, e: events.append(e))
        table.insert({"k": np.arange(5), "v": np.zeros(5)}, db.begin())
        table.delete_local_rows(0, np.array([0]), db.begin())
        table.vacuum(db.horizon_txid)
        assert "layout" in events

    def test_vacuum_preserves_visible_data_across_blocks(self):
        db = make_db(num_slices=2, rows_per_block=3)
        table = db.table("t")
        table.insert({"k": np.arange(40), "v": np.arange(40) * 1.5}, db.begin())
        # Delete every fourth row, per slice.
        tx = db.begin()
        for slice_id, s in enumerate(table.slices):
            keys = s.columns["k"].read_all(table.rms)
            doomed = np.flatnonzero(keys % 4 == 0)
            table.delete_local_rows(slice_id, doomed, tx)
        survivors_before = sorted(
            int(k)
            for k in table.read_column_all("k")
            if k % 4 != 0
        )
        table.vacuum(db.horizon_txid)
        assert sorted(table.read_column_all("k").tolist()) == survivors_before


class TestDatabase:
    def test_create_and_drop(self):
        db = make_db()
        assert "t" in db
        db.drop_table("t")
        assert "t" not in db
        with pytest.raises(KeyError):
            db.table("t")

    def test_duplicate_create_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.create_table(TableSchema("t", (ColumnSpec("x", DataType.INT64),)))

    def test_txids_are_monotonic(self):
        db = make_db()
        assert db.begin() < db.begin() < db.begin()

    def test_reorganize_fires_layout_event_and_reorders(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.array([3, 1, 2]), "v": np.zeros(3)}, db.begin())
        events = []
        table.on_change(lambda t, e: events.append(e))
        table.reorganize(
            lambda t: [np.argsort(s.columns["k"].read_all(t.rms)) for s in t.slices]
        )
        assert table.read_column_all("k").tolist() == [1, 2, 3]
        assert "layout" in events


def reference_mask(data_slice, rows, txid):
    """Visibility from the full xmin/xmax computation, no fast path."""
    xmin = data_slice._xmin.values[rows]
    xmax = data_slice._xmax.values[rows]
    return (xmin <= txid) & (xmax > txid)


def assert_masks_match(table, txids):
    """Every slice's mask equals the reference, for whole and partial
    ranges, with and without precomputed row ids."""
    for data_slice in table.slices:
        n = data_slice.num_rows
        for ranges in (RangeList.full(n), RangeList([(1, 3), (5, n)])):
            ranges = ranges.clip(0, n)
            rows = ranges.to_row_ids()
            for txid in txids:
                expected = reference_mask(data_slice, rows, txid)
                got = data_slice.visibility_mask(ranges, txid)
                assert got.dtype == bool
                assert got.tolist() == expected.tolist()
                with_rows = data_slice.visibility_mask(ranges, txid, rows)
                assert with_rows.tolist() == expected.tolist()


class TestAllVisibleFastPath:
    def test_append_only_slice_skips_mvcc_columns(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(8), "v": np.zeros(8)}, db.begin())
        data_slice = table.slices[0]
        # The xmin/xmax gathers are not reached on the fast path.
        data_slice._xmin = data_slice._xmax = None
        assert data_slice.visibility_mask(RangeList.full(8), db.begin()).all()

    def test_reader_older_than_newest_append(self):
        db = make_db()
        table = db.table("t")
        tx1 = db.begin()
        table.insert({"k": np.arange(12), "v": np.zeros(12)}, tx1)
        tx2 = db.begin()
        table.insert({"k": np.arange(12), "v": np.ones(12)}, tx2)
        assert_masks_match(table, [tx1 - 1, tx1, tx2 - 1, tx2, db.begin()])
        # The older reader does not see the second batch.
        assert not table.slices[0].visibility_mask(
            RangeList.full(table.slices[0].num_rows), tx1
        ).all()

    def test_delete_newer_than_reader(self):
        db = make_db(num_slices=1)
        table = db.table("t")
        table.insert({"k": np.arange(10), "v": np.zeros(10)}, db.begin())
        reader = db.begin()
        delete_tx = db.begin()
        table.delete_local_rows(0, np.array([2, 7]), delete_tx)
        assert_masks_match(table, [reader, delete_tx, db.begin()])
        assert table.slices[0].visibility_mask(RangeList.full(10), reader).all()

    def test_after_update(self):
        from repro.engine import QueryEngine

        db = make_db()
        table = db.table("t")
        engine = QueryEngine(db)
        engine.insert("t", {"k": np.arange(20), "v": np.zeros(20)})
        before = db.current_txid
        engine.execute("update t set v = 1.0 where k < 5")
        assert_masks_match(table, [before, db.current_txid, db.begin()])

    def test_after_vacuum(self):
        db = make_db(num_slices=1, rows_per_block=4)
        table = db.table("t")
        table.insert({"k": np.arange(12), "v": np.zeros(12)}, db.begin())
        early = db.begin()
        table.delete_local_rows(0, np.array([0, 1]), early)
        late = db.begin()
        table.delete_local_rows(0, np.array([6]), late)
        # Reclaims the early deletes only: row 6's stamp survives.
        assert table.vacuum(late)
        assert_masks_match(table, [early, late - 1, late, db.begin()])
        assert table.vacuum(db.horizon_txid)
        assert_masks_match(table, [early, late, db.begin()])
        data_slice = table.slices[0]
        data_slice._xmin = data_slice._xmax = None
        assert data_slice.visibility_mask(RangeList.full(9), db.begin()).all()

    def test_after_reorganize(self):
        db = make_db(num_slices=1, rows_per_block=4)
        table = db.table("t")
        first = db.begin()
        table.insert({"k": np.arange(10), "v": np.zeros(10)}, first)
        second = db.begin()
        table.insert({"k": np.arange(10, 14), "v": np.zeros(4)}, second)
        deleted = db.begin()
        table.delete_local_rows(0, np.array([3]), deleted)
        table.reorganize(lambda t: [np.arange(t.slices[0].num_rows)[::-1]])
        assert table.read_column_all("k").tolist() == list(range(13, -1, -1))
        assert_masks_match(table, [first, second, deleted - 1, deleted, db.begin()])
