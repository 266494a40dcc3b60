"""Relation store: CSV loading, interning, batching, and the cell lifecycle."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from increpair.errors import DataError
from increpair.relation import (
    NULL_ID,
    CellRef,
    CellStatus,
    RawBatch,
    RelationStore,
    Schema,
    ValueInterner,
    load_csv,
    make_batches,
)

from conftest import build_store, failing_writes


class TestSchema:
    def test_needs_two_attributes(self):
        with pytest.raises(DataError):
            Schema(("only",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            Schema(("a", "b", "a"))

    def test_index_of(self):
        schema = Schema(("x", "y"))
        assert schema.index_of("y") == 1
        with pytest.raises(DataError):
            schema.index_of("z")


class TestInterner:
    def test_null_is_id_zero(self):
        interner = ValueInterner(2)
        assert interner.intern(0, None) == NULL_ID
        assert interner.resolve(0, NULL_ID) == ""

    def test_ids_are_dense_and_per_attribute(self):
        interner = ValueInterner(2)
        assert interner.intern(0, "a") == 1
        assert interner.intern(0, "b") == 2
        assert interner.intern(0, "a") == 1
        assert interner.intern(1, "a") == 1  # independent namespace

    def test_lookup_without_interning(self):
        interner = ValueInterner(1)
        interner.intern(0, "a")
        assert interner.lookup(0, "a") == 1
        assert interner.lookup(0, "zzz") is None
        assert interner.lookup(0, None) == NULL_ID

    def test_resolve_unknown_id(self):
        with pytest.raises(DataError):
            ValueInterner(1).resolve(0, 5)

    @given(st.lists(st.text(min_size=1), max_size=30))
    def test_intern_round_trips(self, values):
        interner = ValueInterner(1)
        ids = [interner.intern(0, v) for v in values]
        assert [interner.resolve(0, i) for i in ids] == values


class TestLoadCsv:
    def test_parses_and_nullifies(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n x , NULL \nv,empty\n,\n")
        schema, rows = load_csv(path)
        assert schema.attributes == ("a", "b")
        assert rows == [["x", None], ["v", None], [None, None]]

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nok,fine\nonly-one\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_custom_null_tokens(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nNULL,??\n")
        _, rows = load_csv(path, null_tokens={"??"})
        assert rows == [["NULL", None]]


class TestMakeBatches:
    def test_count_split_earlier_batches_larger(self):
        rows = [(str(i), "x") for i in range(10)]
        batches = make_batches(rows, count=3)
        assert [b.cardinality for b in batches] == [4, 3, 3]
        assert [b.k for b in batches] == [1, 2, 3]
        assert batches[0].rows[0] == ("0", "x")
        assert batches[2].rows[-1] == ("9", "x")

    def test_size_split_last_short(self):
        rows = [(str(i), "x") for i in range(7)]
        batches = make_batches(rows, size=3)
        assert [b.cardinality for b in batches] == [3, 3, 1]

    def test_exactly_one_mode(self):
        rows = [("a", "b")]
        with pytest.raises(DataError):
            make_batches(rows)
        with pytest.raises(DataError):
            make_batches(rows, count=1, size=1)

    def test_bad_parameters(self):
        rows = [("a", "b"), ("c", "d")]
        with pytest.raises(DataError):
            make_batches(rows, count=3)
        with pytest.raises(DataError):
            make_batches(rows, count=0)
        with pytest.raises(DataError):
            make_batches(rows, size=0)
        with pytest.raises(DataError):
            make_batches([], count=1)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_count_split_partitions_in_order(self, n, count):
        rows = [(str(i), "x") for i in range(n)]
        if count > n:
            with pytest.raises(DataError):
                make_batches(rows, count=count)
            return
        batches = make_batches(rows, count=count)
        sizes = [b.cardinality for b in batches]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        flattened = [row for b in batches for row in b.rows]
        assert flattened == [tuple(r) for r in rows]


class TestStoreLifecycle:
    def test_append_enforces_batch_order(self):
        store = RelationStore(Schema(("a", "b")))
        store.append_batch(RawBatch(1, (("x", "y"),)))
        with pytest.raises(DataError):
            store.append_batch(RawBatch(3, (("x", "y"),)))

    def test_append_rejects_ragged_rows(self):
        store = RelationStore(Schema(("a", "b")))
        with pytest.raises(DataError):
            store.append_batch(RawBatch(1, (("x",),)))

    def test_batch_tids(self):
        store = RelationStore(Schema(("a", "b")))
        store.append_batch(RawBatch(1, (("x", "y"), ("u", "v"))))
        store.append_batch(RawBatch(2, (("p", "q"),)))
        assert store.batch_tids(1) == range(0, 2)
        assert store.batch_tids(2) == range(2, 3)
        with pytest.raises(DataError):
            store.batch_tids(3)

    def test_values_and_canonical(self):
        store = build_store([("x", None)], ("a", "b"))
        assert store.value(0, 1) == NULL_ID
        assert store.canonical(0, 0) == "x"
        assert store.canonical(0, 1) is None
        assert store.display(0, 1) == ""

    def test_mark_dirty_counts_new_flags_only(self):
        store = build_store([("x", "y")], ("a", "b"))
        cell = CellRef(0, 0)
        assert store.mark_dirty([cell]) == 1
        assert store.mark_dirty([cell]) == 0
        assert store.status(0, 0) is CellStatus.DIRTY

    def test_mark_dirty_validates_range(self):
        store = build_store([("x", "y")], ("a", "b"))
        with pytest.raises(DataError):
            store.mark_dirty([CellRef(5, 0)])

    def test_repair_requires_dirty(self):
        store = build_store([("x", "y")], ("a", "b"))
        with pytest.raises(DataError, match="only Dirty"):
            store.apply_repairs([(CellRef(0, 0), 1)])

    def test_repair_changes_value_and_status(self):
        store = build_store([("x", "y"), ("z", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0)])
        changed = store.apply_repairs([(CellRef(0, 0), store.interner.lookup(0, "z"))])
        assert changed == 1
        assert store.canonical(0, 0) == "z"
        assert store.status(0, 0) is CellStatus.REPAIRED
        assert store.original_canonical(0, 0) == "x"
        assert store.to_dict()["original"] == [[0, 0, store.interner.lookup(0, "x")]]

    def test_unchanged_repair_still_marks_repaired(self):
        store = build_store([("x", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0)])
        changed = store.apply_repairs([(CellRef(0, 0), store.value(0, 0))])
        assert changed == 0
        assert store.status(0, 0) is CellStatus.REPAIRED

    def test_first_original_survives_reflag_and_second_repair(self):
        store = build_store([("x", "y"), ("z", "y"), ("w", "y")], ("a", "b"))
        cell = CellRef(0, 0)
        store.mark_dirty([cell])
        store.apply_repairs([(cell, store.interner.lookup(0, "z"))])
        store.mark_dirty([cell])  # a revisiting strategy re-flags it
        assert store.status(0, 0) is CellStatus.DIRTY
        store.apply_repairs([(cell, store.interner.lookup(0, "w"))])
        assert store.canonical(0, 0) == "w"
        assert store.original_canonical(0, 0) == "x"

    def test_repair_validates_value_id(self):
        store = build_store([("x", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0)])
        with pytest.raises(DataError):
            store.apply_repairs([(CellRef(0, 0), 99)])

    def test_reset_dirty_spares_repaired(self):
        store = build_store([("x", "y"), ("z", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0), CellRef(1, 0)])
        store.apply_repairs([(CellRef(0, 0), store.interner.lookup(0, "z"))])
        assert store.reset_dirty() == 1
        assert store.status(0, 0) is CellStatus.REPAIRED
        assert store.status(1, 0) is CellStatus.CLEAN

    def test_dirty_cells_sorted_and_scoped(self):
        store = build_store([("x", "y"), ("z", "w")], ("a", "b"))
        store.mark_dirty([CellRef(1, 1), CellRef(0, 0), CellRef(1, 0)])
        assert store.dirty_cells() == [CellRef(0, 0), CellRef(1, 0), CellRef(1, 1)]
        assert store.dirty_cells([1]) == [CellRef(1, 0), CellRef(1, 1)]

    def test_trainable_excludes_dirty_only(self):
        store = build_store([("x", "y"), ("z", "w"), ("u", "v")], ("a", "b"))
        store.mark_dirty([CellRef(1, 0), CellRef(2, 0)])
        store.apply_repairs([(CellRef(2, 0), store.value(2, 0))])
        assert store.trainable_tids(0) == [0, 2]
        assert store.trainable_tids(1) == [0, 1, 2]
        assert store.trainable_tids(0, [1, 2]) == [2]

    def test_mark_dirty_sets_status_per_cell(self):
        store = build_store([("x", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 1)])
        assert [store.status(0, attr) for attr in range(2)] == [
            CellStatus.CLEAN,
            CellStatus.DIRTY,
        ]


class TestExportAndSerialization:
    def test_export_round_trips_through_load(self, tmp_path):
        store = build_store([("x", None), ("He, llo", "y")], ("a", "b"))
        path = tmp_path / "out.csv"
        store.export_csv(path)
        schema, rows = load_csv(path)
        assert schema == store.schema
        assert rows == [["x", None], ["He, llo", "y"]]

    def test_failed_export_keeps_previous_file(self, tmp_path, monkeypatch):
        store = build_store([("x", "y")], ("a", "b"))
        path = tmp_path / "out.csv"
        store.export_csv(path)
        before = path.read_bytes()
        store.append_batch(RawBatch(2, tuple(("z", f"w{i}") for i in range(50))))
        failing_writes(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            store.export_csv(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_dict_round_trip_preserves_everything(self):
        store = build_store([("x", "y"), ("z", "w")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0), CellRef(1, 1)])
        store.apply_repairs([(CellRef(0, 0), store.interner.lookup(0, "z"))])
        clone = RelationStore.from_dict(store.to_dict())
        assert clone.schema == store.schema
        assert clone.n_tuples == store.n_tuples
        for tid in range(store.n_tuples):
            for attr in range(store.n_attrs):
                assert clone.value(tid, attr) == store.value(tid, attr)
                assert clone.status(tid, attr) == store.status(tid, attr)
                assert clone.original_value(tid, attr) == store.original_value(tid, attr)
        assert clone.batch_tids(1) == store.batch_tids(1)

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=4)),
            min_size=1,
            max_size=12,
        )
    )
    def test_dict_round_trip_any_rows(self, rows):
        store = build_store(rows, ("a", "b"), null_tokens=())
        clone = RelationStore.from_dict(store.to_dict())
        current = [
            [clone.canonical(tid, attr) for attr in range(2)] for tid in range(clone.n_tuples)
        ]
        assert current == [[r[0], r[1]] for r in rows]


def scanned_dirty(store, tids=None):
    """Dirty cells found by reading every status byte, the reference for the index."""
    scope = range(store.n_tuples) if tids is None else sorted(set(tids))
    return [
        CellRef(tid, attr)
        for tid in scope
        for attr in range(store.n_attrs)
        if store.status(tid, attr) is CellStatus.DIRTY
    ]


def check_dirty_index(store, tids):
    assert store.dirty_cells() == scanned_dirty(store)
    assert store.dirty_cells(tids) == scanned_dirty(store, tids)
    for attr in range(store.n_attrs):
        dirty = {cell.tid for cell in scanned_dirty(store) if cell.attr == attr}
        expected = [tid for tid in range(store.n_tuples) if tid not in dirty]
        assert store.trainable_tids(attr) == expected
        assert store.trainable_tids(attr, tids) == [t for t in sorted(set(tids)) if t not in dirty]


N_ROWS, N_ATTRS = 12, 3
cells = st.builds(CellRef, st.integers(0, N_ROWS - 1), st.integers(0, N_ATTRS - 1))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("mark"), st.lists(cells, max_size=8)),
        st.tuples(st.just("repair"), st.lists(st.integers(0, 50), max_size=6)),
        st.tuples(st.just("reset"), st.none()),
        st.tuples(st.just("round_trip"), st.none()),
    ),
    max_size=25,
)


class TestDirtyIndex:
    @given(operations, st.lists(st.integers(0, N_ROWS - 1), max_size=6))
    def test_index_equals_status_scan(self, ops, tids):
        rows = [
            tuple(f"v{(tid * 7 + attr) % 4}" for attr in range(N_ATTRS)) for tid in range(N_ROWS)
        ]
        store = build_store(rows, [f"a{attr}" for attr in range(N_ATTRS)])
        for op, arg in ops:
            if op == "mark":
                store.mark_dirty(arg)
            elif op == "repair":
                dirty = scanned_dirty(store)
                picked = sorted({dirty[i % len(dirty)] for i in arg}) if dirty else []
                values = [1 + cell.tid % (store.interner.size(cell.attr) - 1) for cell in picked]
                store.apply_repairs(zip(picked, values))
            elif op == "reset":
                expected = len(scanned_dirty(store))
                assert store.reset_dirty() == expected
            else:
                store = RelationStore.from_dict(store.to_dict())
            check_dirty_index(store, tids)
