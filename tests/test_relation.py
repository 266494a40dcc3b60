"""Relation store: CSV loading, interning, batching, and the cell lifecycle."""

from __future__ import annotations

import csv
import os
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increpair.errors import DataError
from increpair.relation import (
    DEFAULT_NULL_TOKENS,
    NULL_ID,
    CellRef,
    CellStatus,
    RawBatch,
    RelationStore,
    Schema,
    ValueInterner,
    load_csv,
    make_batches,
    write_atomic,
)

from conftest import (
    build_store,
    canonical_of,
    cell_rows,
    failing_writes,
    original_canonical,
    original_of,
    status_of,
    value_of,
)
from store_oracle import ListStore


def display(store, tid, attr):
    """A cell's current value as the string it resolves to, "" for null."""
    return store.interner.resolve(attr, value_of(store, tid, attr))


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


def load_rows_per_field(path, null_tokens=DEFAULT_NULL_TOKENS) -> list[list[str | None]]:
    """Scalar reference for `load_csv`'s rows: every field trimmed and checked
    against the null tokens on its own, one new string per field."""
    tokens = frozenset(null_tokens)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = list(csv.reader(handle))[1:]
    rows = []
    for record in records:
        if not record:
            continue
        parsed = []
        for field in record:
            text = field.strip()
            parsed.append(None if text in tokens else text)
        rows.append(parsed)
    return rows


padding = st.sampled_from(["", " ", "  ", "\t", " \t"])
csv_fields = st.tuples(
    padding,
    st.one_of(
        st.sampled_from(["", "NULL", "empty", "??", "n/a", "a", "a b", "b,c"]),
        st.text(alphabet="ab ,\t?", max_size=4),
    ),
    padding,
).map("".join)
null_token_sets = st.sampled_from([DEFAULT_NULL_TOKENS, frozenset({"??"}), frozenset({"n/a", ""})])


class TestLoadCsv:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda width: st.lists(st.lists(csv_fields, min_size=width, max_size=width), max_size=12)
        ),
        null_token_sets,
    )
    def test_rows_equal_the_per_field_reference(self, tmp_path_factory, records, null_tokens):
        path = tmp_path_factory.getbasetemp() / "per-field.csv"
        width = len(records[0]) if records else 2
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([[f"c{i}" for i in range(width)], *records])
        _, rows = load_csv(path, null_tokens)
        assert rows == load_rows_per_field(path, null_tokens)

    def test_equal_values_share_one_object(self, tmp_path):
        path = tmp_path / "t.csv"
        # longer than one character: CPython keeps one object per 1-char string anyway
        path.write_text("a,b,c\n xy ,xy,NULL\nxy , yz,\nyz,xy ,zw\n")
        _, rows = load_csv(path)
        values = [value for row in rows for value in row if value is not None]
        assert values == ["xy", "xy", "xy", "yz", "yz", "xy", "zw"]
        assert len({id(value) for value in values}) == len(set(values)) == 3

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
        assert value_of(store, 0, 1) == NULL_ID
        assert canonical_of(store, 0, 0) == "x"
        assert canonical_of(store, 0, 1) is None
        assert display(store, 0, 1) == ""

    @pytest.mark.parametrize("view", ["values", "first_seen"])
    def test_views_are_read_only(self, view):
        # a write through a view would move a cell past apply_repairs' checks
        store = build_store([("x", "y"), ("u", "v")], ("a", "b"))
        before = store.values.copy(), store.first_seen.copy()
        array = getattr(store, view)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = array[1, 0]
        with pytest.raises(ValueError, match="read-only"):
            array += 1
        assert (store.values == before[0]).all() and (store.first_seen == before[1]).all()
        assert status_of(store, 0, 0) is CellStatus.CLEAN

    def test_mark_dirty_counts_new_flags_only(self):
        store = build_store([("x", "y")], ("a", "b"))
        cell = CellRef(0, 0)
        assert store.mark_dirty([cell]) == 1
        assert store.mark_dirty([cell]) == 0
        assert status_of(store, 0, 0) is CellStatus.DIRTY

    def test_mark_dirty_counts_each_newly_dirty_cell_once(self):
        store = build_store([("x", "y"), ("z", "w")], ("a", "b"))
        store.mark_dirty(cell_rows([CellRef(0, 0), CellRef(0, 1)]))
        store.apply_repairs(cell_rows([(CellRef(0, 1), value_of(store, 0, 1))]))
        # a duplicate row, an already-Dirty cell and a re-flagged Repaired cell
        flagged = cell_rows([CellRef(1, 0), CellRef(1, 0), CellRef(0, 0), CellRef(0, 1)])
        assert store.mark_dirty(flagged) == 2
        assert store.dirty_cells().tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_mark_dirty_validates_range(self):
        store = build_store([("x", "y")], ("a", "b"))
        with pytest.raises(DataError):
            store.mark_dirty([CellRef(5, 0)])

    def test_repair_requires_dirty(self):
        store = build_store([("x", "y")], ("a", "b"))
        with pytest.raises(DataError, match="only Dirty"):
            store.apply_repairs(cell_rows([(CellRef(0, 0), 1)]))

    def test_repair_changes_value_and_status(self):
        store = build_store([("x", "y"), ("z", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0)])
        changed = store.apply_repairs(cell_rows([(CellRef(0, 0), store.interner.lookup(0, "z"))]))
        assert changed == 1
        assert canonical_of(store, 0, 0) == "z"
        assert status_of(store, 0, 0) is CellStatus.REPAIRED
        assert original_canonical(store, 0, 0) == "x"
        assert store.to_dict()["original"] == [[0, 0, store.interner.lookup(0, "x")]]

    def test_unchanged_repair_still_marks_repaired(self):
        store = build_store([("x", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0)])
        changed = store.apply_repairs(cell_rows([(CellRef(0, 0), value_of(store, 0, 0))]))
        assert changed == 0
        assert status_of(store, 0, 0) is CellStatus.REPAIRED

    def test_first_original_survives_reflag_and_second_repair(self):
        store = build_store([("x", "y"), ("z", "y"), ("w", "y")], ("a", "b"))
        cell = CellRef(0, 0)
        store.mark_dirty([cell])
        store.apply_repairs(cell_rows([(cell, store.interner.lookup(0, "z"))]))
        store.mark_dirty([cell])  # a revisiting strategy re-flags it
        assert status_of(store, 0, 0) is CellStatus.DIRTY
        store.apply_repairs(cell_rows([(cell, store.interner.lookup(0, "w"))]))
        assert canonical_of(store, 0, 0) == "w"
        assert original_canonical(store, 0, 0) == "x"

    def test_repair_validates_value_id(self):
        store = build_store([("x", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0)])
        with pytest.raises(DataError):
            store.apply_repairs(cell_rows([(CellRef(0, 0), 99)]))

    def test_reset_dirty_spares_repaired(self):
        store = build_store([("x", "y"), ("z", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0), CellRef(1, 0)])
        store.apply_repairs(cell_rows([(CellRef(0, 0), store.interner.lookup(0, "z"))]))
        assert store.reset_dirty() == 1
        assert status_of(store, 0, 0) is CellStatus.REPAIRED
        assert status_of(store, 1, 0) is CellStatus.CLEAN

    def test_dirty_cells_sorted_and_scoped(self):
        store = build_store([("x", "y"), ("z", "w")], ("a", "b"))
        store.mark_dirty([CellRef(1, 1), CellRef(0, 0), CellRef(1, 0)])
        assert store.dirty_cells().tolist() == [[0, 0], [1, 0], [1, 1]]
        assert store.dirty_cells(range(1, 2)).tolist() == [[1, 0], [1, 1]]

    def test_trainable_excludes_dirty_only(self):
        store = build_store([("x", "y"), ("z", "w"), ("u", "v")], ("a", "b"))
        store.mark_dirty([CellRef(1, 0), CellRef(2, 0)])
        store.apply_repairs(cell_rows([(CellRef(2, 0), value_of(store, 2, 0))]))
        assert store.trainable_tids(0).tolist() == [0, 2]
        assert store.trainable_tids(1).tolist() == [0, 1, 2]
        assert store.trainable_tids(0, [2, 1, 2]).tolist() == [2]

    @pytest.mark.parametrize("tid", [-1, 3])
    def test_trainable_rejects_tids_outside_the_store(self, tid):
        store = build_store([("x", "y"), ("z", "w"), ("u", "v")], ("a", "b"))
        with pytest.raises(DataError, match="out of range"):
            store.trainable_tids(0, [0, tid])

    def test_mark_dirty_sets_status_per_cell(self):
        store = build_store([("x", "y")], ("a", "b"))
        store.mark_dirty([CellRef(0, 1)])
        assert [status_of(store, 0, attr) for attr in range(2)] == [
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

    def test_a_pipe_is_written_in_place(self, tmp_path):
        """Moving a finished file over a pipe or a device would replace it."""
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        write_atomic(pipe, lambda handle: handle.write("line\n"))
        reader.join(timeout=10)
        assert received == ["line\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)

    def test_dict_round_trip_preserves_everything(self):
        store = build_store([("x", "y"), ("z", "w")], ("a", "b"))
        store.mark_dirty([CellRef(0, 0), CellRef(1, 1)])
        store.apply_repairs(cell_rows([(CellRef(0, 0), store.interner.lookup(0, "z"))]))
        clone = RelationStore.from_dict(store.to_dict())
        assert clone.schema == store.schema
        assert clone.n_tuples == store.n_tuples
        for tid in range(store.n_tuples):
            for attr in range(store.n_attrs):
                assert value_of(clone, tid, attr) == value_of(store, tid, attr)
                assert status_of(clone, tid, attr) == status_of(store, tid, attr)
                assert original_of(clone, tid, attr) == original_of(store, tid, attr)
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
            [canonical_of(clone, tid, attr) for attr in range(2)] for tid in range(clone.n_tuples)
        ]
        assert current == [[r[0], r[1]] for r in rows]


N_ATTRS = 3
VOCAB = (None, "a", "b", "c", "d")
store_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.lists(st.tuples(*[st.sampled_from(VOCAB)] * N_ATTRS), max_size=5),
        ),
        st.tuples(
            st.just("mark"),
            st.lists(st.tuples(st.integers(0, 99), st.integers(0, N_ATTRS - 1)), max_size=8),
        ),
        # (which Dirty cell, 0 for its current value or else which value id)
        st.tuples(
            st.just("repair"),
            st.lists(st.tuples(st.integers(0, 99), st.integers(0, 9)), max_size=6),
        ),
        st.tuples(st.just("reset"), st.none()),
        st.tuples(st.just("reflag"), st.lists(st.integers(0, 99), max_size=4)),
        st.tuples(st.just("round_trip"), st.none()),
    ),
    max_size=30,
)


def check_same_store(store, oracle):
    """Every accessor of the column store reads what the list store holds."""
    assert store.n_tuples == oracle.n_tuples
    for tid in range(oracle.n_tuples):
        assert store.tuple_values(tid) == oracle.tuple_values(tid)
        for attr in range(N_ATTRS):
            assert value_of(store, tid, attr) == oracle.value(tid, attr)
            assert original_of(store, tid, attr) == oracle.original_value(tid, attr)
            assert status_of(store, tid, attr) is oracle.status(tid, attr)
            assert canonical_of(store, tid, attr) == oracle.canonical(tid, attr)
    assert store.dirty_cells().tolist() == cell_rows(oracle.dirty_cells()).tolist()
    evens = range(0, oracle.n_tuples, 2)
    assert store.dirty_cells(evens).tolist() == cell_rows(oracle.dirty_cells(evens)).tolist()
    scope = [*range(oracle.n_tuples - 1, -1, -3)] * 2  # descending, with repeats
    for attr in range(N_ATTRS):
        assert store.trainable_tids(attr).tolist() == oracle.trainable_tids(attr)
        assert store.trainable_tids(attr, scope).tolist() == oracle.trainable_tids(attr, scope)
    assert store.to_dict() == oracle.to_dict()


class TestMatchesListOracle:
    @settings(max_examples=300, deadline=None)
    @given(store_operations)
    def test_every_operation_matches(self, ops):
        schema = Schema(tuple(f"a{attr}" for attr in range(N_ATTRS)))
        store, oracle = RelationStore(schema, ()), ListStore(schema, ())
        for op, arg in ops:
            if op == "append":
                raw = RawBatch(store.batches_appended + 1, tuple(arg))
                assert store.append_batch(raw) == oracle.append_batch(raw)
            elif op == "mark" and oracle.n_tuples:
                picked = [CellRef(tid % oracle.n_tuples, attr) for tid, attr in arg]
                assert store.mark_dirty(cell_rows(picked)) == oracle.mark_dirty(picked)
            elif op == "repair":
                dirty = oracle.dirty_cells()
                picked = {dirty[i % len(dirty)]: pick for i, pick in arg} if dirty else {}
                repairs = [
                    (cell, pick % oracle.interner.size(cell.attr) if pick else oracle.value(*cell))
                    for cell, pick in picked.items()
                ]
                assert store.apply_repairs(cell_rows(repairs)) == oracle.apply_repairs(repairs)
            elif op == "reset":
                assert store.reset_dirty() == oracle.reset_dirty()
            elif op == "reflag":
                repaired = [
                    CellRef(tid, attr)
                    for tid in range(oracle.n_tuples)
                    for attr in range(N_ATTRS)
                    if oracle.status(tid, attr) is CellStatus.REPAIRED
                ]
                picked = [repaired[i % len(repaired)] for i in arg] if repaired else []
                assert store.mark_dirty(cell_rows(picked)) == oracle.mark_dirty(picked)
            elif op == "round_trip":
                store = RelationStore.from_dict(store.to_dict())
            check_same_store(store, oracle)
