"""Scalar reference for `RelationStore`: the list-based store it replaced.

`ListStore` keeps rows as `list[list[int]]`, statuses as one `bytearray` per
row and provenance as a dict keyed by cell, and interns one value at a time
through `ListInterner`, the scalar interner the store once used.  Each
operation touches one cell at a time, so it serves as an oracle for the
column store's array arithmetic: tests drive both with the same operations
and compare every accessor and `to_dict()`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from increpair.errors import DataError
from increpair.relation import NULL_DISPLAY, NULL_ID, CellRef, CellStatus, RawBatch, Schema


class ListInterner:
    """Per-attribute bijection between observed strings and dense ids, id 0 for null."""

    def __init__(self, n_attrs: int):
        self._to_id: list[dict[str, int]] = [{} for _ in range(n_attrs)]
        self._to_str: list[list[str]] = [[NULL_DISPLAY] for _ in range(n_attrs)]

    def intern(self, attr: int, value: str | None) -> int:
        if value is None:
            return NULL_ID
        table = self._to_id[attr]
        vid = table.get(value)
        if vid is None:
            strings = self._to_str[attr]
            vid = len(strings)
            table[value] = vid
            strings.append(value)
        return vid

    def resolve(self, attr: int, vid: int) -> str:
        strings = self._to_str[attr]
        if not 0 <= vid < len(strings):
            raise DataError(f"value id {vid} is not interned for attribute {attr}")
        return strings[vid]

    def size(self, attr: int) -> int:
        return len(self._to_str[attr])

    def observed_strings(self, attr: int) -> list[str]:
        return self._to_str[attr][1:]


class ListStore:
    """The relation store one cell at a time: Clean -> Dirty -> Repaired, with
    the first pre-repair value kept as provenance through re-flags."""

    def __init__(self, schema: Schema, null_tokens: Iterable[str] = ()):
        self.schema = schema
        self.null_tokens = frozenset(null_tokens)
        self.interner = ListInterner(schema.n_attrs)
        self._rows: list[list[int]] = []
        self._status: list[bytearray] = []
        self._dirty: list[set[int]] = [set() for _ in range(schema.n_attrs)]
        self._original: dict[CellRef, int] = {}
        self._batch_starts: list[int] = [0]

    @property
    def n_attrs(self) -> int:
        return self.schema.n_attrs

    @property
    def n_tuples(self) -> int:
        return len(self._rows)

    def append_batch(self, raw: RawBatch) -> range:
        expected = len(self._batch_starts)
        if raw.k != expected:
            raise DataError(f"batch {raw.k} out of order; expected batch {expected}")
        for row in raw.rows:
            if len(row) != self.n_attrs:
                raise DataError(f"batch {raw.k}: row has {len(row)} fields")
            self._rows.append([self.interner.intern(attr, value) for attr, value in enumerate(row)])
            self._status.append(bytearray(self.n_attrs))
        self._batch_starts.append(len(self._rows))
        return range(self._batch_starts[-2], self._batch_starts[-1])

    def value(self, tid: int, attr: int) -> int:
        return self._rows[tid][attr]

    def tuple_values(self, tid: int) -> list[int]:
        return self._rows[tid]

    def canonical(self, tid: int, attr: int) -> str | None:
        vid = self._rows[tid][attr]
        return None if vid == NULL_ID else self.interner.resolve(attr, vid)

    def status(self, tid: int, attr: int) -> CellStatus:
        return CellStatus(self._status[tid][attr])

    def original_value(self, tid: int, attr: int) -> int:
        return self._original.get(CellRef(tid, attr), self._rows[tid][attr])

    def mark_dirty(self, cells: Iterable[CellRef]) -> int:
        flagged = 0
        for cell in cells:
            if not (0 <= cell.tid < self.n_tuples and 0 <= cell.attr < self.n_attrs):
                raise DataError(f"cell {cell} is out of range")
            if self._status[cell.tid][cell.attr] != CellStatus.DIRTY:
                self._status[cell.tid][cell.attr] = CellStatus.DIRTY
                self._dirty[cell.attr].add(cell.tid)
                flagged += 1
        return flagged

    def reset_dirty(self) -> int:
        reverted = 0
        for attr, dirty in enumerate(self._dirty):
            for tid in dirty:
                self._status[tid][attr] = CellStatus.CLEAN
            reverted += len(dirty)
            dirty.clear()
        return reverted

    def dirty_cells(self, tids: Iterable[int] | None = None) -> list[CellRef]:
        scope = None if tids is None else set(tids)
        return sorted(
            CellRef(tid, attr)
            for attr, dirty in enumerate(self._dirty)
            for tid in (dirty if scope is None else dirty.intersection(scope))
        )

    def trainable_tids(self, attr: int, tids: Iterable[int] | None = None) -> list[int]:
        dirty = self._dirty[attr]
        scope = range(self.n_tuples) if tids is None else sorted(set(tids))
        return [tid for tid in scope if tid not in dirty]

    def apply_repairs(self, repairs: Iterable[tuple[CellRef, int]]) -> int:
        changed = 0
        for cell, vid in repairs:
            current_status = self._status[cell.tid][cell.attr]
            if current_status != CellStatus.DIRTY:
                raise DataError(f"cannot repair cell {tuple(cell)}; only Dirty cells")
            self.interner.resolve(cell.attr, vid)
            current = self._rows[cell.tid][cell.attr]
            self._original.setdefault(cell, current)
            if vid != current:
                self._rows[cell.tid][cell.attr] = vid
                changed += 1
            self._status[cell.tid][cell.attr] = CellStatus.REPAIRED
            self._dirty[cell.attr].discard(cell.tid)
        return changed

    def to_dict(self) -> dict:
        return {
            "attributes": list(self.schema.attributes),
            "null_tokens": sorted(self.null_tokens),
            "values": [self.interner.observed_strings(a) for a in range(self.n_attrs)],
            "rows": [list(row) for row in self._rows],
            "status": [list(row) for row in self._status],
            "original": sorted(
                [cell.tid, cell.attr, vid] for cell, vid in self._original.items()
            ),
            "batch_starts": list(self._batch_starts),
        }


def truth_scan(store, ground_truth, probe: Sequence[int]) -> set[CellRef]:
    """`detect_perfect` one cell at a time, comparing strings."""
    return {
        CellRef(tid, attr)
        for tid in probe
        for attr in range(store.n_attrs)
        if store.canonical(tid, attr) != ground_truth[tid][attr]
    }

