"""Evolving relation store: CSV loading, batch windowing, value interning,
per-cell cleaning status, and repair application.

Values are interned per attribute into dense integer ids so that the
statistics layer can count them cheaply.  Id 0 is reserved in every
attribute for the null value; configured null tokens collapse to it at
load time and render back as the empty string on export.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import IO, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError

NULL_ID = 0
NULL_DISPLAY = ""
DEFAULT_NULL_TOKENS = frozenset({"", "NULL", "empty"})


def int_rows(entries, width: int, what: str) -> np.ndarray:
    """`entries`, a list of rows of `width` integers, as an int64 array; anything
    else is a DataError."""
    try:
        rows = np.array(entries) if len(entries) else np.empty((0, width), dtype=np.int64)
    except ValueError:  # ragged
        rows = np.empty(0, dtype=object)
    if rows.dtype.kind != "i" or rows.shape[1:] != (width,):
        raise DataError(f"{what} are not rows of {width} integers")
    return rows


class CellStatus(IntEnum):
    CLEAN = 0
    DIRTY = 1
    REPAIRED = 2


class CellRef(NamedTuple):
    tid: int
    attr: int


@dataclass(frozen=True)
class Schema:
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) < 2:
            raise DataError("schema needs at least two attributes for pairwise statistics")
        if len(set(self.attributes)) != len(self.attributes):
            raise DataError("attribute names must be unique")

    @property
    def n_attrs(self) -> int:
        return len(self.attributes)

    def index_of(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise DataError(f"unknown attribute {name!r}") from None


class ValueInterner:
    """Per-attribute bijection between observed strings and dense ids.

    The null slot (id 0) sits outside the bijection: many surface tokens can
    mean null, and they all resolve back to the canonical empty string.
    """

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

    def lookup(self, attr: int, value: str | None) -> int | None:
        """Id of an already-interned value, or None if never seen."""
        if value is None:
            return NULL_ID
        return self._to_id[attr].get(value)

    def resolve(self, attr: int, vid: int) -> str:
        strings = self._to_str[attr]
        if not 0 <= vid < len(strings):
            raise DataError(f"value id {vid} is not interned for attribute {attr}")
        return strings[vid]

    def size(self, attr: int) -> int:
        """Interned value count including the null slot."""
        return len(self._to_str[attr])

    def observed_strings(self, attr: int) -> list[str]:
        return self._to_str[attr][1:]


@dataclass(frozen=True)
class RawBatch:
    """One window of not-yet-interned rows, numbered from 1 in arrival order."""

    k: int
    rows: tuple[tuple[str | None, ...], ...]

    @property
    def cardinality(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Batch:
    """An appended window: the same rows as value-id vectors."""

    k: int
    rows: tuple[tuple[int, ...], ...]


def load_csv(
    path: str | Path,
    null_tokens: Iterable[str] = DEFAULT_NULL_TOKENS,
) -> tuple[Schema, list[list[str | None]]]:
    """Read a CSV with a header row.

    Every field is whitespace-trimmed; trimmed fields matching a null token
    come back as None.  Ragged rows raise with their file line number.
    """
    path = Path(path)
    tokens = frozenset(null_tokens)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            schema = Schema(tuple(name.strip() for name in header))
            rows: list[list[str | None]] = []
            for record in reader:
                if not record:
                    continue
                if len(record) != schema.n_attrs:
                    raise DataError(
                        f"{path}: row at line {reader.line_num} has {len(record)} fields,"
                        f" expected {schema.n_attrs}"
                    )
                parsed: list[str | None] = []
                for field in record:
                    text = field.strip()
                    parsed.append(None if text in tokens else text)
                rows.append(parsed)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    return schema, rows


def write_atomic(path: str | Path, write: Callable[[IO[str]], None]) -> None:
    """Let `write` fill a file beside the target, then move it over the target,
    so a failure part-way leaves any earlier file there whole."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", newline="", encoding="utf-8") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def make_batches(
    rows: Sequence[Sequence[str | None]],
    *,
    count: int | None = None,
    size: int | None = None,
) -> list[RawBatch]:
    """Partition rows, preserving order, into numbered batches.

    Exactly one of `count` (that many batches, sizes differing by at most one,
    earlier batches taking the remainder) or `size` (fixed-size chunks, last
    one possibly short) must be given.
    """
    if (count is None) == (size is None):
        raise DataError("exactly one of count= or size= must be given")
    n = len(rows)
    if n == 0:
        raise DataError("no rows to batch")
    out: list[RawBatch] = []
    if count is not None:
        if count < 1:
            raise DataError("batch count must be >= 1")
        if count > n:
            raise DataError(f"cannot split {n} rows into {count} non-empty batches")
        base, extra = divmod(n, count)
        start = 0
        for k in range(1, count + 1):
            width = base + (1 if k <= extra else 0)
            chunk = rows[start : start + width]
            out.append(RawBatch(k, tuple(tuple(row) for row in chunk)))
            start += width
    else:
        if size < 1:
            raise DataError("batch size must be >= 1")
        for k, start in enumerate(range(0, n, size), start=1):
            chunk = rows[start : start + size]
            out.append(RawBatch(k, tuple(tuple(row) for row in chunk)))
    return out


class RelationStore:
    """Single-writer store for the evolving relation and its cleaning state.

    Cells move Clean -> Dirty (a detector flagged them) -> Repaired (a repair
    was applied).  Revisiting strategies may re-flag a Repaired cell back to
    Dirty; the first pre-repair value is kept as provenance either way.
    The tuples whose cell is Dirty are also indexed per attribute, so the
    Dirty cells are found without scanning every status byte.
    """

    def __init__(self, schema: Schema, null_tokens: Iterable[str] = DEFAULT_NULL_TOKENS):
        self.schema = schema
        self.null_tokens = frozenset(null_tokens)
        self.interner = ValueInterner(schema.n_attrs)
        self._rows: list[list[int]] = []
        self._status: list[bytearray] = []
        self._dirty: list[set[int]] = [set() for _ in range(schema.n_attrs)]
        self._original: dict[CellRef, int] = {}
        # batch k spans tids [starts[k-1], starts[k])
        self._batch_starts: list[int] = [0]

    @property
    def n_attrs(self) -> int:
        return self.schema.n_attrs

    @property
    def n_tuples(self) -> int:
        return len(self._rows)

    @property
    def batches_appended(self) -> int:
        return len(self._batch_starts) - 1

    def append_batch(self, raw: RawBatch) -> Batch:
        """Intern and append one batch; batches must arrive as k = 1, 2, ..."""
        expected = self.batches_appended + 1
        if raw.k != expected:
            raise DataError(f"batch {raw.k} out of order; expected batch {expected}")
        interned: list[tuple[int, ...]] = []
        for row in raw.rows:
            if len(row) != self.n_attrs:
                raise DataError(
                    f"batch {raw.k}: row has {len(row)} fields, expected {self.n_attrs}"
                )
            ids = [self.interner.intern(attr, value) for attr, value in enumerate(row)]
            self._rows.append(ids)
            self._status.append(bytearray(self.n_attrs))
            interned.append(tuple(ids))
        self._batch_starts.append(len(self._rows))
        return Batch(raw.k, tuple(interned))

    def batch_tids(self, k: int) -> range:
        if not 1 <= k <= self.batches_appended:
            raise DataError(f"batch {k} has not been appended")
        return range(self._batch_starts[k - 1], self._batch_starts[k])

    def value(self, tid: int, attr: int) -> int:
        return self._rows[tid][attr]

    def tuple_values(self, tid: int) -> Sequence[int]:
        return self._rows[tid]

    def display(self, tid: int, attr: int) -> str:
        return self.interner.resolve(attr, self._rows[tid][attr])

    def canonical_value(self, attr: int, vid: int) -> str | None:
        """A value id as a string, with None standing in for null."""
        return None if vid == NULL_ID else self.interner.resolve(attr, vid)

    def canonical(self, tid: int, attr: int) -> str | None:
        """Current value as a string, with None standing in for null."""
        return self.canonical_value(attr, self._rows[tid][attr])

    def status(self, tid: int, attr: int) -> CellStatus:
        return CellStatus(self._status[tid][attr])

    def original_value(self, tid: int, attr: int) -> int:
        """Value the cell held before its first repair (current value if never repaired)."""
        return self._original.get(CellRef(tid, attr), self._rows[tid][attr])

    def original_canonical(self, tid: int, attr: int) -> str | None:
        return self.canonical_value(attr, self.original_value(tid, attr))

    def mark_dirty(self, cells: Iterable[CellRef]) -> int:
        """Flag cells for repair; returns how many were not already Dirty."""
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
        """Revert every Dirty cell to Clean, for strategies that re-detect from scratch."""
        reverted = 0
        for attr, dirty in enumerate(self._dirty):
            for tid in dirty:
                self._status[tid][attr] = CellStatus.CLEAN
            reverted += len(dirty)
            dirty.clear()
        return reverted

    def dirty_cells(self, tids: Iterable[int] | None = None) -> list[CellRef]:
        """Dirty cells in (tid, attr) order, optionally restricted to given tuples."""
        scope = None if tids is None else set(tids)
        return sorted(
            CellRef(tid, attr)
            for attr, dirty in enumerate(self._dirty)
            for tid in (dirty if scope is None else dirty.intersection(scope))
        )

    def trainable_tids(self, attr: int, tids: Iterable[int] | None = None) -> list[int]:
        """Tuples whose cell at `attr` is not currently Dirty (Repaired counts as clean)."""
        dirty = self._dirty[attr]
        if tids is not None:
            return [tid for tid in sorted(set(tids)) if tid not in dirty]
        return self.trainable_at(attr, range(self.trainable_count(attr)))

    def trainable_count(self, attr: int) -> int:
        """How many tuples `trainable_tids(attr)` lists."""
        return self.n_tuples - len(self._dirty[attr])

    def trainable_at(self, attr: int, ranks: Sequence[int]) -> list[int]:
        """The tuples at the given ascending positions of `trainable_tids(attr)`,
        found through the sorted Dirty index without listing the rest."""
        dirty = np.sort(np.fromiter(self._dirty[attr], dtype=np.int64))
        # the r-th trainable tuple is r plus the Dirty tuples before it, and
        # dirty[i] - i trainable tuples precede the i-th Dirty one
        ranks = np.asarray(ranks, dtype=np.int64)
        before = np.searchsorted(dirty - np.arange(len(dirty)), ranks, side="right")
        return (ranks + before).tolist()

    def apply_repairs(self, repairs: Iterable[tuple[CellRef, int]]) -> int:
        """Set repaired values on currently-Dirty cells; returns how many changed value.

        Every repaired cell becomes Repaired even when the proposed value equals
        the current one.  Repairing a cell that is not Dirty is an error.
        """
        changed = 0
        for cell, vid in repairs:
            current_status = self._status[cell.tid][cell.attr]
            if current_status != CellStatus.DIRTY:
                raise DataError(
                    f"cannot repair cell {tuple(cell)} with status"
                    f" {CellStatus(current_status).name}; only Dirty cells are repairable"
                )
            self.interner.resolve(cell.attr, vid)  # validates the id
            current = self._rows[cell.tid][cell.attr]
            self._original.setdefault(cell, current)
            if vid != current:
                self._rows[cell.tid][cell.attr] = vid
                changed += 1
            self._status[cell.tid][cell.attr] = CellStatus.REPAIRED
            self._dirty[cell.attr].discard(cell.tid)
        return changed

    def export_csv(self, path: str | Path) -> None:
        """Write the current relation (repairs included) as RFC-4180 CSV, atomically."""

        def write(handle: IO[str]) -> None:
            writer = csv.writer(handle)
            writer.writerow(self.schema.attributes)
            for row in self._rows:
                writer.writerow([self.interner.resolve(attr, vid) for attr, vid in enumerate(row)])

        write_atomic(path, write)

    # -- serialization ------------------------------------------------------

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

    @classmethod
    def from_dict(cls, payload: dict) -> "RelationStore":
        store = cls(Schema(tuple(payload["attributes"])), payload["null_tokens"])
        for attr, strings in enumerate(payload["values"]):
            for text in strings:
                store.interner.intern(attr, text)
        sizes = np.array([store.interner.size(attr) for attr in range(store.n_attrs)])
        rows = int_rows(payload["rows"], store.n_attrs, "stored rows")
        status = int_rows(payload["status"], store.n_attrs, "cell statuses")
        tid, attr, vid = int_rows(payload["original"], 3, "original values").T
        starts = np.array(payload["batch_starts"])
        cells = (tid >= 0) & (tid < len(rows)) & (attr >= 0) & (attr < len(sizes))
        if ((rows < 0) | (rows >= sizes)).any() or not cells.all() or (
            (vid < 0) | (vid >= sizes[attr])
        ).any():
            raise DataError("stored or original values name a cell or value id the store lacks")
        if status.shape != rows.shape or not np.isin(status, list(CellStatus)).all():
            raise DataError("cell statuses do not match the stored rows")
        if starts.dtype.kind != "i" or starts.ndim != 1 or starts[:1].tolist() != [0] or (
            starts[-1] != len(rows) or (np.diff(starts) < 0).any()
        ):
            raise DataError("batch starts do not cut the stored rows into batches")
        store._rows = rows.tolist()
        store._status = [bytearray(row) for row in status.tolist()]
        for t, a in np.argwhere(status == CellStatus.DIRTY).tolist():
            store._dirty[a].add(t)
        store._original = {
            CellRef(t, a): v for t, a, v in zip(tid.tolist(), attr.tolist(), vid.tolist())
        }
        store._batch_starts = starts.tolist()
        return store
