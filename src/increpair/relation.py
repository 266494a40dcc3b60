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
from itertools import repeat
from pathlib import Path
from typing import IO, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError

NULL_ID = 0
NULL_DISPLAY = ""
DEFAULT_NULL_TOKENS = frozenset({"", "NULL", "empty"})


def int_rows(entries, width: int, what: str) -> np.ndarray:
    """`entries`, rows of `width` integers of any signed dtype, as int64 (`vid << 32`
    wraps in a narrower one); anything else is a DataError."""
    try:
        rows = np.asarray(entries) if len(entries) else np.empty((0, width), dtype=np.int64)
    except ValueError:  # ragged
        rows = np.empty(0, dtype=object)
    if rows.dtype.kind != "i" or rows.shape[1:] != (width,):
        raise DataError(f"{what} are not rows of {width} integers")
    return rows.astype(np.int64, copy=False)


def exact_keys(payload, keys: Sequence[str], what: str) -> None:
    """A DataError unless `payload` is an object whose keys are exactly `keys`."""
    if not isinstance(payload, dict):
        raise DataError(f"{what} is a {type(payload).__name__}, not an object")
    missing, unknown = sorted(set(keys) - payload.keys()), sorted(payload.keys() - set(keys))
    if missing or unknown:
        raise DataError(f"{what} keys differ: lacks {missing}, unknown {unknown}")


class CellStatus(IntEnum):
    CLEAN = 0
    DIRTY = 1
    REPAIRED = 2


class CellRef(NamedTuple):
    tid: int
    attr: int


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of `keys`, ascending.  A plain `np.unique` is about
    ten times slower on int64 keys (146 us to 15 us at 2,000 keys, numpy 2.4)
    and imports `numpy.ma`; its `return_index` form imports nothing."""
    keys = np.sort(keys)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


def read_only(view: np.ndarray) -> np.ndarray:
    """`view`, marked non-writeable; the array behind it stays writable."""
    view.flags.writeable = False
    return view


def tid_array(tids: Iterable[int]) -> np.ndarray:
    """The one form a set of tuple ids takes: distinct ids, ascending, as
    int64.  An ascending range is laid out with `np.arange`, never listed."""
    if isinstance(tids, range) and tids.step > 0:
        return np.arange(tids.start, tids.stop, tids.step, dtype=np.int64)
    if not isinstance(tids, np.ndarray):
        tids = np.fromiter(tids, dtype=np.int64)
    return _distinct(tids.astype(np.int64, copy=False).reshape(-1))


def union_cells(parts: Iterable[np.ndarray], n_attrs: int) -> np.ndarray:
    """The distinct rows of `(k, 2)` int64 (tid, attr) arrays in (tid, attr)
    order, the one form a set of cells takes, found on the packed key
    `tid * n_attrs + attr`."""
    cells = np.concatenate([np.empty((0, 2), dtype=np.int64), *parts])
    keys = _distinct(cells[:, 0] * n_attrs + cells[:, 1])
    return np.stack(np.divmod(keys, n_attrs), axis=1)


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

    The null slot (id 0) sits outside the bijection: many surface tokens mean
    null (None here), and they all resolve back to the canonical empty string.
    """

    def __init__(self, n_attrs: int):
        self._to_id: list[dict[str | None, int]] = [{None: NULL_ID} for _ in range(n_attrs)]
        self._to_str: list[list[str]] = [[NULL_DISPLAY] for _ in range(n_attrs)]

    def intern(self, attr: int, value: str | None) -> int:
        return self.intern_column(attr, (value,))[0]

    def intern_column(self, attr: int, values: Sequence[str | None]) -> list[int]:
        """Ids of a column of values, issuing new ones in order of first appearance."""
        table, strings = self._to_id[attr], self._to_str[attr]
        fresh = [value for value in dict.fromkeys(values) if value not in table]
        table.update(zip(fresh, range(len(strings), len(strings) + len(fresh))))
        strings += fresh
        return list(map(table.__getitem__, values))

    def lookup(self, attr: int, value: str | None) -> int | None:
        """Id of an already-interned value, or None if never seen."""
        return self._to_id[attr].get(value)

    def lookup_column(self, attr: int, values: Sequence[str | None]) -> list[int]:
        """`lookup` over a column of values, with -1 for a string never issued."""
        return list(map(self._to_id[attr].get, values, repeat(-1)))

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


class _ParsedFields(dict):
    """Raw CSV field -> its trimmed text, or None for a null token, parsed on
    first lookup.  A trimmed text is stored under itself too, so `" a"` and
    `"a"` give one object."""

    def __init__(self, null_tokens: frozenset[str]):
        super().__init__()
        self.null_tokens = null_tokens

    def __missing__(self, field: str) -> str | None:
        text = field.strip()
        value = self[field] = None if text in self.null_tokens else self.setdefault(text, text)
        return value


def load_csv(
    path: str | Path,
    null_tokens: Iterable[str] = DEFAULT_NULL_TOKENS,
) -> tuple[Schema, list[list[str | None]]]:
    """Read a CSV with a header row.

    Every field is whitespace-trimmed; trimmed fields matching a null token
    come back as None.  Ragged rows raise with their file line number.
    Equal values in the returned rows are one string object: each distinct
    raw field is parsed once, through a memo that lives only for this call.
    """
    path = Path(path)
    parse = _ParsedFields(frozenset(null_tokens)).__getitem__
    try:
        # utf-8-sig drops the byte-order mark spreadsheets write first
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            schema = Schema(tuple(name.strip() for name in header))
            n_attrs = schema.n_attrs  # at least 2, so a blank line is ragged too
            rows: list[list[str | None]] = []
            append = rows.append
            for record in reader:
                if len(record) != n_attrs:
                    if not record:
                        continue
                    raise DataError(
                        f"{path}: row at line {reader.line_num} has {len(record)} fields,"
                        f" expected {n_attrs}"
                    )
                append(list(map(parse, record)))
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}: unreadable CSV at line {reader.line_num}: {exc}") from exc
    return schema, rows


def write_atomic(path: str | Path, write: Callable[[IO[str]], None]) -> None:
    """Let `write` fill a file beside the target, then move it over the target,
    so a failure part-way leaves any earlier file there whole.  A target that
    exists but is no regular file, such as a device or a pipe, is written in
    place: moving a file over it would replace it."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with path.open("w", newline="", encoding="utf-8") as handle:
            write(handle)
        return
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", newline="", encoding="utf-8") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as RFC-4180 CSV, atomically; None is written empty."""

    def write(handle: IO[str]) -> None:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if value is None else value for value in row])

    write_atomic(path, write)


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
    if count is not None:
        if count < 1:
            raise DataError("batch count must be >= 1")
        if count > n:
            raise DataError(f"cannot split {n} rows into {count} non-empty batches")
        base, extra = divmod(n, count)
        ends = [k * base + min(k, extra) for k in range(1, count + 1)]
    else:
        if size < 1:
            raise DataError("batch size must be >= 1")
        ends = [min(end, n) for end in range(size, n + size, size)]
    return [
        RawBatch(k, tuple(map(tuple, rows[start:end])))
        for k, (start, end) in enumerate(zip([0, *ends], ends), start=1)
    ]


_STATE, _REPAIRED_ONCE = 3, 4  # status byte bits


def _is_dirty(status: np.ndarray) -> np.ndarray:
    return (status & _STATE) == CellStatus.DIRTY


class RelationStore:
    """Single-writer store for the evolving relation and its cleaning state.

    Cells move Clean -> Dirty (a detector flagged them) -> Repaired (a repair
    was applied).  Revisiting strategies may re-flag a Repaired cell back to
    Dirty; the first pre-repair value is kept as provenance either way.  Cells
    live in three `(capacity, N)` arrays that double as they fill, on zero pages
    left unmapped until written: current value ids, value ids as first seen,
    and status bytes, each a CellStatus plus REPAIRED_ONCE from the cell's first
    repair on, through re-flags and resets (the provenance a snapshot lists).
    The status bytes are the one record of which cells are Dirty.  A set of
    cells is a `(k, 2)` int64 array of (tid, attr) rows.
    """

    def __init__(self, schema: Schema, null_tokens: Iterable[str] = DEFAULT_NULL_TOKENS):
        self.schema = schema
        self.null_tokens = frozenset(null_tokens)
        self.interner = ValueInterner(schema.n_attrs)
        self._n, self._status = 0, np.zeros((0, schema.n_attrs), dtype=np.uint8)
        self._values = self._first = np.zeros((0, schema.n_attrs), dtype=np.int32)
        # batch k spans tids [starts[k-1], starts[k])
        self._batch_starts: list[int] = [0]

    @property
    def n_attrs(self) -> int:
        return self.schema.n_attrs

    @property
    def n_tuples(self) -> int:
        return self._n

    @property
    def batches_appended(self) -> int:
        return len(self._batch_starts) - 1

    @property
    def values(self) -> np.ndarray:
        """Current value ids, one int32 row per tuple; a read-only view."""
        return read_only(self._values[: self._n])

    @property
    def first_seen(self) -> np.ndarray:
        """Value ids as the tuples arrived, before any repair; a read-only view."""
        return read_only(self._first[: self._n])

    def append_batch(self, raw: RawBatch) -> range:
        """Intern and append one batch, returning its tids; batches arrive as k = 1, 2, ..."""
        expected = self.batches_appended + 1
        if raw.k != expected:
            raise DataError(f"batch {raw.k} out of order; expected batch {expected}")
        for width in sorted({len(row) for row in raw.rows} - {self.n_attrs})[:1]:
            raise DataError(f"batch {raw.k}: row has {width} fields, expected {self.n_attrs}")
        start, self._n = self._n, self._n + raw.cardinality
        if self._n > len(self._values):
            grown = (max(self._n, 2 * len(self._values)), self.n_attrs)
            arrays = self._values, self._first, self._status
            self._values, self._first, self._status = (np.zeros(grown, a.dtype) for a in arrays)
            for array, old in zip((self._values, self._first, self._status), arrays):
                array[:start] = old[:start]
        for attr, column in enumerate(zip(*raw.rows)):
            self._first[start : self._n, attr] = self.interner.intern_column(attr, column)
        self._values[start : self._n] = self._first[start : self._n]
        self._batch_starts.append(self._n)
        return self.batch_tids(raw.k)

    def batch_tids(self, k: int) -> range:
        if not 1 <= k <= self.batches_appended:
            raise DataError(f"batch {k} has not been appended")
        return range(self._batch_starts[k - 1], self._batch_starts[k])

    def tuple_values(self, tid: int) -> list[int]:
        return self.values[tid].tolist()

    def check_tids(self, tids: np.ndarray) -> np.ndarray:
        """Ascending tuple ids, checked at both ends to name tuples of the store."""
        first, last = tids[:1], tids[-1:]
        for tid in (*first[first < 0], *last[last >= self._n])[:1]:
            raise DataError(f"tuple id {tid} is out of range")
        return tids

    def _cells(self, entries, width: int) -> tuple[np.ndarray, ...]:
        columns = int_rows(entries, width, "cells").T
        tid, attr = columns[:2]
        outside = (tid < 0) | (tid >= self._n) | (attr < 0) | (attr >= self.n_attrs)
        for at in np.flatnonzero(outside)[:1]:
            raise DataError(f"cell {CellRef(int(tid[at]), int(attr[at]))} is out of range")
        return tuple(columns)

    def mark_dirty(self, cells: np.ndarray) -> int:
        """Flag (tid, attr) rows for repair; returns how many distinct cells
        were not already Dirty."""
        tid, attr = self._cells(cells, 2)
        status = self._status[tid, attr]
        self._status[tid, attr] = status & _REPAIRED_ONCE | CellStatus.DIRTY
        fresh = np.stack([tid, attr], axis=1)[~_is_dirty(status)]
        return len(union_cells([fresh], self.n_attrs))

    def reset_dirty(self) -> int:
        """Revert every Dirty cell to Clean, for strategies that re-detect from scratch."""
        status = self._status[: self._n]
        dirty = _is_dirty(status)
        status[dirty] &= _REPAIRED_ONCE
        return int(np.count_nonzero(dirty))

    def dirty_cells(self, tids: range | None = None) -> np.ndarray:
        """Dirty cells as (tid, attr) rows in (tid, attr) order, optionally
        only those of a range of tuples."""
        tids = range(self._n) if tids is None else tids
        dirty = np.flatnonzero(_is_dirty(self._status[tids.start : tids.stop : tids.step]))
        row, attr = np.divmod(dirty, self.n_attrs)
        return np.stack([row * tids.step + tids.start, attr], axis=1)

    def trainable_tids(self, attr: int, tids: Iterable[int] | None = None) -> np.ndarray:
        """Tuples, ascending, whose cell at `attr` is not currently Dirty
        (Repaired counts as clean), optionally among the given ones."""
        tids = self.check_tids(tid_array(range(self._n) if tids is None else tids))
        return tids[~_is_dirty(self._status[tids, attr])]

    def apply_repairs(self, repairs: np.ndarray) -> int:
        """Set repaired values, given as (tid, attr, vid) rows, on currently-Dirty
        cells; returns how many changed value.

        Every repaired cell becomes Repaired even when the proposed value equals
        the current one.  Repairing a cell that is not Dirty, or a cell twice,
        is an error, and then no repair is applied.
        """
        tid, attr, vid = self._cells(repairs, 3)
        _, first = np.unique(tid * self.n_attrs + attr, return_index=True)
        status = np.full(len(tid), CellStatus.REPAIRED, dtype=np.uint8)  # what a repeat finds
        status[first] = self._status[tid[first], attr[first]] & _STATE
        for at in np.flatnonzero(status != CellStatus.DIRTY)[:1]:
            raise DataError(
                f"cannot repair cell {(int(tid[at]), int(attr[at]))} with status"
                f" {CellStatus(status[at]).name}; only Dirty cells are repairable"
            )
        sizes = np.array([self.interner.size(column) for column in range(self.n_attrs)])
        for at in np.flatnonzero((vid < 0) | (vid >= sizes[attr]))[:1]:
            self.interner.resolve(int(attr[at]), int(vid[at]))  # raises
        changed = int(np.count_nonzero(self._values[tid, attr] != vid))
        self._values[tid, attr] = vid
        self._status[tid, attr] = CellStatus.REPAIRED | _REPAIRED_ONCE
        return changed

    def export_csv(self, path: str | Path) -> None:
        """Write the current relation (repairs included) as RFC-4180 CSV, atomically."""
        resolve = self.interner.resolve
        rows = (map(resolve, range(self.n_attrs), row) for row in self.values.tolist())
        write_csv(path, self.schema.attributes, rows)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        status = self._status[: self._n]
        repaired = np.argwhere(status & _REPAIRED_ONCE)
        return {
            "attributes": list(self.schema.attributes),
            "null_tokens": sorted(self.null_tokens),
            "values": [self.interner.observed_strings(a) for a in range(self.n_attrs)],
            "rows": self.values.tolist(),
            "status": (status & _STATE).tolist(),
            "original": np.column_stack([repaired, self.first_seen[tuple(repaired.T)]]).tolist(),
            "batch_starts": list(self._batch_starts),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RelationStore":
        keys = ("attributes", "null_tokens", "values", "rows", "status", "original", "batch_starts")
        exact_keys(payload, keys, "store")
        texts = [payload["attributes"], payload["null_tokens"], *payload["values"]]
        if not all(isinstance(text, list) and all(type(s) is str for s in text) for text in texts):
            raise DataError("attributes, null tokens and interned values are not lists of strings")
        store = cls(Schema(tuple(payload["attributes"])), payload["null_tokens"])
        for attr, strings in enumerate(payload["values"]):
            store.interner.intern_column(attr, strings)
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
        store._n, store._batch_starts = len(rows), starts.tolist()
        store._values, store._first = rows.astype(np.int32), rows.astype(np.int32)
        store._first[tid, attr] = vid
        store._status = status.astype(np.uint8)
        store._status[tid, attr] |= _REPAIRED_ONCE
        return store
