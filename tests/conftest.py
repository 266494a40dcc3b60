"""Shared fixtures: tiny hand-checkable relations used across test modules."""

from __future__ import annotations

import errno
from pathlib import Path

import numpy as np
import pytest

from increpair.relation import NULL_ID, RawBatch, RelationStore, Schema

# Four rows over (region, code).  Region h appears three times and co-occurs
# with codes b, c, e; region i appears once with code d.  Every frozen number
# in the statistics and featurization tests is derived from this table by
# hand: freq(region) = {h: 3, i: 1}, H(code|region) = (3/4)*ln 3, and
# H(region|code) = 0 because each code determines its region.
GOLDEN_ROWS = [
    ("h", "b"),
    ("h", "c"),
    ("i", "d"),
    ("h", "e"),
]
GOLDEN_ATTRS = ("region", "code")


def build_store(rows, attrs, null_tokens=("", "NULL", "empty")) -> RelationStore:
    """Store with all rows appended as one batch."""
    store = RelationStore(Schema(tuple(attrs)), null_tokens)
    store.append_batch(RawBatch(1, tuple(tuple(row) for row in rows)))
    return store


def cell_rows(entries) -> np.ndarray:
    """CellRefs, or (CellRef, value id) repairs, as the int64 rows the engine
    takes and returns: (tid, attr) or (tid, attr, vid).  A set comes out in
    (tid, attr) order, the order in which the engine returns a set of cells."""
    if isinstance(entries, (set, frozenset)):
        entries = sorted(entries)
    rows = [
        (*entry[0], *entry[1:]) if isinstance(entry[0], tuple) else tuple(entry)
        for entry in entries
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, len(rows[0]) if rows else 2)


def original_canonical(store: RelationStore, tid: int, attr: int) -> str | None:
    """A cell's value before its first repair as a string, None for null."""
    vid = store.original_value(tid, attr)
    return None if vid == NULL_ID else store.interner.resolve(attr, vid)


class HalfWriter:
    """A file handle whose write stores half the text, then fails as a full disk would."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def failing_writes(monkeypatch) -> None:
    """Make every file opened for writing through `Path.open` fail half-way."""
    real_open = Path.open

    def failing_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return HalfWriter(handle) if "w" in mode else handle

    monkeypatch.setattr(Path, "open", failing_open)


@pytest.fixture
def golden_store() -> RelationStore:
    return build_store(GOLDEN_ROWS, GOLDEN_ATTRS)
