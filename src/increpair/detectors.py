"""Error detectors: null cells, denial-constraint violations, and (for
benchmarking) exact diffs against a ground-truth table.

Each detector returns the cells it flags as distinct (tid, attr) rows of a
`(k, 2)` int64 array in (tid, attr) order.  Detectors operate under a
scope: only `probe` tuples have their cells flagged, while `reference`
tuples may witness a pair violation as the partner of a probe tuple.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dc import DenialConstraint, violations
from .errors import ConfigError, DataError
from .relation import NULL_ID, RelationStore, tid_array, union_cells

DETECTOR_NAMES = ("null", "dc", "perfect")

GroundTruth = Sequence[Sequence[str | None]]


class DetectionScope(NamedTuple):
    """Ascending int64 arrays of distinct tids: `probe`, and `reference` outside it."""

    probe: np.ndarray
    reference: np.ndarray

    @classmethod
    def over(cls, probe: Iterable[int], reference: Iterable[int] = ()) -> "DetectionScope":
        """The scope of `tid_array(probe)`, and the reference tids outside it."""
        probe = tid_array(probe)
        return cls(probe, np.setdiff1d(tid_array(reference), probe, assume_unique=True))


def _flagged(probe: np.ndarray, wrong: np.ndarray) -> np.ndarray:
    """The cells where `wrong`, a mask with one row per probe tid, holds."""
    rows, attrs = np.nonzero(wrong)
    return np.stack([probe[rows], attrs], axis=1)


def detect_null(store: RelationStore, scope: DetectionScope) -> np.ndarray:
    """Flag every probe cell holding the null value."""
    probe = store.check_tids(scope.probe)
    return _flagged(probe, store.values[probe] == NULL_ID)


def detect_dc(
    store: RelationStore,
    dcs: Sequence[DenialConstraint],
    scope: DetectionScope,
) -> np.ndarray:
    """Flag probe cells taking part in any constraint violation."""
    flagged = (violations(dc, store, scope.probe, scope.reference) for dc in dcs)
    return union_cells(flagged, store.n_attrs)


def truth_ids(store: RelationStore, ground_truth: GroundTruth, tids: Sequence[int]) -> np.ndarray:
    """The ground truth's rows of tuples `tids` as the store's value ids, one
    int64 row each, checked against the relation's shape.  A string never
    interned is -1, which equals no cell's id; a later batch may intern it."""
    tids = np.array(tids, dtype=np.int64).reshape(-1)
    for tid in tids[(tids < 0) | (tids >= len(ground_truth))][:1]:
        raise DataError(f"tuple id {tid} is outside the ground truth's {len(ground_truth)} rows")
    rows = list(map(ground_truth.__getitem__, tids.tolist()))
    if set(map(len, rows)) - {store.n_attrs}:
        tid, row = next((t, r) for t, r in zip(tids, rows) if len(r) != store.n_attrs)
        raise DataError(f"ground truth row {tid} has {len(row)} fields, expected {store.n_attrs}")
    columns = map(store.interner.lookup_column, range(store.n_attrs), zip(*rows))
    ids = np.fromiter(chain.from_iterable(columns), dtype=np.int64)
    return ids.reshape(store.n_attrs, len(rows)).T


def detect_perfect(store: RelationStore, truth: np.ndarray, scope: DetectionScope) -> np.ndarray:
    """Flag probe cells whose current value differs from `truth`, the truth's
    value ids with a row per tuple (`RunState.truth`, or `truth_ids`)."""
    probe = store.check_tids(scope.probe)
    return _flagged(probe, store.values[probe] != truth[probe])


def run_detectors(
    store: RelationStore,
    scope: DetectionScope,
    names: Sequence[str],
    dcs: Sequence[DenialConstraint] = (),
    ground_truth: np.ndarray | None = None,
) -> np.ndarray:
    """Run the named detectors over one scope and union their flags;
    `ground_truth` holds the truth's value ids, as `detect_perfect` reads them."""
    flagged = []
    for name in names:
        if name == "null":
            flagged.append(detect_null(store, scope))
        elif name == "dc":
            if not dcs:
                raise ConfigError("the dc detector needs at least one parsed constraint")
            flagged.append(detect_dc(store, dcs, scope))
        elif name == "perfect":
            if ground_truth is None:
                raise ConfigError("the perfect detector needs a ground-truth table")
            flagged.append(detect_perfect(store, ground_truth, scope))
        else:
            raise ConfigError(
                f"unknown detector {name!r}; expected one of {', '.join(DETECTOR_NAMES)}"
            )
    return union_cells(flagged, store.n_attrs)
