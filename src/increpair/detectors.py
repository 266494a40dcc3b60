"""Error detectors: null cells, denial-constraint violations, and (for
benchmarking) exact diffs against a ground-truth table.

Each detector returns the set of cells it flags.  Detectors operate under a
scope: only `probe` tuples have their cells flagged, while `reference`
tuples may witness a pair violation as the partner of a probe tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dc import DenialConstraint, violations
from .errors import ConfigError, DataError
from .relation import NULL_ID, CellRef, RelationStore

DETECTOR_NAMES = ("null", "dc", "perfect")

GroundTruth = Sequence[Sequence[str | None]]


@dataclass(frozen=True)
class DetectionScope:
    probe: tuple[int, ...]
    reference: tuple[int, ...] = ()

    @classmethod
    def over(cls, probe: Iterable[int], reference: Iterable[int] = ()) -> "DetectionScope":
        probe_tids = tuple(sorted(set(probe)))
        reference_tids = tuple(sorted(set(reference) - set(probe_tids)))
        return cls(probe_tids, reference_tids)


def detect_null(store: RelationStore, scope: DetectionScope) -> set[CellRef]:
    """Flag every probe cell holding the null value."""
    return {
        CellRef(tid, attr)
        for tid in scope.probe
        for attr, vid in enumerate(store.tuple_values(tid))
        if vid == NULL_ID
    }


def detect_dc(
    store: RelationStore,
    dcs: Sequence[DenialConstraint],
    scope: DetectionScope,
) -> set[CellRef]:
    """Flag probe cells taking part in any constraint violation."""
    return set().union(*(violations(dc, store, scope.probe, scope.reference) for dc in dcs))


def ground_truth_row(ground_truth: GroundTruth, tid: int, n_attrs: int) -> Sequence[str | None]:
    """Tuple `tid`'s row of the ground truth, checked against the relation's shape."""
    if tid >= len(ground_truth):
        raise DataError(f"ground truth has {len(ground_truth)} rows, tuple {tid} needs one")
    row = ground_truth[tid]
    if len(row) != n_attrs:
        raise DataError(f"ground truth row {tid} has {len(row)} fields, expected {n_attrs}")
    return row


def detect_perfect(
    store: RelationStore,
    ground_truth: GroundTruth,
    scope: DetectionScope,
) -> set[CellRef]:
    """Flag probe cells whose current value differs from the ground truth."""
    dirty: set[CellRef] = set()
    for tid in scope.probe:
        truth_row = ground_truth_row(ground_truth, tid, store.n_attrs)
        for attr in range(store.n_attrs):
            if store.canonical(tid, attr) != truth_row[attr]:
                dirty.add(CellRef(tid, attr))
    return dirty


def run_detectors(
    store: RelationStore,
    scope: DetectionScope,
    names: Sequence[str],
    dcs: Sequence[DenialConstraint] = (),
    ground_truth: GroundTruth | None = None,
) -> set[CellRef]:
    """Run the named detectors over one scope and union their flags."""
    dirty: set[CellRef] = set()
    for name in names:
        if name == "null":
            dirty |= detect_null(store, scope)
        elif name == "dc":
            if not dcs:
                raise ConfigError("the dc detector needs at least one parsed constraint")
            dirty |= detect_dc(store, dcs, scope)
        elif name == "perfect":
            if ground_truth is None:
                raise ConfigError("the perfect detector needs a ground-truth table")
            dirty |= detect_perfect(store, ground_truth, scope)
        else:
            raise ConfigError(
                f"unknown detector {name!r}; expected one of {', '.join(DETECTOR_NAMES)}"
            )
    return dirty
