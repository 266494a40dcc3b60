"""Error detectors: null cells, denial-constraint violations, and (for
benchmarking) exact diffs against a ground-truth table.

Detectors operate under a scope: `probe` tuples are the ones being inspected,
`reference` tuples may witness pair violations but have their own cells
flagged only when `flag_reference` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .dc import DenialConstraint, violations
from .errors import ConfigError, DataError
from .relation import NULL_ID, CellRef, RelationStore

DETECTOR_NAMES = ("null", "dc", "perfect")

GroundTruth = Sequence[Sequence[str | None]]


@dataclass(frozen=True)
class DetectionScope:
    probe: tuple[int, ...]
    reference: tuple[int, ...] = ()
    flag_reference: bool = False

    @classmethod
    def over(
        cls,
        probe: Iterable[int],
        reference: Iterable[int] = (),
        flag_reference: bool = False,
    ) -> "DetectionScope":
        probe_tids = tuple(sorted(set(probe)))
        reference_tids = tuple(sorted(set(reference) - set(probe_tids)))
        return cls(probe_tids, reference_tids, flag_reference)


class DirtySet:
    """Flagged cells, each tagged with the detector(s) that spotted it."""

    def __init__(self) -> None:
        self._tags: dict[CellRef, set[str]] = {}

    def add(self, cell: CellRef, tag: str) -> None:
        self._tags.setdefault(cell, set()).add(tag)

    def merge(self, other: "DirtySet") -> None:
        for cell, tags in other._tags.items():
            self._tags.setdefault(cell, set()).update(tags)

    def cells(self) -> list[CellRef]:
        return sorted(self._tags)

    def tags(self, cell: CellRef) -> frozenset[str]:
        return frozenset(self._tags.get(cell, ()))

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, cell: CellRef) -> bool:
        return cell in self._tags

    def __iter__(self) -> Iterator[CellRef]:
        return iter(self.cells())


def detect_null(store: RelationStore, scope: DetectionScope) -> DirtySet:
    """Flag every probe cell holding the null value."""
    dirty = DirtySet()
    for tid in scope.probe:
        row = store.tuple_values(tid)
        for attr in range(store.n_attrs):
            if row[attr] == NULL_ID:
                dirty.add(CellRef(tid, attr), "null")
    return dirty


def detect_dc(
    store: RelationStore,
    dcs: Sequence[DenialConstraint],
    scope: DetectionScope,
) -> DirtySet:
    """Flag probe cells participating in any constraint violation.

    Reference-tuple cells inside a violating group are flagged only when the
    scope says so.
    """
    dirty = DirtySet()
    probe = set(scope.probe)
    for dc in dcs:
        for group in violations(dc, store, scope.probe, scope.reference):
            for cell in group:
                if cell.tid in probe or scope.flag_reference:
                    dirty.add(cell, dc.dc_id)
    return dirty


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
) -> DirtySet:
    """Flag probe cells whose current value differs from the ground truth."""
    dirty = DirtySet()
    for tid in scope.probe:
        truth_row = ground_truth_row(ground_truth, tid, store.n_attrs)
        for attr in range(store.n_attrs):
            if store.canonical(tid, attr) != truth_row[attr]:
                dirty.add(CellRef(tid, attr), "perfect")
    return dirty


def run_detectors(
    store: RelationStore,
    scope: DetectionScope,
    names: Sequence[str],
    dcs: Sequence[DenialConstraint] = (),
    ground_truth: GroundTruth | None = None,
) -> DirtySet:
    """Run the named detectors over one scope and union their flags."""
    dirty = DirtySet()
    for name in names:
        if name == "null":
            dirty.merge(detect_null(store, scope))
        elif name == "dc":
            if not dcs:
                raise ConfigError("the dc detector needs at least one parsed constraint")
            dirty.merge(detect_dc(store, dcs, scope))
        elif name == "perfect":
            if ground_truth is None:
                raise ConfigError("the perfect detector needs a ground-truth table")
            dirty.merge(detect_perfect(store, ground_truth, scope))
        else:
            raise ConfigError(
                f"unknown detector {name!r}; expected one of {', '.join(DETECTOR_NAMES)}"
            )
    return dirty
