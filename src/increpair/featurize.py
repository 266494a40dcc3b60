"""Candidate domains and co-occurrence feature tensors, built for all of one
attribute's cells at a time.

A cell's candidate domain is its observed value plus every value of its
attribute that co-occurs, anywhere in the data counted so far, with this
tuple's value in some sufficiently correlated other attribute.  The feature
tensor prices each candidate against each context attribute as the ratio
`co_occurrences(candidate, context value) / frequency(context value)`, which
by construction lies in [0, 1].

`Featurizer.block` does this with numpy for a whole set of cells: per context
attribute it slices the rows of the context values the cells hold out of the
store's packed co-occurrence table, merges the candidates into one sorted
union of (cell, value) keys context by context, cuts each domain to its
heaviest values and fills the stacked tensor with one float64 division per
context.  `Featurizer.domain` and `Featurizer.tensor` run the same code on a
single cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .relation import NULL_ID, CellRef
from .stats import LOW, SHIFT, StatsStore, add_counts

DEFAULT_OMEGA = 0.05
DEFAULT_DOMAIN_CAP = 50

# A (cell, value id) pair packed into one int64 sort key, the cell in the high
# bits, as the statistics pack a (context value, target value) pair.
_SHIFT, _LOW = SHIFT, LOW


@dataclass(frozen=True)
class CellDomain:
    """Candidate repair values for one cell, in ascending value-id order."""

    cell: CellRef
    candidates: tuple[int, ...]
    observed_index: int

    @property
    def size(self) -> int:
        return len(self.candidates)

    @property
    def observed(self) -> int:
        return self.candidates[self.observed_index]


@dataclass(frozen=True)
class FeatureTensor:
    """Per-cell feature matrix: one row per candidate slot, one column per attribute.

    Rows beyond the domain size are dead slots excluded by `mask`; the cell's
    own attribute column is structurally zero.
    """

    values: np.ndarray
    mask: np.ndarray
    domain: CellDomain


@dataclass(frozen=True)
class FeatureBlock:
    """Stacked feature tensors of one attribute's cells, one leading row per cell.

    Only cells whose domain holds at least two values are kept: a singleton
    leaves nothing to choose or learn.  Cell i is tuple `tids[i]`; its
    candidates are `candidates[i, :sizes[i]]` in ascending value-id order,
    its observed value sits at `observed_index[i]`, and `values[i]`/`mask[i]`
    are its `FeatureTensor` fields.  Dead slots hold null and mask False.
    """

    tids: np.ndarray
    candidates: np.ndarray
    sizes: np.ndarray
    observed_index: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        return len(self.tids)


def tensor_slots(stats: StatsStore, attr: int, cap: int = DEFAULT_DOMAIN_CAP) -> int:
    """Row allocation for an attribute's tensors: its distinct-value count, capped."""
    return max(1, min(stats.distinct_count(attr), cap))


@dataclass(frozen=True)
class _Context:
    """Each cell's co-occurrence row, toward the cells' attribute, in one
    context attribute.

    Cell i holds value id `vids[i]`, counted `frequency[i]` times.  `keys` and
    `counts` are the store's whole (context attribute, cells' attribute)
    table, packed (context value, target value) keys sorted ascending; cell
    i's row is keys[starts[i] : starts[i] + lengths[i]].
    """

    vids: np.ndarray
    frequency: np.ndarray
    keys: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray


def _context(stats: StatsStore, attr: int, context_attr: int, vids: np.ndarray) -> _Context:
    keys, counts = stats.table(context_attr, attr)
    starts = np.searchsorted(keys, vids << SHIFT)
    stops = np.searchsorted(keys, (vids + 1) << SHIFT)
    # a row's counts sum to its context value's frequency
    running = np.concatenate([[0], np.cumsum(counts)])
    return _Context(vids, running[stops] - running[starts], keys, counts, starts, stops - starts)


def _gather(ctx: _Context) -> tuple[np.ndarray, np.ndarray]:
    """Every (cell, position in `ctx.keys`) of the cells' co-occurrence rows."""
    lengths = ctx.lengths
    cells = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    shift = ctx.starts - (np.cumsum(lengths) - lengths)
    positions = np.arange(len(cells), dtype=np.int64) + np.repeat(shift, lengths)
    return cells, positions


def _runs(keys: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell, per-cell count and per-cell start of packed keys grouped by cell."""
    cells = keys >> _SHIFT
    sizes = np.bincount(cells, minlength=n_cells)
    return cells, sizes, np.cumsum(sizes) - sizes


class Featurizer:
    """One batch's statistics snapshot plus the thresholds for domains and tensors."""

    def __init__(
        self,
        stats: StatsStore,
        correlations: Sequence[Sequence[float]],
        omega: float = DEFAULT_OMEGA,
        cap: int = DEFAULT_DOMAIN_CAP,
    ):
        if not 0.0 <= omega < 1.0:
            raise DataError(f"omega must lie in [0, 1), got {omega}")
        if cap < 1:
            raise DataError(f"domain cap must be >= 1, got {cap}")
        self.stats = stats
        self.correlations = correlations
        self.omega = omega
        self.cap = cap

    def _contexts(self, attr: int, rows: np.ndarray) -> list[_Context | None]:
        """Every other attribute's `_Context` for the cells of `attr` in `rows`."""
        return [
            None if context_attr == attr
            else _context(self.stats, attr, context_attr, rows[:, context_attr])
            for context_attr in range(self.stats.n_attrs)
        ]

    def _domains(
        self, attr: int, observed: np.ndarray, contexts: list[_Context | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's candidate domain, as packed (cell, value) keys sorted
        ascending, plus each cell's observed index.

        A context attribute qualifies when the cell's attribute is sufficiently
        predictable from it, i.e. their correlation (normalized over the cell
        attribute's domain) exceeds omega.  Null is never proposed, though a null
        observed value stays in its own domain.  Beyond `cap` values, the
        candidates with the highest summed co-occurrence counts are kept
        (observed value always retained; ties broken toward lower value ids).
        """
        n_cells = len(observed)
        union = weights = np.empty(0, dtype=np.int64)
        for context_attr, ctx in enumerate(contexts):
            if ctx is None or self.correlations[attr][context_attr] <= self.omega:
                continue
            # each cell's row is sorted, so the gathered keys are sorted too
            cells, positions = _gather(ctx)
            vids = ctx.keys[positions] & _LOW
            keep = (vids != NULL_ID) & (vids != observed[cells])
            (union, weights), _ = add_counts(
                union,
                weights,
                (cells[keep] << _SHIFT) | vids[keep],
                ctx.counts[positions[keep]],
            )
            del cells, positions, vids, keep
        cells, sizes, starts = _runs(union, n_cells)
        if sizes.max(initial=0) > self.cap - 1:
            over = np.flatnonzero(sizes[cells] > self.cap - 1)
            # lexsort is stable, so equal weights keep ascending value order
            ranked = over[np.lexsort((-weights[over], cells[over]))]
            _, group_sizes, group_starts = _runs(union[ranked], n_cells)
            rank = np.arange(len(ranked)) - np.repeat(group_starts, group_sizes)
            kept = np.ones(len(union), dtype=bool)
            kept[ranked[rank >= self.cap - 1]] = False
            union = union[kept]
        own = (np.arange(n_cells, dtype=np.int64) << _SHIFT) | observed
        (keys, _), _ = add_counts(union, np.zeros(len(union), dtype=np.int64), own, own)
        _, _, starts = _runs(keys, n_cells)
        return keys, np.searchsorted(keys, own) - starts

    def _tensors(
        self, attr: int, n_cells: int, keys: np.ndarray, contexts: list[_Context | None]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Candidates, sizes, feature values and mask of cells whose candidate
        slots are the packed (cell, value) `keys`, grouped by cell in slot order.
        """
        n_attrs = self.stats.n_attrs
        slots = tensor_slots(self.stats, attr, self.cap)
        cells, sizes, starts = _runs(keys, n_cells)
        if sizes.max(initial=0) > slots:
            raise DataError(
                f"domain of size {sizes.max()} does not fit {slots} tensor slots"
            )
        slot = np.arange(len(keys)) - np.repeat(starts, sizes)
        vids = keys & _LOW
        candidates = np.full((n_cells, slots), NULL_ID, dtype=np.int32)
        candidates[cells, slot] = vids
        mask = np.zeros((n_cells, slots), dtype=bool)
        mask[cells, slot] = True
        values = np.zeros((n_cells, slots, n_attrs), dtype=np.float64)
        for context_attr, ctx in enumerate(contexts):
            if ctx is None:
                continue
            frequency = ctx.frequency
            stale = np.flatnonzero(frequency <= 0)
            if len(stale):
                raise DataError(
                    f"statistics hold no count for attribute {context_attr}"
                    f" value id {ctx.vids[stale[0]]};"
                    " counts are out of step with the store"
                )
            if not len(ctx.keys):
                continue
            query = (ctx.vids[cells] << _SHIFT) | vids
            found = np.minimum(np.searchsorted(ctx.keys, query), len(ctx.keys) - 1)
            counts = np.where(ctx.keys[found] == query, ctx.counts[found], 0)
            values[cells, slot, context_attr] = counts / frequency[cells]
            del query, found, counts
        return candidates, sizes, values, mask

    def block(self, attr: int, tids: Sequence[int], rows) -> FeatureBlock:
        """Feature block of the cells of `attr` in tuples `tids`, whose current
        values are the matching rows of `rows` (one per tid, all attributes)."""
        tids = np.asarray(tids, dtype=np.int64).reshape(-1)
        rows = np.asarray(rows, dtype=np.int64).reshape(len(tids), self.stats.n_attrs)
        contexts = self._contexts(attr, rows)
        keys, observed_index = self._domains(attr, rows[:, attr], contexts)
        _, sizes, _ = _runs(keys, len(rows))
        multi = sizes >= 2
        if not multi.all():
            renumber = np.cumsum(multi) - 1
            keys = keys[multi[keys >> _SHIFT]]
            keys = (renumber[keys >> _SHIFT] << _SHIFT) | (keys & _LOW)
            tids, observed_index = tids[multi], observed_index[multi]
            contexts = self._contexts(attr, rows[multi])
        candidates, sizes, values, mask = self._tensors(attr, len(tids), keys, contexts)
        return FeatureBlock(tids, candidates, sizes, observed_index, values, mask)

    def domain(self, cell: CellRef, tuple_values: Sequence[int]) -> CellDomain:
        """Candidate domain of one cell given its tuple's current values."""
        rows = np.asarray([tuple_values], dtype=np.int64)
        keys, observed_index = self._domains(
            cell.attr, rows[:, cell.attr], self._contexts(cell.attr, rows)
        )
        return CellDomain(cell, tuple((keys & _LOW).tolist()), int(observed_index[0]))

    def tensor(self, domain: CellDomain, tuple_values: Sequence[int]) -> FeatureTensor:
        """Feature tensor of one cell over its candidate domain."""
        rows = np.asarray([tuple_values], dtype=np.int64)
        keys = np.asarray(domain.candidates, dtype=np.int64).reshape(-1)
        contexts = self._contexts(domain.cell.attr, rows)
        _, _, values, mask = self._tensors(domain.cell.attr, 1, keys, contexts)
        return FeatureTensor(values[0], mask[0], domain)
