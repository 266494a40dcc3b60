"""Candidate domains and co-occurrence feature tensors, built for all of one
attribute's cells at a time.

A cell's candidate domain is its observed value plus every value of its
attribute that co-occurs, anywhere in the data counted so far, with this
tuple's value in some sufficiently correlated other attribute, often enough:
value v enters through context value c only when Pr[v | c] >= tau, that is
`co_occurrences(v, c) >= tau * frequency(c)` (HoloClean's domain pruning;
Rekatsinas et al., PVLDB 10(11), 2017).  tau is a ratio, not a count, so a
typo that co-occurs once with a frequent context value stops entering every
domain of that value as the stream grows; tau = 0 keeps every co-occurring
value; the pipeline runs at `DEFAULT_TAU`.  The observed value is always
kept.  The feature tensor prices each candidate against each context
attribute as the ratio
`co_occurrences(candidate, context value) / frequency(context value)`, which
by construction lies in [0, 1].

`Featurizer.block` does this with numpy for a whole set of cells.  It asks
the statistics one query for the values co-occurring with the cells' values
of every context attribute (`StatsStore.cooccurring`), and derives the rest
from those rows: each context value's frequency is the sum of its row, every
correlated context's candidates that pass tau sort together with the
observed values into one union of (cell, value) keys with their counts
summed, each domain is cut to its heaviest values, and only the rows whose
(cell, value) lies in a kept domain are kept, each to fill its slot of the
stacked tensor with one float64 division.
`Featurizer.domain` and `Featurizer.tensor` run the same code on a single
cell, whose tensor spans all of its attribute's `tensor_slots`.

A domain and a tensor read only the tuple's current row and the statistics,
so `block` computes them once per distinct row among its cells and maps each
cell to its row: a stream's cells repeat their tuples' rows several times
over.  Each distinct row is computed exactly as a lone cell of that row
would be, so every cell keeps its bits.

A block is only as wide as its widest domain rounded up to whole octets, at
most `tensor_slots` and all of them above 128.  The fit and repair compute on
it what they would on the padding, bit for bit: BLAS groups each row's slots
in the logits matmul by octets, and trailing zero octets leave numpy's
eight-accumulator pairwise sum of a row of up to 128 unchanged, while a trim
to the plain widest domain, or padding a row under 8 (summed sequentially)
up to 8, would not.  Dropping repeated rows keeps both: every row still
spans the block's width, a whole number of octets, at the same stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .relation import NULL_ID, CellRef
from .stats import LOW, SHIFT, StatsStore  # (cell, value id) keys pack as pair keys do

DEFAULT_OMEGA = 0.05
DEFAULT_DOMAIN_CAP = 50
DEFAULT_TAU = 0.01


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
    """Stacked feature tensors of one attribute's cells, one leading row per
    distinct tuple row among them.

    A cell's domain and tensor depend only on its tuple's current row, so
    cells whose rows are equal share one entry.  Cell i is tuple `tids[i]`,
    whose row is distinct row `row[i]`; distinct rows are numbered in the
    order of their first cell.  Only cells whose domain holds at least two
    values are kept: a singleton leaves nothing to choose or learn.  Distinct
    row r's candidates are `candidates[r, :sizes[r]]` in ascending value-id
    order, its observed value sits at `observed_index[r]`, and
    `values[r]`/`mask[r]` are the first slots of its `FeatureTensor` fields.
    Dead slots hold null, zero features and mask False.
    """

    tids: np.ndarray
    row: np.ndarray
    candidates: np.ndarray
    sizes: np.ndarray
    observed_index: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        """The number of cells."""
        return len(self.tids)

    @property
    def mask(self) -> np.ndarray:
        """The live slots: each distinct row's first `sizes[r]`."""
        return np.arange(self.values.shape[1]) < self.sizes[:, None]


def tensor_slots(stats: StatsStore, attr: int, cap: int = DEFAULT_DOMAIN_CAP) -> int:
    """Row allocation for an attribute's tensors: its distinct-value count, capped."""
    return max(1, min(stats.distinct_count(attr), cap))


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row's first occurrence, in order of
    occurrence, and every row's number among them."""
    whole = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(whole, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _runs(keys: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell, per-cell count and per-cell start of packed keys grouped by cell."""
    cells = keys >> SHIFT
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
        tau: float = DEFAULT_TAU,
    ):
        if not 0.0 <= omega < 1.0:
            raise DataError(f"omega must lie in [0, 1), got {omega}")
        if cap < 1:
            raise DataError(f"domain cap must be >= 1, got {cap}")
        if not 0.0 <= tau < 1.0:  # NaN too
            raise DataError(f"tau must lie in [0, 1), got {tau}")
        self.stats = stats
        self.correlations = correlations
        self.omega = omega
        self.cap = cap
        self.tau = tau

    def _contexts(self, attr: int, rows: np.ndarray) -> tuple:
        """Every value of `attr` counted with each context value of each cell,
        whose tuple holds `rows[cell]`: (context attribute, packed (cell,
        value) key, count) arrays in context order, each context's keys sorted
        ascending, and each context value's frequency, the sum of its row, at
        `[context attribute, cell]` (0 in `attr`'s own row)."""
        context, cells, vids, counts = self.stats.cooccurring(attr, rows)
        n_attrs, n_cells = self.stats.n_attrs, len(rows)
        frequency = context * n_cells + cells
        frequency = np.bincount(frequency, weights=counts, minlength=n_attrs * n_cells)
        return context, (cells << SHIFT) | vids, counts, frequency.reshape(n_attrs, n_cells)

    def _domains(self, attr: int, rows: np.ndarray, fetched: tuple) -> tuple[np.ndarray, ...]:
        """Every cell's candidate domain, as packed (cell, value) keys sorted
        ascending, plus each cell's observed index and domain size.  Cell i's
        tuple holds `rows[i]`, and `fetched` is as `_contexts` gives it.

        A context attribute qualifies when the cell's attribute is sufficiently
        predictable from it, i.e. their correlation (normalized over the cell
        attribute's domain) exceeds omega.  In each, a value is proposed only
        when it co-occurs with the cell's context value at least
        `tau * frequency` times.  Null is never proposed, though a null
        observed value stays in its own domain.  Beyond `cap` values, the
        candidates with the highest summed co-occurrence counts are kept
        (observed value always retained; ties broken toward lower value ids).
        """
        n_cells, observed = len(rows), rows[:, attr]
        context, keys, counts, frequency = fetched
        cells, vids = keys >> SHIFT, keys & LOW
        keep = (np.asarray(self.correlations[attr]) > self.omega)[context]
        keep &= (vids != NULL_ID) & (vids != observed[cells])
        keep &= counts >= self.tau * frequency[context, cells]
        del cells, vids
        # the observed values outweigh every candidate, and each context's keys
        # are sorted, so a stable sort merges them in context order after them;
        # integer counts sum exactly in any order
        own = (np.arange(n_cells, dtype=np.int64) << SHIFT) | observed
        proposed = np.concatenate([own, keys[keep]])
        order = np.argsort(proposed, kind="stable")
        firsts = np.flatnonzero(np.diff(proposed[order], prepend=-1))  # keys are >= 0
        keys = proposed[order[firsts]]
        weights = np.concatenate([np.full(n_cells, np.iinfo(np.int64).max), counts[keep]])
        weights = np.add.reduceat(weights[order], firsts)
        del proposed, order
        cells, sizes, starts = _runs(keys, n_cells)
        if sizes.max(initial=0) > self.cap:
            over = np.flatnonzero(sizes[cells] > self.cap)
            # lexsort is stable, so equal weights keep ascending value order
            ranked = over[np.lexsort((-weights[over], cells[over]))]
            _, group_sizes, group_starts = _runs(keys[ranked], n_cells)
            rank = np.arange(len(ranked)) - np.repeat(group_starts, group_sizes)
            kept = np.ones(len(keys), dtype=bool)
            kept[ranked[rank >= self.cap]] = False
            keys = keys[kept]
            _, sizes, starts = _runs(keys, n_cells)
        return keys, np.searchsorted(keys, own) - starts, sizes

    @staticmethod
    def _located(keys: np.ndarray, fetched: tuple) -> tuple:
        """The fetched counts whose (cell, value) is among `keys`, as (context
        attribute, position in `keys`, count), and the frequencies."""
        at = np.searchsorted(keys, fetched[1])
        inside = np.append(keys, -1)[at] == fetched[1]  # -1: no key, past the end
        return fetched[0][inside], at[inside], fetched[2][inside], fetched[3]

    def _tensors(
        self, attr: int, rows: np.ndarray, keys: np.ndarray, located: tuple, trim: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidates, sizes and feature values of cells as in `_domains`, whose
        tuples hold `rows`, over the packed (cell, value) `keys` grouped by cell
        in slot order: `tensor_slots` wide, or with `trim` a block's width
        (module docstring).  `located` is as `_located` gives it for `keys`; a
        candidate its context value's row lacks keeps 0."""
        n_cells, n_attrs = rows.shape
        slots = tensor_slots(self.stats, attr, self.cap)
        cells, sizes, starts = _runs(keys, n_cells)
        widest = int(sizes.max(initial=0))
        if widest > slots:
            raise DataError(f"domain of size {widest} does not fit {slots} tensor slots")
        if trim and slots <= 128:
            slots = min(slots, max(8, 8 * math.ceil(widest / 8)))
        context, at, counts, frequency = located
        stale = np.argwhere((frequency == 0) & (np.arange(n_attrs) != attr)[:, None])
        if len(stale):  # a row sum is 0 only for a value never counted
            context_attr, cell = stale[0]
            raise DataError(
                f"statistics hold no count for attribute {context_attr}"
                f" value id {rows[cell, context_attr]};"
                " counts are out of step with the store"
            )
        slot = np.arange(len(keys)) - np.repeat(starts, sizes)
        candidates = np.full((n_cells, slots), NULL_ID, dtype=np.int32)
        candidates[cells, slot] = keys & LOW
        values = np.zeros((n_cells, slots, n_attrs), dtype=np.float64)
        values[cells[at], slot[at], context] = counts / frequency[context, cells[at]]
        return candidates, sizes, values

    def block(self, attr: int, tids: Sequence[int], rows) -> FeatureBlock:
        """Feature block of the cells of `attr` in tuples `tids`, whose current
        values are the matching rows of `rows` (one per tid, all attributes)."""
        tids = np.asarray(tids, dtype=np.int64).reshape(-1)
        rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(len(tids), self.stats.n_attrs)
        first, row = _distinct(rows)
        rows = rows[first]
        fetched = self._contexts(attr, rows)
        keys, observed_index, sizes = self._domains(attr, rows, fetched)
        multi = sizes >= 2
        keys = keys[multi[keys >> SHIFT]]
        located = self._located(keys, fetched)  # what the tensors read of `fetched`
        del fetched
        if not multi.all():
            renumber = np.cumsum(multi) - 1
            keys = (renumber[keys >> SHIFT] << SHIFT) | (keys & LOW)
            kept = multi[row]
            tids, row = tids[kept], renumber[row[kept]]
            rows, observed_index = rows[multi], observed_index[multi]
            located = (*located[:3], located[3][:, multi])
        candidates, sizes, values = self._tensors(attr, rows, keys, located, trim=True)
        return FeatureBlock(tids, row, candidates, sizes, observed_index, values)

    def domain(self, cell: CellRef, tuple_values: Sequence[int]) -> CellDomain:
        """Candidate domain of one cell given its tuple's current values."""
        rows = np.asarray([tuple_values], dtype=np.int64)
        keys, observed_index, _ = self._domains(cell.attr, rows, self._contexts(cell.attr, rows))
        return CellDomain(cell, tuple((keys & LOW).tolist()), int(observed_index[0]))

    def tensor(self, domain: CellDomain, tuple_values: Sequence[int]) -> FeatureTensor:
        """Feature tensor of one cell over its candidate domain."""
        rows = np.asarray([tuple_values], dtype=np.int64)
        keys = np.asarray(domain.candidates, dtype=np.int64).reshape(-1)
        located = self._located(keys, self._contexts(domain.cell.attr, rows))
        _, sizes, values = self._tensors(domain.cell.attr, rows, keys, located, trim=False)
        return FeatureTensor(values[0], np.arange(values.shape[1]) < sizes[0], domain)
