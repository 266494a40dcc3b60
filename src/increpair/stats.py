"""Streaming frequency statistics with incrementally maintained conditional
entropies and the correlations derived from them.

Counts are exact integers accumulated batch by batch, all in one layout: a
table of sorted unique int64 keys with an int64 count array.  Each attribute
has one keyed by value id, and every ordered attribute pair (context, target)
one keyed by `context vid << 32 | target vid`.  Both orientations are kept
so either attribute can act as the context.  The featurizer asks one query,
so no other module reads a key: `cooccurring` slices each context value's
row, the keys from `vid << 32` to `(vid + 1) << 32`.  A row's counts sum to
its value's count, since each tuple adds one to exactly one pair of a table.
`ingest` counts a batch per attribute and per attribute pair with one
`np.unique` each and merges it into the tables with `add_counts`, which
finds each new key's place with `searchsorted` and scatters old and new keys
into the union through a boolean mask.

Conditional entropy H(X|Y), in nats, with z the co-occurrence count and w the
conditioning value's marginal count, is

    n * H(X|Y) = - sum_xy z_xy ln(z_xy / w_y) = sum_y w_y ln w_y - sum_xy z_xy ln z_xy

so `EntropyAccumulator` keeps one sum of c ln c per attribute and one per
unordered attribute pair, N + N(N-1)/2 floats.  A batch moves each sum by
c ln c(new) - c ln c(old) over the counts it changed: `apply_delta` reads only
the batch's `DeltaCounts`, and `math.fsum` makes each step independent of the
order of the changes.  `cond_entropy_scratch` is the reference, evaluated from
the definition; `apply_delta` must agree with it to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .relation import int_rows

# A value pair packed into one int64 sort key, the first value in the high bits.
# Ids below 2**31 keep every key non-negative, so keys sort as their pairs do.
SHIFT = 32
LOW = (1 << SHIFT) - 1
ID_LIMIT = 1 << 31


def add_counts(
    keys: np.ndarray, counts: np.ndarray, new: np.ndarray, new_counts: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The sorted union of sorted unique `keys` and `new`, with the counts of
    equal keys summed, and the count each key of `new` had in `keys` (0 if none)."""
    at, fresh = insertion_points(keys, new)
    place = at + np.cumsum(fresh) - fresh  # each key of `new` in the union
    opened = np.zeros(len(keys) + np.count_nonzero(fresh), dtype=bool)
    opened[place[fresh]] = True
    union = np.empty(len(opened), dtype=np.int64)
    summed = np.zeros(len(opened), dtype=np.int64)
    union[~opened], summed[~opened] = keys, counts
    union[opened] = new[fresh]
    old = summed[place]
    summed[place] = old + new_counts
    return (union, summed), old


def insertion_points(keys: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of the sorted keys `new` goes in sorted `keys`, and which of
    them `keys` lacks."""
    at = np.searchsorted(keys, new)
    return at, np.append(keys, -1)[at] != new  # -1: no key, past the end


@dataclass(frozen=True)
class PairDelta:
    """Count changes of one attribute's values or one attribute pair's value
    pairs: sorted keys, value ids or packed keys oriented as in the (lower
    attribute, higher attribute) table, with each count before and after the
    batch."""

    keys: np.ndarray
    old: np.ndarray
    new: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class DeltaCounts:
    """Exact count changes produced by ingesting one batch of m tuples: every
    value frequency (`marginals[attr]`) and every co-occurrence count
    (`pairs[(i, j)]`, only i < j) that changed."""

    m: int
    marginals: tuple[PairDelta, ...]
    pairs: dict[tuple[int, int], PairDelta]


class StatsStore:
    """Exact single-attribute and pairwise co-occurrence counts."""

    def __init__(self, n_attrs: int):
        if n_attrs < 2:
            raise DataError("statistics need at least two attributes")
        self.n_attrs = n_attrs
        self.n = 0
        empty = np.empty(0, dtype=np.int64)
        self._marginals: list[tuple[np.ndarray, np.ndarray]] = [(empty, empty)] * n_attrs
        self._tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {
            (i, j): (empty, empty) for i in range(n_attrs) for j in range(n_attrs) if i != j
        }

    def _add(self, i: int, j: int, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Add counts of sorted unique packed (i, j) keys to both orientations of
        the pair's table; returns the counts before."""
        self._tables[(i, j)], old = add_counts(*self._tables[(i, j)], keys, counts)
        mirrored = ((keys & LOW) << SHIFT) | (keys >> SHIFT)
        order = np.argsort(mirrored)
        self._tables[(j, i)], _ = add_counts(*self._tables[(j, i)], mirrored[order], counts[order])
        return old

    def ingest(self, rows: Sequence[Sequence[int]]) -> DeltaCounts:
        """Count a batch of value-id rows and report exactly what changed."""
        values = int_rows(rows, self.n_attrs, "rows of value ids")
        if values.min(initial=0) < 0 or values.max(initial=0) >= ID_LIMIT:
            raise DataError("value ids must lie in [0, 2**31)")
        marginals = []
        for attr in range(self.n_attrs):
            vids, counts = np.unique(values[:, attr], return_counts=True)
            self._marginals[attr], old = add_counts(*self._marginals[attr], vids, counts)
            marginals.append(PairDelta(vids, old, old + counts))
        pairs = {}
        for i in range(self.n_attrs):
            for j in range(i + 1, self.n_attrs):
                packed = (values[:, i] << SHIFT) | values[:, j]
                keys, counts = np.unique(packed, return_counts=True)
                old = self._add(i, j, keys, counts)
                pairs[(i, j)] = PairDelta(keys, old, old + counts)
        self.n += len(values)
        return DeltaCounts(len(values), tuple(marginals), pairs)

    def table(self, attr_a: int, attr_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted packed (value_a, value_b) keys of an attribute pair and their
        positive counts.  Read-only: `ingest` replaces, never edits, them."""
        return self._tables[(attr_a, attr_b)]

    def cooccurring(
        self, context_attr: int, attr: int, context_vids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every value of `attr` counted with each of `context_vids`, values of
        `context_attr`: (index into `context_vids`, value id, count), grouped by
        index, each group in value order."""
        keys, counts = self._tables[(context_attr, attr)]
        context_vids = np.asarray(context_vids, dtype=np.int64)
        starts = np.searchsorted(keys, context_vids << SHIFT)
        sizes = np.searchsorted(keys, (context_vids + 1) << SHIFT) - starts
        index = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        positions = np.arange(len(index)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        return index, keys[positions] & LOW, counts[positions]

    @property
    def single(self) -> list[dict[int, int]]:
        """Each attribute's value counts as a `{vid: count}` dict, built on each read."""
        return [dict(zip(vids.tolist(), counts.tolist())) for vids, counts in self._marginals]

    def distinct_count(self, attr: int) -> int:
        return len(self._marginals[attr][0])

    def iter_pairs(self, attr_a: int, attr_b: int) -> Iterator[tuple[int, int, int]]:
        """(value_a, value_b, count) triples with count > 0, in key order."""
        keys, counts = self._tables[(attr_a, attr_b)]
        return zip((keys >> SHIFT).tolist(), (keys & LOW).tolist(), counts.tolist())

    def live_bytes(self) -> int:
        """A fixed, deterministic size model, not a measurement: CPython dict-entry
        costs of the nested-dict layout the counts once had.  A value costs its
        frequency entry and the row it opens in each of the N-1 tables it
        conditions, a value pair one entry per orientation.  The engine does
        not read it; bench/stream.py reports it as `stats.live_bytes`."""
        values = sum(len(vids) for vids, _ in self._marginals)
        per_value = 96 + 72 * (self.n_attrs - 1)
        pair_entries = sum(len(keys) for (i, j), (keys, _) in self._tables.items() if i < j)
        return per_value * values + 192 * pair_entries + 112 * len(self._tables)


class EntropyAccumulator:
    """H(X|Y) in nats for every ordered attribute pair, from sums of c ln c over
    each attribute's value counts (`marginal[y]`) and each unordered pair's
    co-occurrence counts (`pair[(i, j)]`, i < j)."""

    def __init__(self, n_attrs: int):
        self.n_attrs = n_attrs
        self.n = 0
        self.marginal = [0.0] * n_attrs
        self.pair: dict[tuple[int, int], float] = {
            (i, j): 0.0 for i in range(n_attrs) for j in range(i + 1, n_attrs)
        }

    def value(self, x_attr: int, y_attr: int) -> float:
        if x_attr == y_attr:
            raise DataError("conditional entropy needs two distinct attributes")
        if self.n == 0:
            return 0.0
        key = (x_attr, y_attr) if x_attr < y_attr else (y_attr, x_attr)
        return (self.marginal[y_attr] - self.pair[key]) / self.n


def cond_entropy_scratch(stats: StatsStore, x_attr: int, y_attr: int) -> float:
    """Reference H(X|Y) in nats, evaluated directly from the current counts."""
    if x_attr == y_attr:
        raise DataError("conditional entropy needs two distinct attributes")
    if stats.n == 0:
        raise DataError("no tuples ingested")
    n = stats.n
    keys, z = stats.table(y_attr, x_attr)
    vids, counts = stats._marginals[y_attr]
    w = counts[np.searchsorted(vids, keys >> SHIFT)]  # each pair's context value count
    total = 0.0
    for z_xy, w_y in zip(z.tolist(), w.tolist()):
        total -= (z_xy / n) * math.log(z_xy / w_y)
    return total


def _c_ln_c(counts: Iterable[int]) -> float:
    return math.fsum(c * math.log(c) for c in counts)


def scratch_accumulator(stats: StatsStore) -> EntropyAccumulator:
    """Accumulator rebuilt from scratch over the store's current counts."""
    acc = EntropyAccumulator(stats.n_attrs)
    acc.n = stats.n
    acc.marginal = [_c_ln_c(counts.tolist()) for _, counts in stats._marginals]
    for i, j in acc.pair:
        acc.pair[(i, j)] = _c_ln_c(stats.table(i, j)[1].tolist())
    return acc


# c ln c of every count below its length, each term by `math.log`, 0 at c = 0;
# shared by every caller, since growing it appends entries and changes none
_C_LN_C = np.zeros(1)


def _c_ln_c_change(old: np.ndarray, new: np.ndarray) -> float:
    """Change of sum(c ln c) when each count moves from `old` to `new`.

    The terms are read from a table of `c * math.log(c)` grown geometrically
    to the largest count, so each has the bits of `new * math.log(new) -
    old * math.log(old or 1)`, and `math.fsum` adds them exactly.
    """
    global _C_LN_C
    top = int(max(old.max(initial=0), new.max(initial=0)))
    if top >= len(_C_LN_C):
        known = len(_C_LN_C)
        grown = max(top + 1, 2 * known)
        terms = np.fromiter((c * math.log(c) for c in range(known, grown)), np.float64)
        _C_LN_C = np.concatenate([_C_LN_C, terms])
    return math.fsum((_C_LN_C[new] - _C_LN_C[old]).tolist())


def apply_delta(acc: EntropyAccumulator, stats_after: StatsStore, delta: DeltaCounts) -> None:
    """Advance every ordered pair's H(X|Y) across one ingested batch.

    The accumulator must be in step with the statistics: acc.n + delta.m must
    equal stats_after.n, and the delta's marginal changes must sum to m for
    every attribute.  Only the delta's changed counts are read, so the cost
    is O(|delta|) whatever the history.
    """
    n_old = acc.n
    m = delta.m
    if n_old + m != stats_after.n:
        raise DataError(
            f"delta of {m} rows does not connect accumulator at n={n_old}"
            f" to statistics at n={stats_after.n}"
        )
    for attr, change in enumerate(delta.marginals):
        total = int(np.sum(change.new - change.old))
        if total != m:
            raise DataError(
                f"marginal deltas for attribute {attr} sum to {total}, expected {m}"
            )
    for attr, change in enumerate(delta.marginals):
        acc.marginal[attr] += _c_ln_c_change(change.old, change.new)
    for key, change in delta.pairs.items():
        acc.pair[key] += _c_ln_c_change(change.old, change.new)
    acc.n = n_old + m


def correlation(stats: StatsStore, acc: EntropyAccumulator, x_attr: int, y_attr: int) -> float:
    """1 minus the normalized conditional entropy of x given y, clamped to [0, 1].

    Normalization uses the log of x's current distinct-value count, i.e. the
    entropy is read in that base.  An attribute with a single value carries no
    signal and correlates 0 with everything; every attribute correlates 1 with
    itself.
    """
    if acc.n != stats.n:
        raise DataError(
            f"entropy accumulator at n={acc.n} is out of step with statistics at n={stats.n}"
        )
    if x_attr == y_attr:
        return 1.0
    domain_size = stats.distinct_count(x_attr)
    if domain_size <= 1:
        return 0.0
    normalized = acc.value(x_attr, y_attr) / math.log(domain_size)
    return min(1.0, max(0.0, 1.0 - normalized))


def correlation_matrix(stats: StatsStore, acc: EntropyAccumulator) -> list[list[float]]:
    n = stats.n_attrs
    return [
        [correlation(stats, acc, i, j) for j in range(n)]
        for i in range(n)
    ]


def joint_distribution(stats: StatsStore, attr_a: int, attr_b: int) -> dict[tuple[int, int], float]:
    """Empirical joint distribution of an attribute pair; masses sum to 1."""
    if attr_a == attr_b:
        raise DataError("joint distribution needs two distinct attributes")
    if stats.n == 0:
        raise DataError("no tuples ingested")
    n = stats.n
    return {
        (va, vb): count / n
        for va, vb, count in stats.iter_pairs(attr_a, attr_b)
    }
