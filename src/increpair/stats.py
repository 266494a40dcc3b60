"""Streaming frequency statistics with incrementally maintained conditional
entropies and the correlations derived from them.

Counts are exact integers accumulated batch by batch in one table: int64
keys with an int64 count each, cut by N*N + 1 offsets into segments of
sorted unique keys.  Segment i*N + j holds attributes i and j, keyed
`vid_i << 32 | vid_j`; both orientations are kept, so either attribute can
act as the context, and the diagonal segment a*N + a holds a's value counts,
keyed by value id.  `ingest` sorts the batch's keys of every segment at
once, counts runs of equal keys, finds each key's place in its segment with
one `searchsorted` per segment and merges all of them into a new table in
one pass.  The featurizer asks one query per block, so no other module reads
a key: `cooccurring` slices, for every context attribute at once, each
context value's row, its segment's keys from `vid << 32` to `vid << 32 | LOW`.
A row's counts sum to its value's count, since each tuple adds one to
exactly one pair of a segment.

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
    """Exact value counts and pairwise co-occurrence counts in one table."""

    def __init__(self, n_attrs: int):
        if n_attrs < 2:
            raise DataError("statistics need at least two attributes")
        self.n_attrs = n_attrs
        self.n = 0
        self._keys = self._counts = np.empty(0, dtype=np.int64)
        self._offsets = np.zeros(n_attrs * n_attrs + 1, dtype=np.int64)
        # segment i * n_attrs + j keys i's value id << 32 | j's, the diagonal an id alone
        self._high, self._low = np.divmod(np.arange(n_attrs * n_attrs), n_attrs)
        self._shift = np.where(self._high == self._low, 0, SHIFT)[:, None]

    def _segment(self, attr_a: int, attr_b: int) -> tuple[np.ndarray, np.ndarray]:
        start, stop = self._offsets[attr_a * self.n_attrs + attr_b :][:2]
        return self._keys[start:stop], self._counts[start:stop]

    def ingest(self, rows: Sequence[Sequence[int]]) -> DeltaCounts:
        """Count a batch of value-id rows and report exactly what changed."""
        values = int_rows(rows, self.n_attrs, "rows of value ids")
        if values.min(initial=0) < 0 or values.max(initial=0) >= ID_LIMIT:
            raise DataError("value ids must lie in [0, 2**31)")
        # row s: every tuple's key in segment s, sorted; runs of one key count it
        batch = np.sort((values.T[self._high] << self._shift) | values.T[self._low], axis=1)
        first = np.diff(batch, axis=1, prepend=-1) != 0  # keys are >= 0
        starts = np.flatnonzero(first)
        new, new_counts = batch.reshape(-1)[starts], np.diff(starts, append=batch.size)
        bounds = np.append(0, np.cumsum(np.count_nonzero(first, axis=1)))
        at = np.concatenate([  # where each batch key goes in its segment of the table
            start + np.searchsorted(self._keys[start:stop], new[low:high])
            for start, stop, low, high in zip(self._offsets, self._offsets[1:], bounds, bounds[1:])
        ])
        # a key placed at its segment's end is new, whatever key follows
        fresh = at == np.repeat(self._offsets[1:], np.diff(bounds))
        fresh[~fresh] = self._keys[at[~fresh]] != new[~fresh]
        place = at + np.cumsum(fresh) - fresh  # each batch key in the merged table
        kept = np.ones(len(self._keys) + np.count_nonzero(fresh), dtype=bool)
        kept[place[fresh]] = False
        keys, counts = np.empty((2, len(kept)), dtype=np.int64)  # one allocation
        keys[kept], counts[kept] = self._keys, self._counts
        keys[~kept] = new[fresh]
        old = np.where(fresh, 0, counts[place])
        counts[place] = total = old + new_counts
        self._keys, self._counts = keys, counts
        self._offsets = self._offsets + np.append(0, np.cumsum(fresh))[bounds]
        self.n += len(values)
        n = self.n_attrs

        def change(i: int, j: int) -> PairDelta:
            start, stop = bounds[i * n + j : i * n + j + 2]
            return PairDelta(new[start:stop], old[start:stop], total[start:stop])

        marginals = tuple(change(attr, attr) for attr in range(n))
        pairs = {(i, j): change(i, j) for i in range(n) for j in range(i + 1, n)}
        return DeltaCounts(len(values), marginals, pairs)

    def table(self, attr_a: int, attr_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted packed (value_a, value_b) keys of an attribute pair and their
        positive counts: read-only views of the table, which `ingest` replaces."""
        if attr_a == attr_b or not (0 <= attr_a < self.n_attrs and 0 <= attr_b < self.n_attrs):
            raise DataError(f"no pair table for attributes {attr_a} and {attr_b}")
        views = self._segment(attr_a, attr_b)
        for view in views:
            view.flags.writeable = False
        return views

    def cooccurring(self, attr: int, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every value of `attr` counted with each row's value of every other
        attribute, for rows of value ids: (context attribute, row index, value
        id, count), in context order, each context's counts grouped by row
        index and each group in value order."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.n_attrs)
        contexts = np.delete(np.arange(self.n_attrs), attr)
        segments = contexts * self.n_attrs + attr
        # a context value's counts: its segment's keys from vid << 32 to vid << 32 | LOW
        starts, stops = (
            np.concatenate([
                start + np.searchsorted(self._keys[start:stop], (rows[:, c] << SHIFT) | low, side)
                for c, start, stop in zip(contexts, *self._offsets[[segments, segments + 1]])
            ])
            for low, side in ((0, "left"), (LOW, "right"))
        )
        sizes = stops - starts
        group = np.repeat(np.arange(len(sizes)), sizes)
        positions = np.arange(len(group)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        context, index = np.divmod(group, max(len(rows), 1))
        return contexts[context], index, self._keys[positions] & LOW, self._counts[positions]

    @property
    def single(self) -> list[dict[int, int]]:
        """Each attribute's value counts as a `{vid: count}` dict, built on each read."""
        diagonal = map(self._segment, range(self.n_attrs), range(self.n_attrs))
        return [dict(zip(vids.tolist(), counts.tolist())) for vids, counts in diagonal]

    def distinct_count(self, attr: int) -> int:
        return len(self._segment(attr, attr)[0])

    def iter_pairs(self, attr_a: int, attr_b: int) -> Iterator[tuple[int, int, int]]:
        """(value_a, value_b, count) triples with count > 0, in key order."""
        keys, counts = self.table(attr_a, attr_b)
        return zip((keys >> SHIFT).tolist(), (keys & LOW).tolist(), counts.tolist())

    def live_bytes(self) -> int:
        """A fixed, deterministic size model, not a measurement: CPython dict-entry
        costs of the nested-dict layout the counts once had.  A value costs its
        frequency entry and the row it opens in each of the N-1 tables it
        conditions, a value pair one entry per orientation.  The engine does
        not read it; bench/stream.py reports it as `stats.live_bytes`."""
        n, sizes = self.n_attrs, np.diff(self._offsets).reshape(self.n_attrs, -1)
        values, pair_entries = int(np.trace(sizes)), int(np.triu(sizes, 1).sum())
        return (96 + 72 * (n - 1)) * values + 192 * pair_entries + 112 * n * (n - 1)


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
    vids, counts = stats._segment(y_attr, y_attr)
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
    acc.marginal = [_c_ln_c(stats._segment(a, a)[1].tolist()) for a in range(stats.n_attrs)]
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
