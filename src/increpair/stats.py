"""Streaming frequency statistics with incrementally maintained conditional
entropies and the correlations derived from them.

Counts are exact integers accumulated batch by batch: a per-attribute value
frequency map and, for every ordered attribute pair (context, target), a
co-occurrence table of sorted unique int64 keys `context vid << 32 | target
vid` with an int64 count array.  A context value's row is the key slice from
`vid << 32` to `(vid + 1) << 32`, found with `searchsorted`.  Both
orientations are kept so either attribute can act as the context.  `ingest`
counts a batch per attribute pair with one `np.unique` and merges it into
both tables with `searchsorted` and `np.insert`.

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


def to_triples(keys: np.ndarray, counts: np.ndarray) -> list[list[int]]:
    """[high id, low id, count] lists of packed keys, in key order."""
    return np.stack([keys >> SHIFT, keys & LOW, counts], axis=1).tolist()


def from_triples(entries, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted packed keys and counts of [high id, low id, count] triples,
    each value pair listed once."""
    rows = int_rows(entries, 3, what)
    if ((rows[:, :2] < 0) | (rows[:, :2] >= ID_LIMIT)).any():
        raise DataError(f"{what} hold a value id outside [0, 2**31)")
    keys = (rows[:, 0] << SHIFT) | rows[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise DataError(f"{what} list a value pair more than once")
    return keys, rows[order, 2]


@dataclass(frozen=True)
class PairDelta:
    """Count changes of one attribute pair's value pairs: sorted packed keys,
    oriented as in the (lower attribute, higher attribute) table, with each
    pair's count before and after the batch."""

    keys: np.ndarray
    old: np.ndarray
    new: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class DeltaCounts:
    """Exact count changes produced by ingesting one batch of m tuples.

    `marginals[attr]` maps value -> (old, new) for every value whose frequency
    changed; `pairs[(i, j)]` (only i < j) holds every co-occurrence count that
    changed.
    """

    m: int
    marginals: tuple[dict[int, tuple[int, int]], ...]
    pairs: dict[tuple[int, int], PairDelta]


class StatsStore:
    """Exact single-attribute and pairwise co-occurrence counts."""

    def __init__(self, n_attrs: int):
        if n_attrs < 2:
            raise DataError("statistics need at least two attributes")
        self.n_attrs = n_attrs
        self.n = 0
        self.single: list[dict[int, int]] = [{} for _ in range(n_attrs)]
        empty = np.empty(0, dtype=np.int64)
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
        if not len(values):
            return DeltaCounts(0, tuple({} for _ in self.single), {})
        if values.min() < 0 or values.max() >= ID_LIMIT:
            raise DataError("value ids must lie in [0, 2**31)")
        marginals = []
        for attr, table in enumerate(self.single):
            vids, counts = np.unique(values[:, attr], return_counts=True)
            changed = {}
            for vid, count in zip(vids.tolist(), counts.tolist()):
                old = table.get(vid, 0)
                changed[vid] = (old, old + count)
                table[vid] = old + count
            marginals.append(changed)
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

    def frequency(self, attr: int, vid: int) -> int:
        return self.single[attr].get(vid, 0)

    def distinct_count(self, attr: int) -> int:
        return len(self.single[attr])

    def pair_count(self, attr_a: int, vid_a: int, attr_b: int, vid_b: int) -> int:
        return self.cooccurring(attr_b, attr_a, vid_a).get(vid_b, 0)

    def cooccurring(self, target_attr: int, context_attr: int, context_vid: int) -> dict[int, int]:
        """Counts of target-attribute values co-occurring with one context value."""
        keys, counts = self._tables[(context_attr, target_attr)]
        start, stop = np.searchsorted(keys, [context_vid << SHIFT, (context_vid + 1) << SHIFT])
        return dict(zip((keys[start:stop] & LOW).tolist(), counts[start:stop].tolist()))

    def iter_pairs(self, attr_a: int, attr_b: int) -> Iterator[tuple[int, int, int]]:
        """(value_a, value_b, count) triples with count > 0, in key order."""
        keys, counts = self._tables[(attr_a, attr_b)]
        return zip((keys >> SHIFT).tolist(), (keys & LOW).tolist(), counts.tolist())

    def live_bytes(self) -> int:
        """A fixed, deterministic size model, not a measurement: CPython dict-entry
        costs of the nested-dict layout the counts once had.  A value costs its
        frequency entry and the row it opens in each of the N-1 tables it
        conditions, a value pair one entry per orientation.  Kept so the
        `peak_live_bytes` of metric lines stays byte-stable."""
        values = sum(len(table) for table in self.single)
        per_value = 96 + 72 * (self.n_attrs - 1)
        pair_entries = sum(len(keys) for (i, j), (keys, _) in self._tables.items() if i < j)
        return per_value * values + 192 * pair_entries + 112 * len(self._tables)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        pairs = {
            f"{i},{j}": to_triples(keys, counts)
            for (i, j), (keys, counts) in sorted(self._tables.items())
            if i < j and len(keys)
        }
        return {
            "n_attrs": self.n_attrs,
            "n": self.n,
            "single": [
                sorted([vid, count] for vid, count in table.items()) for table in self.single
            ],
            "pairs": pairs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StatsStore":
        single = payload["single"]
        if payload["n_attrs"] != len(single):  # before allocating n_attrs**2 tables
            raise DataError(f"{len(single)} value-count tables for {payload['n_attrs']} attrs")
        stats = cls(payload["n_attrs"])
        stats.n = payload["n"]
        for attr, entries in enumerate(single):
            vids, counts = int_rows(entries, 2, f"attribute {attr}'s value counts").T.tolist()
            stats.single[attr] = dict(zip(vids, counts))
        for name, triples in payload["pairs"].items():
            i, j = (int(part) for part in name.split(","))
            if name != f"{i},{j}" or not 0 <= i < j < stats.n_attrs:
                raise DataError(f"no attribute pair {name!r}")
            stats._add(i, j, *from_triples(triples, f"pair ({i}, {j})'s counts"))
        return stats


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

    def to_dict(self) -> dict:
        sums = {"marginal": list(self.marginal), "pair": list(self.pair.values())}
        return {"n_attrs": self.n_attrs, "n": self.n, **sums}

    @classmethod
    def from_dict(cls, payload: dict) -> "EntropyAccumulator":
        if payload["n_attrs"] != len(payload["marginal"]):
            raise DataError(f"wrong number of entropy sums for {payload['n_attrs']} attributes")
        acc = cls(payload["n_attrs"])
        acc.n = payload["n"]
        marginal, pair = list(payload["marginal"]), list(payload["pair"])
        if (len(marginal), len(pair)) != (len(acc.marginal), len(acc.pair)):
            raise DataError(f"wrong number of entropy sums for {acc.n_attrs} attributes")
        if not all(math.isfinite(value) for value in marginal + pair):
            raise DataError("entropy sums must be finite")
        acc.marginal = [float(value) for value in marginal]
        acc.pair = dict(zip(acc.pair, map(float, pair)))
        return acc


def cond_entropy_scratch(stats: StatsStore, x_attr: int, y_attr: int) -> float:
    """Reference H(X|Y) in nats, evaluated directly from the current counts."""
    if x_attr == y_attr:
        raise DataError("conditional entropy needs two distinct attributes")
    if stats.n == 0:
        raise DataError("no tuples ingested")
    n = stats.n
    marginals = stats.single[y_attr]
    total = 0.0
    for context_vid, _, z in stats.iter_pairs(y_attr, x_attr):
        total -= (z / n) * math.log(z / marginals[context_vid])
    return total


def _c_ln_c(counts: Iterable[int]) -> float:
    return math.fsum(c * math.log(c) for c in counts)


def scratch_accumulator(stats: StatsStore) -> EntropyAccumulator:
    """Accumulator rebuilt from scratch over the store's current counts."""
    acc = EntropyAccumulator(stats.n_attrs)
    acc.n = stats.n
    acc.marginal = [_c_ln_c(table.values()) for table in stats.single]
    for i, j in acc.pair:
        acc.pair[(i, j)] = _c_ln_c(stats.table(i, j)[1].tolist())
    return acc


def _c_ln_c_change(changes: Iterable[tuple[int, int]]) -> float:
    """Change of sum(c ln c) when each count moves from old to new."""
    return math.fsum(new * math.log(new) - old * math.log(old or 1) for old, new in changes)


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
    for attr, changed in enumerate(delta.marginals):
        total = sum(new - old for old, new in changed.values())
        if total != m:
            raise DataError(
                f"marginal deltas for attribute {attr} sum to {total}, expected {m}"
            )
    for attr, changed in enumerate(delta.marginals):
        acc.marginal[attr] += _c_ln_c_change(changed.values())
    for key, change in delta.pairs.items():
        acc.pair[key] += _c_ln_c_change(zip(change.old.tolist(), change.new.tolist()))
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
