"""Streaming frequency statistics with incrementally maintained conditional
entropies and the correlations derived from them.

Counts are exact integers accumulated batch by batch: a per-attribute value
frequency map and, for every ordered attribute pair, a nested co-occurrence
map `{conditioning value: {target value: count}}` (both orientations are kept
so either attribute can act as the context).

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

from .errors import DataError


@dataclass(frozen=True)
class DeltaCounts:
    """Exact count changes produced by ingesting one batch of m tuples.

    `marginals[attr]` maps value -> (old, new) for every value whose frequency
    changed; `pairs[(i, j)]` (only i < j) maps (value_i, value_j) -> (old, new)
    for every co-occurrence count that changed.
    """

    m: int
    marginals: tuple[dict[int, tuple[int, int]], ...]
    pairs: dict[tuple[int, int], dict[tuple[int, int], tuple[int, int]]]


class StatsStore:
    """Exact single-attribute and pairwise co-occurrence counts."""

    def __init__(self, n_attrs: int):
        if n_attrs < 2:
            raise DataError("statistics need at least two attributes")
        self.n_attrs = n_attrs
        self.n = 0
        self.single: list[dict[int, int]] = [{} for _ in range(n_attrs)]
        self._pairs: dict[tuple[int, int], dict[int, dict[int, int]]] = {
            (i, j): {} for i in range(n_attrs) for j in range(n_attrs) if i != j
        }
        self._pair_entries = 0  # distinct value pairs, counted once per unordered key

    def ingest(self, rows: Sequence[Sequence[int]]) -> DeltaCounts:
        """Count a batch of value-id rows and report exactly what changed."""
        marginal_old: list[dict[int, int]] = [{} for _ in range(self.n_attrs)]
        pair_old: dict[tuple[int, int], dict[tuple[int, int], int]] = {
            (i, j): {} for i in range(self.n_attrs) for j in range(i + 1, self.n_attrs)
        }
        for row in rows:
            if len(row) != self.n_attrs:
                raise DataError(f"row has {len(row)} values, expected {self.n_attrs}")
            for attr, vid in enumerate(row):
                table = self.single[attr]
                count = table.get(vid, 0)
                marginal_old[attr].setdefault(vid, count)
                table[vid] = count + 1
            for i in range(self.n_attrs):
                vi = row[i]
                for j in range(i + 1, self.n_attrs):
                    vj = row[j]
                    forward = self._pairs[(i, j)].setdefault(vi, {})
                    count = forward.get(vj, 0)
                    pair_old[(i, j)].setdefault((vi, vj), count)
                    forward[vj] = count + 1
                    self._pairs[(j, i)].setdefault(vj, {})[vi] = count + 1
        self.n += len(rows)
        self._pair_entries += sum(
            not old for changed in pair_old.values() for old in changed.values()
        )
        marginals = tuple(
            {vid: (old, self.single[attr][vid]) for vid, old in changed.items()}
            for attr, changed in enumerate(marginal_old)
        )
        pairs = {
            key: {
                pair: (old, self._pairs[key][pair[0]][pair[1]])
                for pair, old in changed.items()
            }
            for key, changed in pair_old.items()
            if changed
        }
        return DeltaCounts(len(rows), marginals, pairs)

    def frequency(self, attr: int, vid: int) -> int:
        return self.single[attr].get(vid, 0)

    def distinct_count(self, attr: int) -> int:
        return len(self.single[attr])

    def pair_count(self, attr_a: int, vid_a: int, attr_b: int, vid_b: int) -> int:
        return self._pairs[(attr_a, attr_b)].get(vid_a, {}).get(vid_b, 0)

    def cooccurring(self, target_attr: int, context_attr: int, context_vid: int) -> dict[int, int]:
        """Counts of target-attribute values co-occurring with one context value."""
        return self._pairs[(context_attr, target_attr)].get(context_vid, {})

    def iter_pairs(self, attr_a: int, attr_b: int) -> Iterator[tuple[int, int, int]]:
        """(value_a, value_b, count) triples with count > 0."""
        for va, row in self._pairs[(attr_a, attr_b)].items():
            for vb, count in row.items():
                yield va, vb, count

    def live_bytes(self) -> int:
        """Deterministic rough estimate of resident size (CPython dict-entry costs):
        a value costs its frequency entry and the row it opens in each of the
        N-1 tables it conditions, a value pair one entry per orientation."""
        values = sum(len(table) for table in self.single)
        per_value = 96 + 72 * (self.n_attrs - 1)
        return per_value * values + 192 * self._pair_entries + 112 * len(self._pairs)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        pairs = {}
        for i in range(self.n_attrs):
            for j in range(i + 1, self.n_attrs):
                triples = sorted(self.iter_pairs(i, j))
                if triples:
                    pairs[f"{i},{j}"] = [list(t) for t in triples]
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
        stats = cls(payload["n_attrs"])
        stats.n = payload["n"]
        for attr, entries in enumerate(payload["single"]):
            stats.single[attr] = {vid: count for vid, count in entries}
        for key, triples in payload["pairs"].items():
            i, j = (int(part) for part in key.split(","))
            for vi, vj, count in triples:
                stats._pairs[(i, j)].setdefault(vi, {})[vj] = count
                stats._pairs[(j, i)].setdefault(vj, {})[vi] = count
            stats._pair_entries += len(triples)
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
    for context_vid, row in stats._pairs[(y_attr, x_attr)].items():
        w = marginals[context_vid]
        for z in row.values():
            total -= (z / n) * math.log(z / w)
    return total


def _c_ln_c(counts: Iterable[int]) -> float:
    return math.fsum(c * math.log(c) for c in counts)


def scratch_accumulator(stats: StatsStore) -> EntropyAccumulator:
    """Accumulator rebuilt from scratch over the store's current counts."""
    acc = EntropyAccumulator(stats.n_attrs)
    acc.n = stats.n
    acc.marginal = [_c_ln_c(table.values()) for table in stats.single]
    for i, j in acc.pair:
        acc.pair[(i, j)] = _c_ln_c(count for _, _, count in stats.iter_pairs(i, j))
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
    for key, changed in delta.pairs.items():
        acc.pair[key] += _c_ln_c_change(changed.values())
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
