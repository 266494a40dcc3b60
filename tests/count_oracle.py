"""Scalar reference for `StatsStore.ingest`: nested-dict counts, one row at a
time, plus dict views of the packed arrays the engine keeps.

`DictCounts` is the statistics layer's former representation, kept here as an
oracle: for a value pair of attributes i < j it holds
`{value_i: {value_j: count}}` in both orientations and reports a batch's
changes as `{(value_i, value_j): (old, new)}`.  The `*_view` helpers turn the
engine's packed (high id << 32 | low id) arrays into the same dict shapes, so
tests compare contents, not layouts; `cooccurring` and `pair_count` read
single counts out of them.  `weighted_stats` builds a `StatsStore`
holding counts far larger than any batch a test could ingest.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from increpair.stats import LOW, SHIFT, DeltaCounts, PairDelta, StatsStore, add_counts


class DictCounts:
    """Exact single-attribute and pairwise counts in nested dicts."""

    def __init__(self, n_attrs: int):
        self.n_attrs = n_attrs
        self.n = 0
        self.single: list[dict[int, int]] = [{} for _ in range(n_attrs)]
        self.pairs: dict[tuple[int, int], dict[int, dict[int, int]]] = {
            (i, j): {} for i in range(n_attrs) for j in range(n_attrs) if i != j
        }

    def ingest(self, rows: Sequence[Sequence[int]]):
        """Count a batch row by row; returns (m, marginal changes, pair changes)."""
        marginal_old: list[dict[int, int]] = [{} for _ in range(self.n_attrs)]
        pair_old: dict[tuple[int, int], dict[tuple[int, int], int]] = {
            (i, j): {} for i in range(self.n_attrs) for j in range(i + 1, self.n_attrs)
        }
        for row in rows:
            for attr, vid in enumerate(row):
                count = self.single[attr].get(vid, 0)
                marginal_old[attr].setdefault(vid, count)
                self.single[attr][vid] = count + 1
            for i in range(self.n_attrs):
                for j in range(i + 1, self.n_attrs):
                    vi, vj = row[i], row[j]
                    forward = self.pairs[(i, j)].setdefault(vi, {})
                    count = forward.get(vj, 0)
                    pair_old[(i, j)].setdefault((vi, vj), count)
                    forward[vj] = count + 1
                    self.pairs[(j, i)].setdefault(vj, {})[vi] = count + 1
        self.n += len(rows)
        marginals = tuple(
            {vid: (old, self.single[attr][vid]) for vid, old in changed.items()}
            for attr, changed in enumerate(marginal_old)
        )
        pairs = {
            key: {(vi, vj): (old, self.pairs[key][vi][vj]) for (vi, vj), old in changed.items()}
            for key, changed in pair_old.items()
            if changed
        }
        return len(rows), marginals, pairs

    def iter_pairs(self, attr_a: int, attr_b: int):
        for va, row in self.pairs[(attr_a, attr_b)].items():
            for vb, count in row.items():
                yield va, vb, count


def pairs_view(keys: np.ndarray, *columns: np.ndarray) -> dict:
    """{(high id, low id): column value, or a tuple of them} of packed keys."""
    ids = zip((keys >> SHIFT).tolist(), (keys & LOW).tolist())
    values = [column.tolist() for column in columns]
    return dict(zip(ids, values[0] if len(values) == 1 else zip(*values)))


def delta_view(delta: DeltaCounts):
    """(m, marginal changes, pair changes) of a delta, in `DictCounts.ingest`'s shapes."""
    marginals = tuple(
        dict(zip(change.keys.tolist(), zip(change.old.tolist(), change.new.tolist())))
        for change in delta.marginals
    )
    pairs = {
        key: pairs_view(change.keys, change.old, change.new)
        for key, change in delta.pairs.items()
    }
    return delta.m, marginals, pairs


def changes(changed: dict[int, tuple[int, int]]) -> PairDelta:
    """The engine's form of `{key: (old, new)}` count changes."""
    keys = sorted(changed)
    old, new = (np.array([changed[k][side] for k in keys], dtype=np.int64) for side in (0, 1))
    return PairDelta(np.array(keys, dtype=np.int64), old, new)


def delta_from_dicts(m, marginals, pairs) -> DeltaCounts:
    """The engine's delta for changes given as `{vid: (old, new)}` and
    `{(value_i, value_j): (old, new)}` dicts."""
    packed = {
        key: changes({(vi << SHIFT) | vj: change for (vi, vj), change in changed.items()})
        for key, changed in pairs.items()
    }
    return DeltaCounts(m, tuple(map(changes, marginals)), packed)


def cooccurring(
    stats: StatsStore, target_attr: int, context_attr: int, context_vid: int
) -> dict[int, int]:
    """Counts of target-attribute values co-occurring with one context value."""
    keys, counts = stats.table(context_attr, target_attr)
    start, stop = np.searchsorted(keys, [context_vid << SHIFT, (context_vid + 1) << SHIFT])
    return dict(zip((keys[start:stop] & LOW).tolist(), counts[start:stop].tolist()))


def pair_count(stats: StatsStore, attr_a: int, vid_a: int, attr_b: int, vid_b: int) -> int:
    return cooccurring(stats, attr_b, attr_a, vid_a).get(vid_b, 0)


def weighted_stats(tuple_counts: dict[tuple[int, ...], int], n_attrs: int) -> StatsStore:
    """A store holding the given count of each distinct row, as if each row had
    been ingested that many times; the counts go straight into its tables."""
    stats = StatsStore(n_attrs)
    for row, count in tuple_counts.items():
        stats.n += count
        for attr, vid in enumerate(row):
            vids, counts = np.array([vid], dtype=np.int64), np.array([count], dtype=np.int64)
            stats._marginals[attr], _ = add_counts(*stats._marginals[attr], vids, counts)
        for i in range(n_attrs):
            for j in range(i + 1, n_attrs):
                key = np.array([(row[i] << SHIFT) | row[j]], dtype=np.int64)
                stats._add(i, j, key, np.array([count], dtype=np.int64))
    return stats
