"""Scalar reference for `StatsStore.ingest`: nested-dict counts, one row at a
time, plus dict views of the packed arrays the engine keeps.

`DictCounts` is the statistics layer's former representation, kept here as an
oracle: for a value pair of attributes i < j it holds
`{value_i: {value_j: count}}` in both orientations and reports a batch's
changes as `{(value_i, value_j): (old, new)}`.  The `*_view` helpers turn the
engine's packed (high id << 32 | low id) arrays into the same dict shapes, so
tests compare contents, not layouts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from increpair.stats import LOW, SHIFT, DeltaCounts, PairDelta


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
    pairs = {
        key: pairs_view(change.keys, change.old, change.new)
        for key, change in delta.pairs.items()
    }
    return delta.m, delta.marginals, pairs


def delta_from_dicts(m, marginals, pairs) -> DeltaCounts:
    """The engine's delta for changes given as `{(value_i, value_j): (old, new)}` dicts."""
    packed = {}
    for key, changed in pairs.items():
        items = sorted(changed.items())
        keys = np.array([(vi << SHIFT) | vj for (vi, vj), _ in items], dtype=np.int64)
        old = np.array([o for _, (o, _) in items], dtype=np.int64)
        new = np.array([n for _, (_, n) in items], dtype=np.int64)
        packed[key] = PairDelta(keys, old, new)
    return DeltaCounts(m, tuple(marginals), packed)
