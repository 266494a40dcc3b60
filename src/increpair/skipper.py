"""Retraining decisions driven by drift in pairwise joint value distributions.

When a model is (re)trained, the joint distributions of its attribute with
every other attribute become its reference.  Before the next training
opportunity the divergence of the current joints from the reference decides
whether the model is stale: either any single pairwise divergence exceeds the
threshold (the per-pair rule) or the correlation-weighted mean over the pairs
does (the weighted rule).  The weighted mean never exceeds the per-pair
maximum, so on the same reference the weighted rule fires no more often.

Two paths compute the same divergences.  The reference path
(`record_training`, `should_retrain_ikl`/`wkl`) saves and compares whole
joint distributions.  The engine's path (`record_counts`, `track_counts`,
`count_divergence`, `should_retrain`) keeps, per trained attribute, the row
count n' at training and the training-time count z'_k of each value pair k
changed since (the set D), and evaluates

    KL = sum_{k in D, z_k > 0} (z_k/n) log((z_k/n) / max(z'_k/n', floor))
         + log(n'/n) (n - sum_{k in D} z_k) / n

where z_k is the pair's current count.  Every pair outside D kept its count,
so its term is (z/n) log(n'/n), and the second line sums those.  That holds
only while z/n' is not below the floor, so pairs whose training mass was
below it (possible once n' > 1/floor) join D when training is recorded.  The
cost is O(|D|) per attribute pair, whatever the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .stats import DeltaCounts, StatsStore, add_counts, from_triples, insertion_points, to_triples

DEFAULT_KL_FLOOR = 1e-6

JointDist = dict[tuple[int, int], float]
# sorted packed value pairs, oriented as in the (lower attribute, higher
# attribute) table, and a count for each
PairCounts = tuple[np.ndarray, np.ndarray]


@dataclass
class SkipperState:
    """Per attribute: the batch its model last trained at and the drift reference.

    `trained_n[a]` is the row count n' when `a` last trained, `baseline[a][b]`
    the value pairs of the (a, b) joint in D with the training-time count z'
    of each, and `support[a]` the number of value pairs in `a`'s joints at
    training.
    `saved` holds whole joints for the reference rules only; it is not
    persisted.
    """

    last_trained: dict[int, int] = field(default_factory=dict)
    saved: dict[int, dict[int, JointDist]] = field(default_factory=dict)
    trained_n: dict[int, int] = field(default_factory=dict)
    baseline: dict[int, dict[int, PairCounts]] = field(default_factory=dict)
    support: dict[int, int] = field(default_factory=dict)

    def trained_batch(self, attr: int) -> int:
        """Batch at which the attribute's model last trained; 0 means never."""
        return self.last_trained.get(attr, 0)

    def to_dict(self) -> dict:
        return {
            "last_trained": sorted([attr, k] for attr, k in self.last_trained.items()),
            "trained_n": sorted([attr, n] for attr, n in self.trained_n.items()),
            "support": sorted([attr, s] for attr, s in self.support.items()),
            "baseline": [
                [attr, [[other, to_triples(*pairs)] for other, pairs in sorted(partners.items())]]
                for attr, partners in sorted(self.baseline.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SkipperState":
        state = cls()
        state.last_trained = {attr: k for attr, k in payload["last_trained"]}
        state.trained_n = {attr: n for attr, n in payload["trained_n"]}
        state.support = {attr: s for attr, s in payload["support"]}
        for attr, partners in payload["baseline"]:
            state.baseline[attr] = {
                other: from_triples(entries, f"attribute {attr}'s drift reference")
                for other, entries in partners
            }
        return state


def kl_divergence(
    current: Mapping[tuple[int, int], float],
    saved: Mapping[tuple[int, int], float],
    floor: float = DEFAULT_KL_FLOOR,
) -> float:
    """Divergence of `current` from `saved` over the support of `current`.

    Saved masses below `floor` are lifted to it so unseen atoms stay finite.
    The sum is clamped at zero: flooring can push it a hair negative.
    """
    if floor <= 0:
        raise DataError(f"probability floor must be positive, got {floor}")
    total = 0.0
    for key, p in current.items():
        if p > 0:
            total += p * math.log(p / max(saved.get(key, 0.0), floor))
    return max(0.0, total)


def _ikl_rule(
    state: SkipperState,
    attr: int,
    partners: Iterable[int],
    divergence: Callable[[int], float],
    epsilon: float,
) -> tuple[bool, int | None]:
    if epsilon < 0:
        raise DataError(f"epsilon must be >= 0, got {epsilon}")
    if state.trained_batch(attr) == 0:
        return True, None
    for other in partners:
        if divergence(other) > epsilon:
            return True, other
    return False, None


def _wkl_rule(
    state: SkipperState,
    attr: int,
    partners: Iterable[int],
    divergence: Callable[[int], float],
    correlations: Sequence[Sequence[float]],
    epsilon: float,
) -> tuple[bool, float]:
    if epsilon < 0:
        raise DataError(f"epsilon must be >= 0, got {epsilon}")
    if state.trained_batch(attr) == 0:
        return True, math.inf
    n_attrs = len(correlations)
    if n_attrs < 2:
        raise DataError("weighted divergence needs at least two attributes")
    total = 0.0
    for other in partners:
        total += divergence(other) * correlations[attr][other]
    weighted = total / (n_attrs - 1)
    return weighted > epsilon, weighted


def should_retrain_ikl(
    state: SkipperState,
    attr: int,
    current: Mapping[int, JointDist],
    epsilon: float,
    floor: float = DEFAULT_KL_FLOOR,
) -> tuple[bool, int | None]:
    """Per-pair rule: retrain when any pairwise divergence exceeds epsilon.

    A never-trained attribute always trains.  Returns the first offending
    partner attribute (lowest index) when the rule fires.
    """
    saved = state.saved.get(attr, {})
    return _ikl_rule(
        state,
        attr,
        sorted(current),
        lambda other: kl_divergence(current[other], saved.get(other, {}), floor),
        epsilon,
    )


def should_retrain_wkl(
    state: SkipperState,
    attr: int,
    current: Mapping[int, JointDist],
    correlations: Sequence[Sequence[float]],
    epsilon: float,
    floor: float = DEFAULT_KL_FLOOR,
) -> tuple[bool, float]:
    """Weighted rule: retrain when the correlation-weighted mean divergence
    exceeds epsilon.  Returns the weighted value (inf for a never-trained
    attribute, which always trains)."""
    saved = state.saved.get(attr, {})
    return _wkl_rule(
        state,
        attr,
        sorted(current),
        lambda other: kl_divergence(current[other], saved.get(other, {}), floor),
        correlations,
        epsilon,
    )


def record_training(
    state: SkipperState,
    attr: int,
    current: Mapping[int, JointDist],
    batch: int,
) -> None:
    """Save the joint distributions that the attribute's model was trained on."""
    if batch < 1:
        raise DataError(f"batch ordinal must be >= 1, got {batch}")
    state.last_trained[attr] = batch
    state.saved[attr] = {other: dict(dist) for other, dist in current.items()}


# -- the engine's path: divergences from count deltas --------------------------


def _table(attr: int, other: int) -> tuple[int, int]:
    return (attr, other) if attr < other else (other, attr)


def record_counts(
    state: SkipperState,
    attr: int,
    stats: StatsStore,
    batch: int,
    floor: float = DEFAULT_KL_FLOOR,
) -> None:
    """Make the current counts the attribute's drift reference.

    D starts empty, except for value pairs whose mass is below `floor`: their
    saved mass is floored, so the closed form must see them term by term.
    """
    if batch < 1:
        raise DataError(f"batch ordinal must be >= 1, got {batch}")
    n = stats.n
    partners = [other for other in range(stats.n_attrs) if other != attr]
    state.last_trained[attr] = batch
    state.trained_n[attr] = n
    state.baseline[attr] = {}
    state.support[attr] = 0
    for other in partners:
        keys, counts = stats.table(*_table(attr, other))
        below = counts / n < floor  # never true while 1/n >= floor
        state.baseline[attr][other] = (keys[below], counts[below])
        state.support[attr] += len(keys)


def track_counts(state: SkipperState, delta: DeltaCounts) -> None:
    """Add each value pair the batch changed to D, with its count before the batch.

    A pair already in D keeps its training-time count.  Call once per ingested
    batch, before the next `record_counts`.
    """
    for (i, j), change in delta.pairs.items():
        for attr, other in ((i, j), (j, i)):
            partners = state.baseline.get(attr)
            if partners is None:
                continue
            keys, z_trained = partners[other]
            _, fresh = insertion_points(keys, change.keys)
            partners[other], _ = add_counts(
                keys, z_trained, change.keys[fresh], change.old[fresh]
            )


def count_divergence(
    state: SkipperState,
    stats: StatsStore,
    attr: int,
    other: int,
    floor: float = DEFAULT_KL_FLOOR,
) -> float:
    """KL of the current (attr, other) joint from the one `attr` trained on.

    Equal to `kl_divergence` over `joint_distribution` joints up to rounding,
    in O(|D|); a batch that repeats history proportionally gives exactly 0.
    """
    if floor <= 0:
        raise DataError(f"probability floor must be positive, got {floor}")
    n, n_trained = stats.n, state.trained_n[attr]
    keys, z_trained = state.baseline[attr][other]
    table_keys, table_counts = stats.table(*_table(attr, other))
    current = table_counts[np.searchsorted(table_keys, keys)]  # every pair in D occurs
    p = current / n
    terms = (p * np.log(p / np.maximum(z_trained / n_trained, floor))).tolist()
    terms.append(math.log(n_trained / n) * (n - int(current.sum())) / n)
    return max(0.0, math.fsum(terms))


def should_retrain(
    state: SkipperState,
    stats: StatsStore,
    attr: int,
    rule: str,
    correlations: Sequence[Sequence[float]],
    epsilon: float,
    floor: float = DEFAULT_KL_FLOOR,
) -> tuple[bool, int | float | None]:
    """The `ikl` or `wkl` verdict from count deltas, as `should_retrain_ikl` or
    `should_retrain_wkl` would give it on `joint_distribution` joints."""
    partners = [other for other in range(stats.n_attrs) if other != attr]

    def divergence(other: int) -> float:
        return count_divergence(state, stats, attr, other, floor)

    if rule == "ikl":
        return _ikl_rule(state, attr, partners, divergence, epsilon)
    if rule == "wkl":
        return _wkl_rule(state, attr, partners, divergence, correlations, epsilon)
    raise DataError(f"unknown drift rule {rule!r}")
