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
joint distributions.  The engine's path works a batch at a time: `verdicts`
gives every attribute's verdict, and `record_counts` records every attribute
that trained at a batch, keeping its row count n' and a copy of each of its
pair tables as they stood then.  Attributes recorded in one call share each
copy.  The gate copies because a table is a view into the statistics' one
count table, which `StatsStore.ingest` replaces each batch, and a kept view
would keep that whole table alive.  Counts only grow, so every value pair
kept from training is still in the current table, and

    KL = sum_k (z_k/n) log((z_k/n) / max(z'_k/n', floor))

runs term by term over the current table's pairs k, with z'_k = 0 for a pair
that training never saw.  The cost is O(table) per attribute pair, the same
class as the reference path.  A batch that repeats history proportionally
gives exactly 0, as the reference path does: each z_k/n equals z'_k/n' bit
for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .stats import StatsStore

DEFAULT_KL_FLOOR = 1e-6

JointDist = dict[tuple[int, int], float]
# sorted packed value pairs, oriented as in the (lower attribute, higher
# attribute) table, and a positive count for each
PairCounts = tuple[np.ndarray, np.ndarray]


@dataclass
class SkipperState:
    """Per attribute: the batch its model last trained at and the drift reference.

    `trained_n[a]` is the row count n' when `a` last trained, `baseline[a][b]`
    a copy of the pair table of a and b as it stood then, one object with
    `baseline[b][a]` when b was recorded in the same call.  `saved` holds
    whole joints for the reference rules only.
    A run snapshot persists `last_trained` alone: the rest is a function of
    the batches counted so far, and `pipeline.recount` rebuilds it.
    """

    last_trained: dict[int, int] = field(default_factory=dict)
    saved: dict[int, dict[int, JointDist]] = field(default_factory=dict)
    trained_n: dict[int, int] = field(default_factory=dict)
    baseline: dict[int, dict[int, PairCounts]] = field(default_factory=dict)

    def trained_batch(self, attr: int) -> int:
        """Batch at which the attribute's model last trained; 0 means never."""
        return self.last_trained.get(attr, 0)


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


# -- the engine's path: divergences from the kept tables -----------------------


def _table(attr: int, other: int) -> tuple[int, int]:
    return (attr, other) if attr < other else (other, attr)


def record_counts(state: SkipperState, stats: StatsStore, attrs: Sequence[int], batch: int) -> None:
    """Make the current pair tables the reference of the attributes that trained at `batch`."""
    if batch < 1:
        raise DataError(f"batch ordinal must be >= 1, got {batch}")
    trained = set(attrs)
    kept = {  # one copy per pair, whichever of its attributes trained
        pair: tuple(array.copy() for array in stats.table(*pair))
        for pair in itertools.combinations(range(stats.n_attrs), 2)
        if not trained.isdisjoint(pair)
    }
    for attr in attrs:
        state.last_trained[attr] = batch
        state.trained_n[attr] = stats.n
        state.baseline[attr] = {
            other: kept[_table(attr, other)] for other in range(stats.n_attrs) if other != attr
        }


def count_divergence(
    state: SkipperState,
    stats: StatsStore,
    attr: int,
    other: int,
    floor: float = DEFAULT_KL_FLOOR,
) -> float:
    """KL of the current (attr, other) joint from the one `attr` trained on.

    Equal to `kl_divergence` over `joint_distribution` joints up to rounding;
    a batch that repeats history proportionally gives exactly 0.
    """
    if floor <= 0:
        raise DataError(f"probability floor must be positive, got {floor}")
    kept_keys, kept_counts = state.baseline[attr][other]
    keys, counts = stats.table(*_table(attr, other))
    kept = np.zeros(len(keys))
    kept[np.searchsorted(keys, kept_keys)] = kept_counts  # counts only grow
    p = counts / stats.n
    terms = p * np.log(p / np.maximum(kept / state.trained_n[attr], floor))
    return max(0.0, float(np.sum(terms)))


def verdicts(
    state: SkipperState,
    stats: StatsStore,
    rule: str,
    correlations: Sequence[Sequence[float]],
    epsilon: float,
    floor: float = DEFAULT_KL_FLOOR,
) -> list[tuple[bool, int | float | None]]:
    """Every attribute's `ikl` or `wkl` verdict from the kept tables, as `should_retrain_ikl`
    or `should_retrain_wkl` would give it on `joint_distribution` joints."""
    if rule not in ("ikl", "wkl"):
        raise DataError(f"unknown drift rule {rule!r}")
    memo: dict[tuple[int, int, int], float] = {}

    def verdict(attr: int) -> tuple[bool, int | float | None]:
        def divergence(other: int) -> float:
            # attributes that trained at one batch kept one table and n': one value
            key = (*_table(attr, other), state.trained_batch(attr))
            if key not in memo:
                memo[key] = count_divergence(state, stats, attr, other, floor)
            return memo[key]

        partners = [other for other in range(stats.n_attrs) if other != attr]
        if rule == "ikl":
            return _ikl_rule(state, attr, partners, divergence, epsilon)
        return _wkl_rule(state, attr, partners, divergence, correlations, epsilon)

    return [verdict(attr) for attr in range(stats.n_attrs)]
