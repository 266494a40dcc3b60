"""Scalar reference for `increpair.featurize`: one cell at a time, in plain
Python over the nested count dicts.

The engine builds domains and tensors for all of an attribute's cells at once
with numpy; these functions state the same definitions cell by cell, and the
tests require the batched path to reproduce them bit for bit, within the
width `block_width` gives the batch.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from count_oracle import cooccurring
from increpair.errors import DataError
from increpair.featurize import (
    DEFAULT_DOMAIN_CAP,
    DEFAULT_OMEGA,
    DEFAULT_TAU,
    CellDomain,
    FeatureTensor,
)
from increpair.relation import NULL_ID, CellRef
from increpair.stats import StatsStore


def generate_domain(
    cell: CellRef,
    tuple_values: Sequence[int],
    stats: StatsStore,
    correlations: Sequence[Sequence[float]],
    omega: float = DEFAULT_OMEGA,
    cap: int = DEFAULT_DOMAIN_CAP,
    tau: float = DEFAULT_TAU,
) -> CellDomain:
    """Candidate domain of one cell given its tuple's current values.

    A context attribute qualifies when the cell's attribute is sufficiently
    predictable from it, i.e. their correlation (normalized over the cell
    attribute's domain) exceeds omega.  Through each, a value is proposed
    only when Pr[value | context value] >= tau, i.e. it co-occurs with the
    context value at least tau times that value's frequency.  Null is never
    proposed as a candidate, though a null observed value stays in its own
    domain.  When the union exceeds `cap`, the candidates with the highest
    summed co-occurrence counts are kept (observed value always retained;
    ties broken toward lower value ids).
    """
    if not 0.0 <= omega < 1.0:
        raise DataError(f"omega must lie in [0, 1), got {omega}")
    if cap < 1:
        raise DataError(f"domain cap must be >= 1, got {cap}")
    if not 0.0 <= tau < 1.0:
        raise DataError(f"tau must lie in [0, 1), got {tau}")
    attr = cell.attr
    observed = tuple_values[attr]
    weights: dict[int, int] = {}
    single = stats.single
    for context_attr, context_vid in enumerate(tuple_values):
        if context_attr == attr or correlations[attr][context_attr] <= omega:
            continue
        frequency = single[context_attr].get(context_vid, 0)
        for vid, count in cooccurring(stats, attr, context_attr, context_vid).items():
            if vid != NULL_ID and count >= tau * frequency:
                weights[vid] = weights.get(vid, 0) + count
    weights.pop(observed, None)
    if len(weights) + 1 > cap:
        ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        chosen = {vid for vid, _ in ranked[: cap - 1]}
    else:
        chosen = set(weights)
    chosen.add(observed)
    candidates = tuple(sorted(chosen))
    return CellDomain(cell, candidates, candidates.index(observed))


def generate_feature_vector(
    domain: CellDomain,
    tuple_values: Sequence[int],
    stats: StatsStore,
    slots: int | None = None,
) -> FeatureTensor:
    """Feature tensor for one cell over its candidate domain."""
    attr = domain.cell.attr
    n_attrs = stats.n_attrs
    if slots is None:
        slots = domain.size
    if domain.size > slots:
        raise DataError(
            f"domain of size {domain.size} does not fit {slots} tensor slots"
        )
    values = np.zeros((slots, n_attrs), dtype=np.float64)
    mask = np.zeros(slots, dtype=bool)
    mask[: domain.size] = True
    single = stats.single
    for context_attr, context_vid in enumerate(tuple_values):
        if context_attr == attr:
            continue
        frequency = single[context_attr].get(context_vid, 0)
        if frequency <= 0:
            raise DataError(
                f"statistics hold no count for attribute {context_attr}"
                f" value id {context_vid}; counts are out of step with the store"
            )
        cooccurrences = cooccurring(stats, attr, context_attr, context_vid)
        for row, candidate in enumerate(domain.candidates):
            count = cooccurrences.get(candidate, 0)
            if count:
                values[row, context_attr] = count / frequency
    return FeatureTensor(values, mask, domain)


def block_width(slots: int, widest: int) -> int:
    """Slots of a batch of an attribute with `slots` tensor slots whose widest
    domain holds `widest` values: whole octets covering that domain, never
    more than `slots`, and all `slots` when there are more than 128."""
    if slots > 128:
        return slots
    octets = max(1, math.ceil(widest / 8))
    return min(slots, 8 * octets)
