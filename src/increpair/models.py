"""Per-attribute repair models: a tied weight per feature column, softmax
over live candidate rows, full-batch gradient descent on cross-entropy.

Each attribute owns one weight vector of length N (one weight per context
attribute column), so candidate k scores `tensor[k] . weights`.  Training
examples are weakly labeled: a clean cell's observed value is assumed correct
within its candidate domain.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .featurize import FeatureBlock, Featurizer
from .relation import RelationStore


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 30
    learning_rate: float = 0.1

    def __post_init__(self) -> None:
        if type(self.epochs) is not int or self.epochs < 1:
            raise ConfigError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )


@dataclass
class AttributeModel:
    attr: int
    weights: np.ndarray

    @classmethod
    def fresh(cls, attr: int, n_attrs: int) -> "AttributeModel":
        return cls(attr, np.zeros(n_attrs, dtype=np.float64))

    def to_dict(self) -> dict:
        return {"attr": self.attr, "weights": [float(w) for w in self.weights]}

    @classmethod
    def from_dict(cls, payload: dict) -> "AttributeModel":
        return cls(payload["attr"], np.array(payload["weights"], dtype=np.float64))


@dataclass(frozen=True)
class TrainReport:
    n_examples: int
    epochs: int
    initial_loss: float
    final_loss: float
    improved: bool


class _LiveRows:
    """A `(distinct rows, slots, N)` softmax problem packed once for every
    epoch; each cell reads one distinct row.

    The softmax runs once per distinct row, over its live candidate rows
    only, yet reproduces the arithmetic on the whole padded block bit for
    bit: logits come from the per-row matmul over the block, softmax
    denominators are row sums of a zero `(distinct rows, slots)` grid holding
    the live terms.  A distinct row's probabilities read only that row and
    the weights, so every cell that reads it gets the bits its own tensor
    would give.  `expand` gathers them into the cells' live rows in cell
    order, and the loss and the gradient's einsum read those, adding in the
    order a padded per-cell fit adds all rows, whose dead ones add exact
    zeros.  Why a block narrower than its tensor slots computes as their
    padding would is told in `featurize`.

    `counts` holds each distinct row's number of live rows, `starts` its
    first and `in_grid` each live row's flat index in the grid.  Given
    labels, one per distinct row, the fit's arrays follow: `expand` holds the
    position of each of the cells' live rows, in cell order, among the
    distinct rows' live rows, and `labels` each cell's label position among
    the cells' live rows.  Without `row`, cell i reads distinct row i.
    """

    def __init__(
        self,
        tensors: np.ndarray,
        masks: np.ndarray,
        labels: np.ndarray | None = None,
        row: np.ndarray | None = None,
    ):
        rows, slots = masks.shape
        self.tensors = tensors
        self.in_grid = np.flatnonzero(masks)
        self.counts = np.count_nonzero(masks, axis=1)
        self.starts = np.cumsum(self.counts) - self.counts
        self.grid = np.zeros((rows, slots), dtype=np.float64)
        if labels is not None:
            inside = (labels >= 0) & (labels < slots)
            inside[inside] = masks[np.flatnonzero(inside), labels[inside]]
            if not inside.all():
                raise DataError(f"label {labels[~inside][0]} outside the candidate domain")
            if row is None:
                row = np.arange(rows)
            counts = self.counts[row]
            first = np.cumsum(counts) - counts
            self.expand = np.arange(counts.sum()) + np.repeat(self.starts[row] - first, counts)
            offset = np.searchsorted(self.in_grid, np.arange(rows) * slots + labels) - self.starts
            self.labels = first + offset[row]

    @functools.cached_property
    def live(self) -> np.ndarray:
        """The cells' live rows in cell order, copied when the gradient first reads them."""
        return self.tensors.reshape(-1, self.tensors.shape[-1])[self.in_grid[self.expand]]

    def _softmax(self, weights: np.ndarray) -> np.ndarray:
        """Each of the distinct rows' live rows' softmax probability within its row."""
        with np.errstate(over="ignore", invalid="ignore"):
            logits = (self.tensors @ weights).reshape(-1)[self.in_grid]
            peaks = np.maximum.reduceat(logits, self.starts)
            terms = np.exp(logits - np.repeat(peaks, self.counts))
            self.grid.reshape(-1)[self.in_grid] = terms
            return terms / np.repeat(self.grid.sum(axis=-1), self.counts)

    def probs(self, weights: np.ndarray) -> np.ndarray:
        """Each of the cells' live rows' softmax probability within its cell."""
        return self._softmax(weights)[self.expand]

    def best(self, weights: np.ndarray) -> np.ndarray:
        """Each distinct row's most probable slot: the lowest on a tie, and the first
        where overflowing logits leave nothing but NaN."""
        self.grid.reshape(-1)[self.in_grid] = self._softmax(weights)
        return self.grid.argmax(axis=1)

    def loss(self, probs: np.ndarray) -> float:
        """Mean cross-entropy of the labels."""
        with np.errstate(divide="ignore"):
            return float(-np.log(probs[self.labels]).mean())

    def grad(self, probs: np.ndarray) -> np.ndarray:
        """The loss gradient; overwrites `probs`."""
        probs[self.labels] -= 1.0
        return np.einsum("m,mn->n", probs, self.live) / len(self.labels)


def _loss_and_grad(
    weights: np.ndarray, tensors: np.ndarray, masks: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    rows = _LiveRows(tensors, masks, labels)
    probs = rows.probs(weights)
    return rows.loss(probs), rows.grad(probs)


def train(model: AttributeModel, block: FeatureBlock, hp: Hyperparams) -> TrainReport:
    """Full-batch gradient descent on mean cross-entropy; deterministic.

    Each cell of the block is one weakly labeled example: its label is the
    observed value's index in its row's domain.
    """
    if not len(block):
        raise DataError("cannot train on an empty example set")
    rows = _LiveRows(block.values, block.mask, block.observed_index, block.row)
    weights = model.weights.astype(np.float64, copy=True)
    initial_loss = math.nan
    for epoch in range(hp.epochs):
        probs = rows.probs(weights)
        if epoch == 0:
            initial_loss = rows.loss(probs)
        # probabilities lie in [0, 1] or are NaN: the loss is finite iff every label's is > 0
        if not (probs[rows.labels] > 0).all():
            raise DataError(f"training loss became non-finite at epoch {epoch}")
        weights -= hp.learning_rate * rows.grad(probs)
    final_loss = rows.loss(rows.probs(weights))
    if not math.isfinite(final_loss):
        raise DataError(f"training loss became non-finite at epoch {hp.epochs}")
    model.weights = weights
    return TrainReport(
        n_examples=len(block),
        epochs=hp.epochs,
        initial_loss=initial_loss,
        final_loss=final_loss,
        improved=final_loss <= initial_loss,
    )


def _rows(store: RelationStore, tids: Sequence[int]) -> np.ndarray:
    """Current values of the given tuples, one int64 row each."""
    return store.values[np.asarray(tids, dtype=np.intp)].astype(np.int64)


def build_training_set(
    store: RelationStore,
    attr: int,
    featurizer: Featurizer,
    limit: int | None = None,
    rng: random.Random | None = None,
    tids: Sequence[int] | None = None,
) -> FeatureBlock:
    """Weakly labeled examples from cells of `attr` that are not currently Dirty.

    When more than `limit` cells are eligible by status, a uniform random
    sample of `limit` is featurized (so the block can hold fewer cells when
    sampled cells turn out to have singleton domains).
    """
    eligible = store.trainable_tids(attr, tids)
    if limit is not None and len(eligible) > limit:
        if limit < 1:
            raise DataError(f"training limit must be >= 1, got {limit}")
        sampler = rng if rng is not None else random.Random(0)
        eligible = eligible[sorted(sampler.sample(range(len(eligible)), limit))]
    return featurizer.block(attr, eligible, _rows(store, eligible))


def repair_cells(
    models: Sequence[AttributeModel],
    cells: np.ndarray,
    store: RelationStore,
    featurizer: Featurizer,
) -> tuple[np.ndarray, int]:
    """Most-probable-value proposals for flagged cells, given as (tid, attr)
    rows, as (tid, attr, vid) rows in the order given.

    Returns (proposals, skipped) where skipped counts cells whose candidate
    domain was a singleton: there is nothing to choose from, so they stay
    Dirty and unrepaired.
    """
    tid, attr = cells.T
    vid = np.full(len(cells), -1, dtype=np.int64)
    for column in np.flatnonzero(np.bincount(attr)).tolist():
        at = np.flatnonzero(attr == column)
        tids = tid[at]
        block = featurizer.block(column, tids, _rows(store, tids))
        if not len(block):
            continue  # every cell a singleton; reduceat rejects an empty block
        slots = _LiveRows(block.values, block.mask).best(models[column].weights)
        best = np.full(store.n_tuples, -1, dtype=np.int64)
        best[block.tids] = block.candidates[np.arange(len(slots)), slots][block.row]
        vid[at] = best[tids]
    proposed = vid >= 0
    return np.column_stack([cells[proposed], vid[proposed]]), int(np.count_nonzero(~proposed))
