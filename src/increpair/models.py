"""Per-attribute repair models: a tied weight per feature column, masked
softmax over candidate rows, full-batch gradient descent on cross-entropy.

Each attribute owns one weight vector of length N (one weight per context
attribute column), so candidate k scores `tensor[k] . weights`.  Training
examples are weakly labeled: a clean cell's observed value is assumed correct
within its candidate domain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .featurize import FeatureBlock, Featurizer, FeatureTensor
from .relation import CellRef, RelationStore


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


def _masked_probs(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with masked slots pinned to probability zero.

    Overflowing logits produce NaNs here rather than warnings; the training
    loop turns a non-finite loss into an explicit error.
    """
    scores = np.where(mask, logits, -np.inf)
    with np.errstate(invalid="ignore"):
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)  # exp(-inf) == 0 kills the dead slots
        return weights / weights.sum(axis=-1, keepdims=True)


def predict(model: AttributeModel, tensor: FeatureTensor) -> tuple[np.ndarray, int]:
    """Probability over the candidates and the argmax index (ties -> lowest index)."""
    if not tensor.mask.any():
        raise DataError("feature tensor has no valid candidate slots")
    logits = tensor.values @ model.weights
    probs = _masked_probs(logits, tensor.mask)[: tensor.domain.size]
    return probs, int(np.argmax(probs))


def _loss_and_grad(
    weights: np.ndarray, tensors: np.ndarray, masks: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    count = len(labels)
    with np.errstate(over="ignore"):
        logits = tensors @ weights
    probs = _masked_probs(logits, masks)
    picked = probs[np.arange(count), labels]
    with np.errstate(divide="ignore"):
        loss = float(-np.log(picked).mean())
    probs[np.arange(count), labels] -= 1.0
    grad = np.einsum("lr,lrn->n", probs, tensors) / count
    return loss, grad


def train(model: AttributeModel, block: FeatureBlock, hp: Hyperparams) -> TrainReport:
    """Full-batch gradient descent on mean cross-entropy; deterministic.

    Each cell of the block is one weakly labeled example: its label is the
    observed value's index.
    """
    if not len(block):
        raise DataError("cannot train on an empty example set")
    tensors, masks, labels = block.values, block.mask, block.observed_index
    outside = (labels < 0) | (labels >= block.sizes)
    if outside.any():
        raise DataError(f"label {labels[outside][0]} outside the candidate domain")
    weights = model.weights.astype(np.float64, copy=True)
    initial_loss = math.nan
    for epoch in range(hp.epochs):
        loss, grad = _loss_and_grad(weights, tensors, masks, labels)
        if not math.isfinite(loss):
            raise DataError(f"training loss became non-finite at epoch {epoch}")
        if epoch == 0:
            initial_loss = loss
        weights -= hp.learning_rate * grad
    final_loss, _ = _loss_and_grad(weights, tensors, masks, labels)
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
    """Current values of the given tuples, one row each."""
    rows = [store.tuple_values(tid) for tid in tids]
    return np.array(rows, dtype=np.int64).reshape(len(rows), store.n_attrs)


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
    eligible = _training_tids(store, attr, limit, rng, tids)
    return featurizer.block(attr, eligible, _rows(store, eligible))


def _training_tids(
    store: RelationStore,
    attr: int,
    limit: int | None,
    rng: random.Random | None,
    tids: Sequence[int] | None,
) -> list[int]:
    """The trainable tuples, or a sorted sample of `limit` of them.

    `random.sample` picks positions from the population's length alone, so
    sampling ranks and mapping them to tuples selects what sampling the
    listed tuples would, without listing every tuple in the store.
    """
    scoped = None if tids is None else store.trainable_tids(attr, tids)
    n_eligible = store.trainable_count(attr) if scoped is None else len(scoped)
    ranks: Sequence[int] = range(n_eligible)
    if limit is not None and n_eligible > limit:
        if limit < 1:
            raise DataError(f"training limit must be >= 1, got {limit}")
        sampler = rng if rng is not None else random.Random(0)
        ranks = sorted(sampler.sample(ranks, limit))
    if scoped is None:
        return store.trainable_at(attr, ranks)
    return [scoped[rank] for rank in ranks]


def repair_cells(
    models: Sequence[AttributeModel],
    cells: Sequence[CellRef],
    store: RelationStore,
    featurizer: Featurizer,
) -> tuple[list[tuple[CellRef, int]], int]:
    """Most-probable-value proposals for flagged cells, in the order given.

    Returns (proposals, skipped) where skipped counts cells whose candidate
    domain was a singleton: there is nothing to choose from, so they stay
    Dirty and unrepaired.
    """
    best: dict[CellRef, int] = {}
    for attr in sorted({cell.attr for cell in cells}):
        tids = [cell.tid for cell in cells if cell.attr == attr]
        block = featurizer.block(attr, tids, _rows(store, tids))
        probs = _masked_probs(block.values @ models[attr].weights, block.mask)
        picked = block.candidates[np.arange(len(block)), np.argmax(probs, axis=1)]
        best.update(
            (CellRef(tid, attr), vid) for tid, vid in zip(block.tids.tolist(), picked.tolist())
        )
    proposals = [(cell, best[cell]) for cell in cells if cell in best]
    return proposals, len(cells) - len(proposals)
