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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError
from .featurize import Featurizer, FeatureTensor
from .relation import CellRef, RelationStore


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 30
    learning_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise DataError(f"learning rate must be positive, got {self.learning_rate}")


@dataclass
class AttributeModel:
    attr: int
    weights: np.ndarray
    trained_at_batch: int = 0
    loss_history: list[float] = field(default_factory=list)

    @classmethod
    def fresh(cls, attr: int, n_attrs: int) -> "AttributeModel":
        return cls(attr, np.zeros(n_attrs, dtype=np.float64))

    def to_dict(self) -> dict:
        return {
            "attr": self.attr,
            "weights": [float(w) for w in self.weights],
            "trained_at_batch": self.trained_at_batch,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttributeModel":
        return cls(
            payload["attr"],
            np.array(payload["weights"], dtype=np.float64),
            payload["trained_at_batch"],
        )


@dataclass(frozen=True)
class TrainingExample:
    tensor: FeatureTensor
    label: int


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


def _stack(examples: Sequence[TrainingExample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tensors = np.stack([example.tensor.values for example in examples])
    masks = np.stack([example.tensor.mask for example in examples])
    labels = np.array([example.label for example in examples], dtype=np.intp)
    return tensors, masks, labels


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


def train(
    model: AttributeModel, examples: Sequence[TrainingExample], hp: Hyperparams
) -> TrainReport:
    """Full-batch gradient descent on mean cross-entropy; deterministic."""
    if not examples:
        raise DataError("cannot train on an empty example set")
    tensors, masks, labels = _stack(examples)
    for example in examples:
        if not 0 <= example.label < example.tensor.domain.size:
            raise DataError(f"label {example.label} outside the candidate domain")
    weights = model.weights.astype(np.float64, copy=True)
    history: list[float] = []
    for epoch in range(hp.epochs):
        loss, grad = _loss_and_grad(weights, tensors, masks, labels)
        if not math.isfinite(loss):
            raise DataError(f"training loss became non-finite at epoch {epoch}")
        history.append(loss)
        weights -= hp.learning_rate * grad
    final_loss, _ = _loss_and_grad(weights, tensors, masks, labels)
    if not math.isfinite(final_loss):
        raise DataError(f"training loss became non-finite at epoch {hp.epochs}")
    history.append(final_loss)
    model.weights = weights
    model.loss_history = history
    return TrainReport(
        n_examples=len(examples),
        epochs=hp.epochs,
        initial_loss=history[0],
        final_loss=final_loss,
        improved=final_loss <= history[0],
    )


def build_training_set(
    store: RelationStore,
    attr: int,
    featurizer: Featurizer,
    limit: int | None = None,
    rng: random.Random | None = None,
    tids: Sequence[int] | None = None,
) -> list[TrainingExample]:
    """Weakly labeled examples from cells of `attr` that are not currently Dirty.

    When more than `limit` cells are eligible by status, a uniform random
    sample of `limit` is featurized (so the returned list can be shorter when
    sampled cells turn out to have singleton domains).
    """
    eligible = store.trainable_tids(attr, tids)
    if limit is not None and len(eligible) > limit:
        if limit < 1:
            raise DataError(f"training limit must be >= 1, got {limit}")
        sampler = rng if rng is not None else random.Random(0)
        eligible = sorted(sampler.sample(eligible, limit))
    examples: list[TrainingExample] = []
    for tid in eligible:
        row = store.tuple_values(tid)
        domain = featurizer.domain(CellRef(tid, attr), row)
        if domain.size < 2:
            continue
        examples.append(
            TrainingExample(featurizer.tensor(domain, row), domain.observed_index)
        )
    return examples


def repair_cells(
    models: Sequence[AttributeModel],
    cells: Sequence[CellRef],
    store: RelationStore,
    featurizer: Featurizer,
) -> tuple[list[tuple[CellRef, int]], int]:
    """Most-probable-value proposals for flagged cells.

    Returns (proposals, skipped) where skipped counts cells whose candidate
    domain was a singleton: there is nothing to choose from, so they stay
    Dirty and unrepaired.
    """
    proposals: list[tuple[CellRef, int]] = []
    skipped = 0
    for cell in cells:
        row = store.tuple_values(cell.tid)
        domain = featurizer.domain(cell, row)
        if domain.size < 2:
            skipped += 1
            continue
        tensor = featurizer.tensor(domain, row)
        _, best = predict(models[cell.attr], tensor)
        proposals.append((cell, domain.candidates[best]))
    return proposals, skipped
