"""Padded reference for `increpair.models`' fit and repair: every epoch over
the whole `(cells, slots, N)` block, one entry per cell, dead slots included.

The engine fits and repairs over the live candidate rows of each distinct
tuple row only; these functions state the same arithmetic on the padded
per-cell block, and the tests require the engine's weights, losses,
gradients and picks to equal theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from increpair.errors import DataError
from increpair.featurize import FeatureBlock
from increpair.models import AttributeModel, Hyperparams, TrainReport
from increpair.relation import NULL_ID


def _masked_probs(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with masked slots pinned to probability zero.

    Overflowing logits produce NaNs here rather than warnings.
    """
    scores = np.where(mask, logits, -np.inf)
    with np.errstate(invalid="ignore"):
        scores = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)  # exp(-inf) == 0 kills the dead slots
        return weights / weights.sum(axis=-1, keepdims=True)


def padded(block: FeatureBlock, slots: int) -> FeatureBlock:
    """`block` with one entry per cell, each a copy of its distinct row, and
    dead slots appended up to `slots`: null candidates and zero features, as
    every cell's `FeatureTensor` holds them."""
    extra = slots - block.values.shape[1]
    row = block.row
    return FeatureBlock(
        tids=block.tids,
        row=np.arange(len(block)),
        candidates=np.pad(block.candidates[row], ((0, 0), (0, extra)), constant_values=NULL_ID),
        sizes=block.sizes[row],
        observed_index=block.observed_index[row],
        values=np.pad(block.values[row], ((0, 0), (0, extra), (0, 0))),
    )


def picks(weights: np.ndarray, block: FeatureBlock) -> np.ndarray:
    """Each cell's most probable candidate by the padded softmax."""
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _masked_probs(block.values @ weights, block.mask)
    return block.candidates[np.arange(len(block)), np.argmax(probs, axis=1)]


def loss_and_grad(
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
    if not len(block):
        raise DataError("cannot train on an empty example set")
    tensors, masks, labels = block.values, block.mask, block.observed_index
    outside = (labels < 0) | (labels >= block.sizes)
    if outside.any():
        raise DataError(f"label {labels[outside][0]} outside the candidate domain")
    weights = model.weights.astype(np.float64, copy=True)
    initial_loss = math.nan
    for epoch in range(hp.epochs):
        loss, grad = loss_and_grad(weights, tensors, masks, labels)
        if not math.isfinite(loss):
            raise DataError(f"training loss became non-finite at epoch {epoch}")
        if epoch == 0:
            initial_loss = loss
        weights -= hp.learning_rate * grad
    final_loss, _ = loss_and_grad(weights, tensors, masks, labels)
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
