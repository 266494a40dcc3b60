"""Padded reference for `increpair.models`' fit: every epoch over the whole
`(cells, slots, N)` block, dead slots included.

The engine fits over the live candidate rows only; these functions state the
same arithmetic on the padded block, and the tests require the engine's
weights, losses and gradients to equal theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from increpair.errors import DataError
from increpair.featurize import FeatureBlock
from increpair.models import AttributeModel, Hyperparams, TrainReport, _masked_probs


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
