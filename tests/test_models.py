"""Attribute models: masked softmax, gradient descent, weak-label assembly, repair."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from increpair.errors import ConfigError, DataError
from increpair.featurize import CellDomain, FeatureBlock, FeatureTensor, Featurizer
from increpair.models import (
    AttributeModel,
    Hyperparams,
    _loss_and_grad,
    build_training_set,
    predict,
    repair_cells,
    train,
)
from increpair.relation import CellRef
from increpair.stats import StatsStore, correlation_matrix, scratch_accumulator

from conftest import build_store


def make_tensor(values, mask=None, attr=0, observed_index=0):
    values = np.asarray(values, dtype=np.float64)
    slots = values.shape[0]
    if mask is None:
        mask = np.ones(slots, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    size = int(mask.sum())
    domain = CellDomain(CellRef(0, attr), tuple(range(1, size + 1)), observed_index)
    return FeatureTensor(values, mask, domain)


def make_block(tensors, labels, n_attrs=2, slots=2):
    """A feature block whose cells are the given tensors, labeled as given."""
    return FeatureBlock(
        tids=np.arange(len(tensors)),
        candidates=np.zeros((len(tensors), slots), dtype=np.int32),
        sizes=np.array([t.domain.size for t in tensors], dtype=np.intp),
        observed_index=np.array(labels, dtype=np.intp),
        values=np.stack([t.values for t in tensors]) if tensors else np.zeros((0, slots, n_attrs)),
        mask=np.stack([t.mask for t in tensors]) if tensors else np.zeros((0, slots), dtype=bool),
    )


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert hp.epochs == 30
        assert hp.learning_rate == 0.1

    def test_validation(self):
        with pytest.raises(ConfigError):
            Hyperparams(epochs=0)
        with pytest.raises(ConfigError):
            Hyperparams(learning_rate=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="finite"):
            Hyperparams(learning_rate=rate)


class TestPredict:
    def test_zero_weights_give_uniform(self):
        model = AttributeModel.fresh(0, 3)
        tensor = make_tensor([[0.5, 0, 0.1], [0.2, 0, 0.9], [0.1, 0, 0.4]])
        probs, best = predict(model, tensor)
        assert probs.tolist() == pytest.approx([1 / 3] * 3)
        assert best == 0  # tie -> lowest index

    def test_masked_slots_get_zero_probability(self):
        model = AttributeModel.fresh(0, 2)
        tensor = make_tensor(
            [[0.5, 0], [0.2, 0], [0.0, 0]], mask=[True, True, False]
        )
        probs, _ = predict(model, tensor)
        assert len(probs) == 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_two_candidate_case(self):
        model = AttributeModel(0, np.array([1.0, 0.0]))
        tensor = make_tensor([[0.8, 0.0], [0.2, 0.0]])
        probs, best = predict(model, tensor)
        expected_first = math.exp(0.8) / (math.exp(0.8) + math.exp(0.2))
        assert probs[0] == pytest.approx(expected_first, abs=1e-12)
        assert best == 0

    def test_singleton_mask(self):
        model = AttributeModel.fresh(0, 2)
        tensor = make_tensor([[0.4, 0.0]], mask=[True])
        probs, best = predict(model, tensor)
        assert probs.tolist() == [1.0]
        assert best == 0

    def test_empty_mask_rejected(self):
        model = AttributeModel.fresh(0, 2)
        tensor = make_tensor([[0.0, 0.0]], mask=[False])
        with pytest.raises(DataError):
            predict(model, tensor)


class TestTrain:
    def test_uniform_start_loss_is_log_domain_size(self):
        examples = make_block(
            [make_tensor([[0.9, 0.0], [0.1, 0.0]]), make_tensor([[0.8, 0.0], [0.3, 0.0]])],
            [0, 0],
        )
        model = AttributeModel.fresh(0, 2)
        report = train(model, examples, Hyperparams(epochs=1, learning_rate=0.1))
        assert report.initial_loss == pytest.approx(math.log(2), abs=1e-12)

    def test_learns_separable_fixture(self):
        # observed candidate always carries the larger co-occurrence ratio
        rng = random.Random(0)
        tensors, labels = [], []
        for _ in range(40):
            high, low = 0.6 + 0.3 * rng.random(), 0.2 * rng.random()
            tensors.append(make_tensor([[high, 0.0], [low, 0.0]]))
            labels.append(0)
        model = AttributeModel.fresh(0, 2)
        hp = Hyperparams(epochs=200, learning_rate=0.5)
        report = train(model, make_block(tensors, labels), hp)
        assert report.improved
        assert report.final_loss < report.initial_loss
        hits = sum(predict(model, tensor)[1] == label for tensor, label in zip(tensors, labels))
        assert hits == len(tensors)
        assert model.weights[0] > 0.0

    def test_report_shape_and_losses(self):
        examples = make_block([make_tensor([[0.9, 0.0], [0.1, 0.0]])], [0])
        arrays = (examples.values, examples.mask, examples.observed_index)
        model = AttributeModel.fresh(0, 2)
        start, _ = _loss_and_grad(model.weights, *arrays)
        report = train(model, examples, Hyperparams(epochs=5, learning_rate=0.1))
        assert report.initial_loss == start
        assert report.final_loss == _loss_and_grad(model.weights, *arrays)[0]
        assert report.improved
        assert report.n_examples == 1
        assert report.epochs == 5

    def test_deterministic(self):
        examples = make_block(
            [make_tensor([[0.9, 0.2], [0.1, 0.6]]), make_tensor([[0.3, 0.8], [0.6, 0.1]])],
            [0, 1],
        )
        one = AttributeModel.fresh(0, 2)
        other = AttributeModel.fresh(0, 2)
        train(one, examples, Hyperparams())
        train(other, examples, Hyperparams())
        assert one.weights.tolist() == other.weights.tolist()

    def test_empty_examples_rejected(self):
        with pytest.raises(DataError):
            train(AttributeModel.fresh(0, 2), make_block([], []), Hyperparams())

    def test_label_outside_domain_rejected(self):
        examples = make_block([make_tensor([[0.9, 0.0], [0.1, 0.0]])], [5])
        with pytest.raises(DataError, match="label"):
            train(AttributeModel.fresh(0, 2), examples, Hyperparams())

    def test_nonfinite_loss_names_epoch(self):
        # a feature value beyond float range turns the logits non-finite at once
        examples = make_block([make_tensor([[1e308, 1e308], [0.0, 0.0]])], [1])
        with pytest.raises(DataError, match="epoch 0"):
            train(AttributeModel(0, np.array([1e308, 1e308])), examples, Hyperparams())

    def test_model_round_trip(self):
        model = AttributeModel(1, np.array([0.25, -1.5]))
        assert model.to_dict() == {"attr": 1, "weights": [0.25, -1.5]}
        clone = AttributeModel.from_dict(model.to_dict())
        assert clone.attr == 1
        assert clone.weights.tolist() == [0.25, -1.5]


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            count, slots, n_attrs = 5, 4, 3
            tensors = rng.uniform(0, 1, size=(count, slots, n_attrs))
            masks = np.ones((count, slots), dtype=bool)
            masks[:, -1] = rng.uniform(size=count) < 0.5
            sizes = masks.sum(axis=1)
            labels = (rng.uniform(size=count) * sizes).astype(np.intp)
            weights = rng.normal(size=n_attrs)
            _, grad = _loss_and_grad(weights, tensors, masks, labels)
            eps = 1e-5
            for k in range(n_attrs):
                up = weights.copy()
                up[k] += eps
                down = weights.copy()
                down[k] -= eps
                loss_up, _ = _loss_and_grad(up, tensors, masks, labels)
                loss_down, _ = _loss_and_grad(down, tensors, masks, labels)
                numeric = (loss_up - loss_down) / (2 * eps)
                assert abs(grad[k] - numeric) < 1e-6


@pytest.fixture
def trainable_world():
    rows = [("h", "b"), ("h", "c"), ("i", "d"), ("h", "e"), ("h", "b"), ("i", "d")]
    store = build_store(rows, ("region", "code"))
    stats = StatsStore(2)
    stats.ingest([list(store.tuple_values(t)) for t in range(store.n_tuples)])
    corr = correlation_matrix(stats, scratch_accumulator(stats))
    return store, Featurizer(stats, corr, omega=0.0)


class TestBuildTrainingSet:
    def test_one_example_per_multivalued_clean_cell(self, trainable_world):
        store, featurizer = trainable_world
        examples = build_training_set(store, 1, featurizer)
        # region-h rows have multi-candidate code domains; region-i rows are singleton d
        assert len(examples) == 4
        assert examples.tids.tolist() == [0, 1, 3, 4]
        for i, tid in enumerate(examples.tids.tolist()):
            domain = featurizer.domain(CellRef(tid, 1), store.tuple_values(tid))
            assert examples.observed_index[i] == domain.observed_index
            assert examples.candidates[i, examples.observed_index[i]] == store.value(tid, 1)

    def test_dirty_cells_excluded(self, trainable_world):
        store, featurizer = trainable_world
        store.mark_dirty([CellRef(0, 1)])
        assert len(build_training_set(store, 1, featurizer)) == 3

    def test_limit_subsamples_reproducibly(self, trainable_world):
        store, featurizer = trainable_world
        one = build_training_set(store, 1, featurizer, limit=2, rng=random.Random(9))
        two = build_training_set(store, 1, featurizer, limit=2, rng=random.Random(9))
        assert len(one) <= 2
        assert one.tids.tolist() == two.tids.tolist()
        assert one.observed_index.tolist() == two.observed_index.tolist()
        assert np.array_equal(one.values, two.values)

    def test_scoped_to_given_tids(self, trainable_world):
        store, featurizer = trainable_world
        examples = build_training_set(store, 1, featurizer, tids=[2, 5])
        assert len(examples) == 0  # both are singleton-domain cells


class TestRepairCells:
    def test_singletons_skipped_and_counted(self, trainable_world):
        store, featurizer = trainable_world
        models = [AttributeModel.fresh(a, 2) for a in range(2)]
        cells = [CellRef(0, 1), CellRef(2, 1)]  # multi-candidate, singleton
        proposals, skipped = repair_cells(models, cells, store, featurizer)
        assert skipped == 1
        assert len(proposals) == 1
        cell, vid = proposals[0]
        assert cell == CellRef(0, 1)
        assert vid in featurizer.domain(cell, store.tuple_values(0)).candidates

    def test_trained_model_prefers_frequent_co_occurrer(self, trainable_world):
        store, featurizer = trainable_world
        examples = build_training_set(store, 1, featurizer)
        model = AttributeModel.fresh(1, 2)
        train(model, examples, Hyperparams(epochs=300, learning_rate=1.0))
        # b appears twice with region h; c and e once each
        proposals, _ = repair_cells(
            [AttributeModel.fresh(0, 2), model], [CellRef(1, 1)], store, featurizer
        )
        (_, vid), = proposals
        assert store.interner.resolve(1, vid) == "b"

    def test_matches_one_cell_prediction_in_pool_order(self):
        rng = random.Random(3)
        rows = [
            (f"r{rng.randint(0, 3)}", f"c{rng.randint(0, 5)}", f"d{rng.randint(0, 2)}")
            for _ in range(60)
        ]
        store = build_store(rows, ("p", "q", "r"))
        stats = StatsStore(3)
        stats.ingest([list(store.tuple_values(t)) for t in range(store.n_tuples)])
        featurizer = Featurizer(stats, correlation_matrix(stats, scratch_accumulator(stats)), 0.0)
        weights = np.random.default_rng(3).normal(size=(3, 3))
        models = [AttributeModel(attr, weights[attr]) for attr in range(3)]
        cells = [CellRef(tid, attr) for tid in range(store.n_tuples) for attr in range(3)]
        rng.shuffle(cells)
        expected = []
        for cell in cells:
            values = store.tuple_values(cell.tid)
            domain = featurizer.domain(cell, values)
            if domain.size >= 2:
                _, best = predict(models[cell.attr], featurizer.tensor(domain, values))
                expected.append((cell, domain.candidates[best]))
        proposals, skipped = repair_cells(models, cells, store, featurizer)
        assert proposals == expected
        assert all(type(vid) is int for _, vid in proposals)
        assert skipped == len(cells) - len(expected)
