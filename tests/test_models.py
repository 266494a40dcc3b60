"""Attribute models: softmax over live rows, gradient descent, weak-label
assembly, repair."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increpair.errors import ConfigError, DataError
from increpair.featurize import (
    CellDomain,
    FeatureBlock,
    FeatureTensor,
    Featurizer,
    tensor_slots,
)
from increpair.models import (
    AttributeModel,
    Hyperparams,
    _loss_and_grad,
    _rows,
    build_training_set,
    repair_cells,
    train,
)
from increpair.relation import CellRef, CellStatus
from increpair.stats import StatsStore, correlation_matrix, scratch_accumulator

import fit_oracle
from conftest import build_store, cell_rows


def predict(model: AttributeModel, tensor: FeatureTensor) -> tuple[np.ndarray, int]:
    """One cell's probability over its candidates and the argmax index (ties ->
    lowest index): the one-cell oracle `repair_cells` must agree with."""
    if not tensor.mask.any():
        raise DataError("feature tensor has no valid candidate slots")
    logits = tensor.values @ model.weights
    probs = fit_oracle._masked_probs(logits, tensor.mask)[: tensor.domain.size]
    return probs, int(np.argmax(probs))


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
        row=np.arange(len(tensors)),
        candidates=np.zeros((len(tensors), slots), dtype=np.int32),
        sizes=np.array([t.domain.size for t in tensors], dtype=np.intp),
        observed_index=np.array(labels, dtype=np.intp),
        values=np.stack([t.values for t in tensors]) if tensors else np.zeros((0, slots, n_attrs)),
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


def padded_block(rng, cells, slots, n_attrs, widest):
    """A block shaped as `Featurizer.block` builds one: prefix masks, zero dead
    slots, features in [0, 1] with some exact zeros, one cell `widest` wide."""
    sizes = rng.integers(1, widest + 1, size=cells)
    sizes[rng.integers(cells)] = widest
    mask = np.arange(slots) < sizes[:, None]
    values = rng.uniform(0.0, 1.0, size=(cells, slots, n_attrs))
    values[rng.uniform(size=values.shape) < 0.2] = 0.0
    values[~mask] = 0.0
    return FeatureBlock(
        tids=np.arange(cells),
        row=np.arange(cells),
        candidates=np.zeros((cells, slots), dtype=np.int32),
        sizes=sizes,
        observed_index=(rng.uniform(size=cells) * sizes).astype(np.intp),
        values=values,
    )


def bits(value) -> list[int]:
    return np.asarray(value, dtype=np.float64).reshape(-1).view(np.uint64).tolist()


def assert_fit_matches_oracle(block, weights, hp):
    arrays = (block.values, block.mask, block.observed_index)
    loss, grad = _loss_and_grad(weights, *arrays)
    want_loss, want_grad = fit_oracle.loss_and_grad(weights, *arrays)
    assert bits(loss) == bits(want_loss)
    assert bits(grad) == bits(want_grad)
    model, reference = AttributeModel(0, weights.copy()), AttributeModel(0, weights.copy())
    report = train(model, block, hp)
    want = fit_oracle.train(reference, block, hp)
    assert bits(model.weights) == bits(reference.weights)
    assert bits([report.initial_loss, report.final_loss]) == bits(
        [want.initial_loss, want.final_loss]
    )
    assert report == want


class TestFitMatchesPaddedOracle:
    """The fit over live candidate rows equals the padded fit bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_attrs=st.integers(2, 8),
        slots=st.one_of(
            st.integers(2, 7), st.just(8), st.integers(9, 60), st.integers(129, 140)
        ),
        cells=st.integers(1, 40),
        data=st.data(),
        epochs=st.integers(1, 3),
    )
    def test_weights_losses_and_gradient(self, seed, n_attrs, slots, cells, data, epochs):
        # half the draws put the widest domain in the last octet the slots reach,
        # a partial one unless the slots are a multiple of 8
        last_octet = st.integers(max(1, slots - (slots - 1) % 8), slots)
        widest = data.draw(st.one_of(st.integers(1, slots), last_octet))
        rng = np.random.default_rng(seed)
        block = padded_block(rng, cells, slots, n_attrs, widest)
        weights = rng.normal(scale=2.0, size=n_attrs)
        assert_fit_matches_oracle(block, weights, Hyperparams(epochs=epochs, learning_rate=0.7))


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
            row = examples.row[i]
            assert examples.observed_index[row] == domain.observed_index
            assert examples.candidates[row, examples.observed_index[row]] == store.value(tid, 1)

    def test_dirty_cells_excluded(self, trainable_world):
        store, featurizer = trainable_world
        store.mark_dirty(cell_rows([CellRef(0, 1)]))
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


def listed_training_tids(store, featurizer, attr, limit, rng, tids):
    """The selection as made by listing every tuple whose status is not Dirty,
    sampling positions in that list, and dropping singleton-domain cells."""
    scope = range(store.n_tuples) if tids is None else sorted(set(tids))
    eligible = [tid for tid in scope if store.status(tid, attr) is not CellStatus.DIRTY]
    if len(eligible) > limit:
        eligible = [eligible[rank] for rank in sorted(rng.sample(range(len(eligible)), limit))]
    return [
        tid
        for tid in eligible
        if featurizer.domain(CellRef(tid, attr), store.tuple_values(tid)).size >= 2
    ]


class TestTrainingSample:
    @settings(max_examples=200, deadline=None)
    @given(
        n_rows=st.integers(1, 60),
        dirty=st.sets(st.integers(0, 59), max_size=30),
        limit=st.integers(1, 70),
        seed=st.integers(0, 2**16),
        scoped=st.booleans(),
    )
    def test_sampled_ranks_pick_the_listed_sample(self, n_rows, dirty, limit, seed, scoped):
        store = build_store([(f"r{i % 7}", f"v{i % 5}") for i in range(n_rows)], ("r", "v"))
        store.mark_dirty(cell_rows([CellRef(tid, 1) for tid in dirty if tid < n_rows]))
        stats = StatsStore(2)
        stats.ingest(store.values)
        featurizer = Featurizer(stats, correlation_matrix(stats, scratch_accumulator(stats)), 0.0)
        tids = range(n_rows // 3, n_rows) if scoped else None
        for attr in range(2):  # attribute 0 has no Dirty cells
            rng = random.Random(seed)
            got = build_training_set(store, attr, featurizer, limit, rng, tids).tids
            want = listed_training_tids(store, featurizer, attr, limit, random.Random(seed), tids)
            assert got.tolist() == want


class TestRepairCells:
    def test_singletons_skipped_and_counted(self, trainable_world):
        store, featurizer = trainable_world
        models = [AttributeModel.fresh(a, 2) for a in range(2)]
        cells = cell_rows([CellRef(0, 1), CellRef(2, 1)])  # multi-candidate, singleton
        proposals, skipped = repair_cells(models, cells, store, featurizer)
        assert skipped == 1
        (tid, attr, vid), = proposals.tolist()
        assert (tid, attr) == (0, 1)
        assert vid in featurizer.domain(CellRef(0, 1), store.tuple_values(0)).candidates

    def test_two_attributes_keep_the_given_order(self):
        rows = [("h", "b"), ("h", "c"), ("i", "b"), ("i", "d"), ("h", "d"), ("j", "e")]
        store = build_store(rows, ("region", "code"))
        stats = StatsStore(2)
        stats.ingest(store.values)
        featurizer = Featurizer(stats, correlation_matrix(stats, scratch_accumulator(stats)), 0.0)
        weights = np.random.default_rng(5).normal(size=(2, 2))
        models = [AttributeModel(attr, weights[attr]) for attr in range(2)]
        # tuple 5's code domain is the singleton {e}; the attributes interleave
        order = [CellRef(3, 1), CellRef(0, 0), CellRef(5, 1), CellRef(1, 1), CellRef(2, 0)]
        proposals, skipped = repair_cells(models, cell_rows(order), store, featurizer)
        assert skipped == 1
        expected = []
        for cell in order:
            values = store.tuple_values(cell.tid)
            domain = featurizer.domain(cell, values)
            if domain.size >= 2:
                _, best = predict(models[cell.attr], featurizer.tensor(domain, values))
                expected.append((cell, domain.candidates[best]))
        assert [cell for cell, _ in expected] == [order[i] for i in (0, 1, 3, 4)]
        assert proposals.tolist() == cell_rows(expected).tolist()

    def test_trained_model_prefers_frequent_co_occurrer(self, trainable_world):
        store, featurizer = trainable_world
        examples = build_training_set(store, 1, featurizer)
        model = AttributeModel.fresh(1, 2)
        train(model, examples, Hyperparams(epochs=300, learning_rate=1.0))
        # b appears twice with region h; c and e once each
        proposals, _ = repair_cells(
            [AttributeModel.fresh(0, 2), model], cell_rows([CellRef(1, 1)]), store, featurizer
        )
        (_, _, vid), = proposals.tolist()
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
        proposals, skipped = repair_cells(models, cell_rows(cells), store, featurizer)
        assert proposals.dtype == np.int64
        assert proposals.tolist() == cell_rows(expected).tolist()
        assert skipped == len(cells) - len(expected)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**16), st.sampled_from([1, 2, 4, 64]), st.sampled_from([0.0, 0.3]))
    def test_each_proposal_is_the_one_cell_argmax(self, seed, domain_cap, omega):
        """On random data, weights, domain caps and correlation thresholds, each
        proposal is the candidate `predict` ranks first for that cell alone."""
        rng = random.Random(seed)
        rows = [
            (f"r{rng.randint(0, 3)}", f"c{rng.randint(0, 5)}", rng.choice(["", "d0", "d1", "d2"]))
            for _ in range(rng.randint(2, 40))
        ]
        store = build_store(rows, ("p", "q", "r"))
        stats = StatsStore(3)
        stats.ingest([list(store.tuple_values(t)) for t in range(store.n_tuples)])
        correlations = correlation_matrix(stats, scratch_accumulator(stats))
        featurizer = Featurizer(stats, correlations, omega, domain_cap)
        weights = np.random.default_rng(seed).normal(scale=3.0, size=(3, 3))
        models = [AttributeModel(attr, weights[attr]) for attr in range(3)]
        cells = [CellRef(tid, attr) for tid in range(store.n_tuples) for attr in range(3)]
        cells = rng.sample(cells, rng.randint(1, len(cells)))
        proposals, _ = repair_cells(models, cell_rows(cells), store, featurizer)
        expected = []
        for cell in cells:
            values = store.tuple_values(cell.tid)
            domain = featurizer.domain(cell, values)
            if domain.size >= 2:
                _, best = predict(models[cell.attr], featurizer.tensor(domain, values))
                expected.append((cell, domain.candidates[best]))
        assert proposals.tolist() == cell_rows(expected).tolist()


def grouped_world(rows, cap=50):
    """A store of `rows` over (g, h, v), counted, and its featurizer."""
    store = build_store(rows, ("g", "h", "v"))
    stats = StatsStore(3)
    stats.ingest([list(store.tuple_values(t)) for t in range(store.n_tuples)])
    correlations = correlation_matrix(stats, scratch_accumulator(stats))
    return store, stats, Featurizer(stats, correlations, 0.0, cap)


def grouped_rows(seed: int, distinct: int, spread: int) -> list[tuple[str, str, str]]:
    """Rows whose g picks a run of `spread` of `distinct` v values, most often
    its first, and whose h refines g: each v domain holds at most `spread`
    values while the attribute holds up to `distinct`."""
    rng = random.Random(seed)
    groups = max(6, -(-distinct // spread))
    rows = []
    for _ in range(max(60, 4 * distinct)):
        group = rng.randrange(groups)
        offset = 0 if rng.random() < 0.5 else rng.randrange(spread)
        value = (group * spread + offset) % distinct
        rows.append((f"g{group}", f"h{group}.{rng.randrange(2)}", f"v{value}"))
    return rows


class TestRepairMatchesPaddedOracle:
    """`repair_cells` picks, through the fit's softmax over live rows, what
    the padded softmax over every tensor slot picks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        # (distinct values, cap): S < 8 (5 values, or cap 4), S not a multiple
        # of 8 (13, 21), S = 50 and S > 128 (150 values under cap 140)
        sizes=st.sampled_from([(5, 50), (13, 50), (21, 50), (21, 4), (150, 50), (150, 140)]),
        spread=st.integers(1, 24),
        scale=st.sampled_from([1.0, 5.0, 1e308]),
    )
    def test_picks_equal_the_padded_argmax(self, seed, sizes, spread, scale):
        distinct, cap = sizes
        store, stats, featurizer = grouped_world(grouped_rows(seed, distinct, spread), cap)
        weights = np.random.default_rng(seed).normal(scale=scale, size=(3, 3))
        models = [AttributeModel(attr, weights[attr]) for attr in range(3)]
        cells = [CellRef(tid, attr) for tid in range(store.n_tuples) for attr in range(3)]
        proposals, _ = repair_cells(models, cell_rows(cells), store, featurizer)
        want = {}
        tids = list(range(store.n_tuples))
        for attr in range(3):
            block = featurizer.block(attr, tids, _rows(store, tids))
            full = fit_oracle.padded(block, tensor_slots(stats, attr, cap))
            picked = fit_oracle.picks(models[attr].weights, full)
            want.update(
                (CellRef(tid, attr), vid) for tid, vid in zip(block.tids.tolist(), picked.tolist())
            )
        assert {CellRef(tid, attr): vid for tid, attr, vid in proposals.tolist()} == want

    def test_narrow_block_with_overflowing_rows(self):
        """Nine-value domains of a 36-slot attribute make a 16-slot block.
        Groups g0 and g1 hold one dominant value, whose logit overflows under
        these weights: their cells take their first candidate, as the padded
        argmax over all-NaN probabilities does."""
        rows = []
        for group in range(4):
            for j in range(9):
                times = 60 if group < 2 and j == 0 else 2
                rows += [(f"g{group}", f"h{group}.{j % 2}", f"v{group * 9 + j}")] * times
        store, stats, featurizer = grouped_world(rows)
        tids = list(range(store.n_tuples))
        block = featurizer.block(2, tids, _rows(store, tids))
        assert block.values.shape[1] == 16 and tensor_slots(stats, 2) == 36
        weights = np.array([1.2e308, 1.2e308, 0.0])
        full = fit_oracle.padded(block, 36)
        with np.errstate(over="ignore", invalid="ignore"):
            probs = fit_oracle._masked_probs(full.values @ weights, full.mask)
        overflowed = np.isnan(probs).all(axis=1)
        assert overflowed.any() and not overflowed.all()
        models = [AttributeModel.fresh(attr, 3) for attr in range(2)] + [AttributeModel(2, weights)]
        cells = cell_rows([CellRef(tid, 2) for tid in tids])
        proposals, _ = repair_cells(models, cells, store, featurizer)
        picked = fit_oracle.picks(weights, full)
        assert proposals[:, 2].tolist() == picked.tolist()
        assert (picked[overflowed] == full.candidates[overflowed, 0]).all()


class TestDuplicateRowsMatchPaddedOracle:
    """A block holds one entry per distinct row; fitting and repairing its
    cells equals the padded fit and argmax over one entry per cell."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        sizes=st.sampled_from([(5, 50), (13, 50), (21, 4), (150, 140)]),
        spread=st.integers(2, 12),
        epochs=st.integers(1, 3),
        data=st.data(),
    )
    def test_train_and_picks_equal_the_expanded_oracle(self, seed, sizes, spread, epochs, data):
        distinct, cap = sizes
        store, stats, featurizer = grouped_world(grouped_rows(seed, distinct, spread), cap)
        attr = data.draw(st.integers(0, 2))
        tids = data.draw(st.lists(st.integers(0, store.n_tuples - 1), min_size=1, max_size=80))
        block = featurizer.block(attr, tids, _rows(store, tids))
        if not len(block):
            return
        assert len(block.values) == len(set(block.row.tolist()))  # each row read by a cell
        full = fit_oracle.padded(block, tensor_slots(stats, attr, cap))
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=2.0, size=3)
        hp = Hyperparams(epochs=epochs, learning_rate=0.7)
        model = AttributeModel(attr, weights.copy())
        reference = AttributeModel(attr, weights.copy())
        report = train(model, block, hp)
        want = fit_oracle.train(reference, full, hp)
        assert bits(model.weights) == bits(reference.weights)
        assert bits([report.initial_loss, report.final_loss]) == bits(
            [want.initial_loss, want.final_loss]
        )
        assert report == want

        models = [AttributeModel.fresh(a, 3) for a in range(3)]
        models[attr] = model
        cells = cell_rows([CellRef(tid, attr) for tid in tids])
        proposals, skipped = repair_cells(models, cells, store, featurizer)
        picked = fit_oracle.picks(model.weights, full)
        assert proposals.tolist() == [
            [tid, attr, vid] for tid, vid in zip(block.tids.tolist(), picked.tolist())
        ]
        assert skipped == len(tids) - len(block)
