"""Candidate domains and feature tensors over the golden fixture and random data."""

from __future__ import annotations

import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from increpair.errors import DataError
from increpair.featurize import Featurizer, tensor_slots
from increpair.relation import NULL_ID, CellRef, RawBatch, RelationStore, Schema
from increpair.stats import StatsStore, correlation_matrix, scratch_accumulator

from conftest import GOLDEN_ATTRS, GOLDEN_ROWS, build_store
from featurize_oracle import generate_domain, generate_feature_vector

REGION, CODE = 0, 1


def stats_and_corr(store):
    stats = StatsStore(store.n_attrs)
    stats.ingest([list(store.tuple_values(t)) for t in range(store.n_tuples)])
    return stats, correlation_matrix(stats, scratch_accumulator(stats))


@pytest.fixture
def golden():
    store = build_store(GOLDEN_ROWS, GOLDEN_ATTRS)
    stats, corr = stats_and_corr(store)
    return store, stats, corr


class TestDomain:
    def test_golden_candidates(self, golden):
        store, stats, corr = golden
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0
        )
        # codes co-occurring with region h, ascending by id: b, c, e
        names = [store.interner.resolve(CODE, vid) for vid in domain.candidates]
        assert names == ["b", "c", "e"]
        assert domain.observed_index == 0
        assert domain.observed == store.value(0, CODE)
        assert domain.size == 3

    def test_observed_value_always_present(self, golden):
        store, stats, corr = golden
        # the d-row's region is i; d co-occurs only with itself there
        domain = generate_domain(
            CellRef(2, CODE), store.tuple_values(2), stats, corr, omega=0.0
        )
        assert store.interner.resolve(CODE, domain.observed) == "d"

    def test_high_omega_shrinks_to_observed(self, golden):
        store, stats, corr = golden
        # corr(region -> code) ~ 0.406; a higher omega disqualifies the context
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.9
        )
        assert domain.candidates == (store.value(0, CODE),)

    def test_null_not_a_candidate(self):
        store = build_store(
            [("h", "b"), ("h", None), ("h", "c")], ("region", "code")
        )
        stats, corr = stats_and_corr(store)
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0
        )
        assert NULL_ID not in domain.candidates

    def test_null_observed_value_stays(self):
        store = build_store(
            [("h", "b"), ("h", None), ("h", "c")], ("region", "code")
        )
        stats, corr = stats_and_corr(store)
        domain = generate_domain(
            CellRef(1, CODE), store.tuple_values(1), stats, corr, omega=0.0
        )
        assert NULL_ID in domain.candidates
        assert domain.observed == NULL_ID

    def test_cap_keeps_heaviest_candidates(self):
        # code x9 co-occurs with region h once, x1/x2 three times each
        rows = [("h", "x1")] * 3 + [("h", "x2")] * 3 + [("h", "x9")]
        store = build_store(rows, ("region", "code"))
        stats, corr = stats_and_corr(store)
        domain = generate_domain(
            CellRef(6, CODE), store.tuple_values(6), stats, corr, omega=0.0, cap=2
        )
        # observed x9 is always kept; the single remaining slot goes to the
        # heaviest co-occurrer, which is x1 (tied with x2, lower id wins)
        names = sorted(store.interner.resolve(CODE, v) for v in domain.candidates)
        assert names == ["x1", "x9"]

    def test_validation(self, golden):
        store, stats, corr = golden
        values = store.tuple_values(0)
        with pytest.raises(DataError):
            generate_domain(CellRef(0, CODE), values, stats, corr, omega=1.0)
        with pytest.raises(DataError):
            generate_domain(CellRef(0, CODE), values, stats, corr, omega=-0.1)
        with pytest.raises(DataError):
            generate_domain(CellRef(0, CODE), values, stats, corr, cap=0)
        with pytest.raises(DataError):
            Featurizer(stats, corr, omega=1.0)
        with pytest.raises(DataError):
            Featurizer(stats, corr, omega=-0.1)
        with pytest.raises(DataError):
            Featurizer(stats, corr, cap=0)

    def test_candidates_sorted_ascending(self, golden):
        store, stats, corr = golden
        domain = generate_domain(
            CellRef(3, CODE), store.tuple_values(3), stats, corr, omega=0.0
        )
        assert list(domain.candidates) == sorted(domain.candidates)


class TestFeatureTensor:
    def test_golden_ratios_exact(self, golden):
        store, stats, corr = golden
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0
        )
        tensor = generate_feature_vector(domain, store.tuple_values(0), stats)
        # each of b, c, e co-occurs once with region h, whose frequency is 3
        assert tensor.values[:, REGION].tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert tensor.values[:, CODE].tolist() == [0.0, 0.0, 0.0]  # own column dead
        assert tensor.mask.all()

    def test_slots_padding_and_mask(self, golden):
        store, stats, corr = golden
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0
        )
        tensor = generate_feature_vector(domain, store.tuple_values(0), stats, slots=5)
        assert tensor.values.shape == (5, 2)
        assert tensor.mask.tolist() == [True, True, True, False, False]
        assert tensor.values[3:].sum() == 0.0

    def test_domain_must_fit_slots(self, golden):
        store, stats, corr = golden
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0
        )
        with pytest.raises(DataError):
            generate_feature_vector(domain, store.tuple_values(0), stats, slots=2)

    def test_stale_counts_rejected(self, golden):
        store, stats, corr = golden
        domain = generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0
        )
        with pytest.raises(DataError, match="out of step"):
            generate_feature_vector(domain, [99, domain.observed], stats)

    def test_ratios_bounded_by_one(self):
        rng = random.Random(5)
        rows = [
            (f"r{rng.randint(0, 3)}", f"c{rng.randint(0, 5)}", f"d{rng.randint(0, 2)}")
            for _ in range(80)
        ]
        store = build_store(rows, ("p", "q", "r"))
        stats, corr = stats_and_corr(store)
        featurizer = Featurizer(stats, corr, omega=0.0)
        for tid in range(store.n_tuples):
            for attr in range(3):
                domain = featurizer.domain(CellRef(tid, attr), store.tuple_values(tid))
                tensor = featurizer.tensor(domain, store.tuple_values(tid))
                assert np.all(tensor.values >= 0.0)
                assert np.all(tensor.values <= 1.0)
                # the observed candidate always co-occurs with every context value
                observed_row = tensor.values[domain.observed_index]
                for other in range(3):
                    if other != attr:
                        assert observed_row[other] > 0.0


class TestTensorSlots:
    def test_distinct_capped(self, golden):
        store, stats, corr = golden
        assert tensor_slots(stats, CODE, cap=50) == 4
        assert tensor_slots(stats, CODE, cap=3) == 3
        assert tensor_slots(stats, REGION, cap=50) == 2

    def test_at_least_one(self):
        assert tensor_slots(StatsStore(2), 0, cap=50) == 1

    def test_featurizer_uses_attr_slots(self, golden):
        store, stats, corr = golden
        featurizer = Featurizer(stats, corr, omega=0.0)
        domain = featurizer.domain(CellRef(0, CODE), store.tuple_values(0))
        tensor = featurizer.tensor(domain, store.tuple_values(0))
        assert tensor.values.shape == (4, 2)  # 4 distinct codes


VALUES = (None, "a", "b", "c", "d", "e")


@st.composite
def featurize_cases(draw):
    """A random relation, statistics over a prefix of it (so later rows can
    hold values the counts have never seen), thresholds and a cell pool."""
    n_attrs = draw(st.integers(2, 4))
    columns = [st.sampled_from(VALUES[: draw(st.integers(1, 6))]) for _ in range(n_attrs)]
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=30))
    counted = draw(st.integers(1, len(rows)))
    correlations = [
        [1.0 if i == j else draw(st.floats(0.0, 1.0)) for j in range(n_attrs)]
        for i in range(n_attrs)
    ]
    omega = draw(st.floats(0.0, 1.0, exclude_max=True))
    cap = draw(st.integers(1, 6))
    attr = draw(st.integers(0, n_attrs - 1))
    tids = draw(st.lists(st.integers(0, len(rows) - 1), max_size=40))
    return rows, counted, correlations, omega, cap, attr, tids


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBatchedMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(featurize_cases())
    def test_block_domain_and_tensor_equal_scalar_oracle(self, case):
        rows, counted, correlations, omega, cap, attr, tids = case
        store = build_store(rows, [f"c{i}" for i in range(len(rows[0]))])
        stats = StatsStore(store.n_attrs)
        stats.ingest([list(store.tuple_values(t)) for t in range(counted)])
        featurizer = Featurizer(stats, correlations, omega, cap)
        slots = tensor_slots(stats, attr, cap)

        expected = []  # (tid, domain, tensor) of every multi-candidate cell
        stale = False
        for tid in tids:
            values = store.tuple_values(tid)
            cell = CellRef(tid, attr)
            domain = generate_domain(cell, values, stats, correlations, omega, cap)
            assert featurizer.domain(cell, values) == domain
            try:
                tensor = generate_feature_vector(domain, values, stats, slots)
            except DataError:
                with pytest.raises(DataError):
                    featurizer.tensor(domain, values)
                stale |= domain.size >= 2
                continue
            one = featurizer.tensor(domain, values)
            assert same_bits(one.values, tensor.values)
            assert np.array_equal(one.mask, tensor.mask)
            if domain.size >= 2:
                expected.append((tid, domain, tensor))

        cell_rows = [store.tuple_values(tid) for tid in tids]
        if stale:
            with pytest.raises(DataError):
                featurizer.block(attr, tids, cell_rows)
            return
        block = featurizer.block(attr, tids, cell_rows)
        assert len(block) == len(expected)
        assert block.tids.tolist() == [tid for tid, _, _ in expected]
        assert block.values.shape == (len(expected), slots, store.n_attrs)
        assert block.values.flags.c_contiguous
        for i, (_, domain, tensor) in enumerate(expected):
            size = int(block.sizes[i])
            assert size == domain.size
            assert tuple(block.candidates[i, :size].tolist()) == domain.candidates
            assert not block.candidates[i, size:].any()
            assert block.observed_index[i] == domain.observed_index
            assert same_bits(block.values[i], tensor.values)
            assert np.array_equal(block.mask[i], tensor.mask)

    def test_empty_pool(self, golden):
        store, stats, corr = golden
        block = Featurizer(stats, corr, omega=0.0).block(CODE, [], [])
        assert len(block) == 0
        assert block.values.shape == (0, 4, 2)
