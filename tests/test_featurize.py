"""Candidate domains and feature tensors over the golden fixture and random data."""

from __future__ import annotations

import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from increpair.errors import DataError
from increpair.featurize import Featurizer, tensor_slots
from increpair.models import AttributeModel, Hyperparams, train
from increpair.relation import NULL_ID, CellRef, RawBatch, RelationStore, Schema
from increpair.stats import StatsStore, correlation_matrix, scratch_accumulator

from conftest import GOLDEN_ATTRS, GOLDEN_ROWS, build_store, value_of
import fit_oracle
from featurize_oracle import block_width, generate_domain, generate_feature_vector

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


@pytest.fixture
def typo():
    """Typo bx co-occurs once with region h, whose frequency is 31, so
    Pr[bx | h] = 1/31 lies under tau = 0.05; region i holds b and bx once each."""
    rows = [("h", "b")] * 30 + [("h", "bx"), ("i", "b"), ("i", "bx")]
    store = build_store(rows, ("region", "code"))
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
        assert domain.observed == value_of(store, 0, CODE)
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
        assert domain.candidates == (value_of(store, 0, CODE),)

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

    def test_rare_cooccurrence_falls_under_tau(self, typo):
        store, stats, corr = typo
        featurizer = Featurizer(stats, corr, omega=0.0, tau=0.05)
        domain = featurizer.domain(CellRef(0, CODE), store.tuple_values(0))
        assert [store.interner.resolve(CODE, v) for v in domain.candidates] == ["b"]
        assert domain == generate_domain(
            CellRef(0, CODE), store.tuple_values(0), stats, corr, omega=0.0, tau=0.05
        )
        # Pr[bx | i] = 1/2: in region i the typo stays a candidate
        tids = [0, 31]
        block = featurizer.block(CODE, tids, [store.tuple_values(t) for t in tids])
        assert block.tids.tolist() == [31]
        names = [store.interner.resolve(CODE, v) for v in block.candidates[0, :2].tolist()]
        assert names == ["b", "bx"] and block.sizes.tolist() == [2]

    def test_observed_value_under_tau_stays(self, typo):
        store, stats, corr = typo
        domain = Featurizer(stats, corr, omega=0.0, tau=0.05).domain(
            CellRef(30, CODE), store.tuple_values(30)
        )
        names = [store.interner.resolve(CODE, v) for v in domain.candidates]
        assert names == ["b", "bx"]
        assert domain.observed == value_of(store, 30, CODE)

    def test_zero_tau_keeps_every_cooccurring_value(self, typo):
        store, stats, corr = typo
        # Pr[bx | h] = 1/31 passes any tau up to it, and only those
        for tau, kept in (
            (0.0, ["b", "bx"]),
            (1 / 31, ["b", "bx"]),
            (np.nextafter(1 / 31, 1.0), ["b"]),
        ):
            domain = Featurizer(stats, corr, omega=0.0, tau=tau).domain(
                CellRef(0, CODE), store.tuple_values(0)
            )
            assert [store.interner.resolve(CODE, v) for v in domain.candidates] == kept

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
        for tau in (-0.1, 1.0, float("nan"), float("inf")):
            with pytest.raises(DataError):
                generate_domain(CellRef(0, CODE), values, stats, corr, tau=tau)
            with pytest.raises(DataError):
                Featurizer(stats, corr, tau=tau)

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

    def test_engine_rejects_stale_counts(self, golden):
        store, stats, corr = golden
        featurizer = Featurizer(stats, corr, omega=0.0)
        domain = featurizer.domain(CellRef(0, CODE), store.tuple_values(0))
        with pytest.raises(DataError, match="attribute 0 value id 99; counts are out of step"):
            featurizer.tensor(domain, [99, domain.observed])

    def test_block_rejects_stale_counts(self):
        # region 99 was never counted; the code cell's domain of several values
        # comes through zone, so `block` keeps the cell rather than dropping a
        # singleton before it reads the region's counts
        rows = [("h", "b", "p"), ("h", "c", "p"), ("i", "d", "q"), ("h", "e", "p")]
        store = build_store(rows, ("region", "code", "zone"))
        stats, corr = stats_and_corr(store)
        featurizer = Featurizer(stats, corr, omega=0.0)
        row = store.tuple_values(0)
        assert featurizer.block(CODE, [0], [row]).sizes.tolist() == [3]
        with pytest.raises(DataError, match="attribute 0 value id 99; counts are out of step"):
            featurizer.block(CODE, [0], [[99, *row[1:]]])

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
# a wide case's attribute draws from these, under a cap of 9 to 14, so that it
# holds more than 8 tensor slots while its block may be narrower
WIDE_VALUES = VALUES + tuple("fghijkl")


@st.composite
def featurize_cases(draw):
    """A random relation, statistics over a prefix of it (so later rows can
    hold values the counts have never seen), thresholds and a cell pool."""
    n_attrs = draw(st.integers(2, 4))
    attr = draw(st.integers(0, n_attrs - 1))
    wide = draw(st.booleans())
    columns = [st.sampled_from(VALUES[: draw(st.integers(1, 6))]) for _ in range(n_attrs)]
    if wide:
        columns[attr] = st.sampled_from(WIDE_VALUES)
    rows = draw(st.lists(st.tuples(*columns), min_size=12 if wide else 1, max_size=30))
    counted = draw(st.integers(1, len(rows)))
    correlations = [
        [1.0 if i == j else draw(st.floats(0.0, 1.0)) for j in range(n_attrs)]
        for i in range(n_attrs)
    ]
    omega = draw(st.floats(0.0, 1.0, exclude_max=True))
    cap = draw(st.integers(9, 14) if wide else st.integers(1, 6))
    # at the default tau, streams this short never prune
    tau = draw(st.just(0.0) | st.floats(0.05, 0.6))
    tid = st.integers(0, len(rows) - 1)
    if draw(st.booleans()):  # many cells over at most 3 tuples
        tid = st.sampled_from(draw(st.lists(tid, min_size=1, max_size=3)))
    tids = draw(st.lists(tid, max_size=40))
    return rows, counted, correlations, omega, cap, tau, attr, tids


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBatchedMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(featurize_cases())
    def test_block_domain_and_tensor_equal_scalar_oracle(self, case):
        rows, counted, correlations, omega, cap, tau, attr, tids = case
        store = build_store(rows, [f"c{i}" for i in range(len(rows[0]))])
        stats = StatsStore(store.n_attrs)
        stats.ingest([list(store.tuple_values(t)) for t in range(counted)])
        featurizer = Featurizer(stats, correlations, omega, cap, tau)
        slots = tensor_slots(stats, attr, cap)

        expected = []  # (tid, domain, tensor) of every multi-candidate cell
        distinct = {}  # each multi-candidate cell's row, numbered by first cell
        stale = False
        for tid in tids:
            values = store.tuple_values(tid)
            cell = CellRef(tid, attr)
            domain = generate_domain(cell, values, stats, correlations, omega, cap, tau)
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
                distinct.setdefault(tuple(values), len(distinct))

        cell_rows = [store.tuple_values(tid) for tid in tids]
        if stale:
            with pytest.raises(DataError):
                featurizer.block(attr, tids, cell_rows)
            return
        block = featurizer.block(attr, tids, cell_rows)
        assert len(block) == len(expected)
        assert block.tids.tolist() == [tid for tid, _, _ in expected]
        rows_read = [distinct[tuple(store.tuple_values(tid))] for tid, _, _ in expected]
        assert block.row.tolist() == rows_read
        width = block_width(slots, max((d.size for _, d, _ in expected), default=0))
        assert block.values.shape == (len(distinct), width, store.n_attrs)
        assert block.candidates.shape == (len(distinct), width)
        assert block.values.flags.c_contiguous
        for i, (_, domain, tensor) in enumerate(expected):
            row = block.row[i]
            size = int(block.sizes[row])
            assert size == domain.size
            assert tuple(block.candidates[row, :size].tolist()) == domain.candidates
            assert not block.candidates[row, size:].any()
            assert block.observed_index[row] == domain.observed_index
            assert same_bits(block.values[row], tensor.values[:width])
            assert not tensor.values[width:].any()
            assert np.array_equal(block.mask[row], tensor.mask[:width])
            assert not tensor.mask[width:].any()

    def test_empty_pool(self, golden):
        store, stats, corr = golden
        block = Featurizer(stats, corr, omega=0.0).block(CODE, [], [])
        assert len(block) == 0
        assert block.values.shape == (0, 4, 2)

    def test_one_entry_per_distinct_row(self):
        """Five cells over two distinct rows, one of them a singleton: the
        block keeps the three cells of the other row, tuples 0 and 3, all
        reading one entry."""
        rows = [("h", "b"), ("h", "c"), ("i", "d"), ("h", "b")]
        store = build_store(rows, ("region", "code"))
        stats, corr = stats_and_corr(store)
        tids = [0, 2, 3, 0, 2]  # region i holds only code d: a singleton domain
        block = Featurizer(stats, corr, omega=0.0).block(
            CODE, tids, [store.tuple_values(tid) for tid in tids]
        )
        assert len(block) == 3
        assert block.tids.tolist() == [0, 3, 0]
        assert block.row.tolist() == [0, 0, 0]
        assert block.sizes.tolist() == [2]
        assert block.values.shape == (1, 3, 2)  # three codes: three slots
        names = [store.interner.resolve(CODE, v) for v in block.candidates[0, :2].tolist()]
        assert names == ["b", "c"]
        assert block.observed_index.tolist() == [0]


class _QueryLog:
    """The statistics, recording the name of every member read but `n_attrs`."""

    def __init__(self, stats):
        self.stats, self.read = stats, []

    def __getattr__(self, name):
        if name != "n_attrs":
            self.read.append(name)
        return getattr(self.stats, name)


class TestOneCountQuery:
    def test_block_reads_each_context_once(self):
        """A block over every cell of a 4-attribute relation asks `cooccurring`
        once per context attribute, and the statistics nothing else beyond
        `tensor_slots`' distinct count.  The last tuple's values occur nowhere
        else, so its cells are singletons, which the block drops."""
        rng = random.Random(3)
        rows = [tuple(f"{name}{rng.randrange(4)}" for name in "pqrs") for _ in range(60)]
        store = build_store(rows + [("p9", "q9", "r9", "s9")], ("p", "q", "r", "s"))
        stats, corr = stats_and_corr(store)
        tids = list(range(store.n_tuples))
        for attr in range(4):
            log = _QueryLog(stats)
            block = Featurizer(log, corr, omega=0.0).block(
                attr, tids, [store.tuple_values(tid) for tid in tids]
            )
            assert block.tids.tolist() == tids[:-1]
            assert sorted(log.read) == ["cooccurring"] * 3 + ["distinct_count"]


class TestBlockWidth:
    def test_fit_on_the_block_equals_the_padded_fit(self):
        """Nine-value domains of a 36-slot attribute: the block is 16 slots
        wide, whole octets, and trains to the weights the padded 36-slot fit
        reaches.  A block trimmed to the plain widest domain would not: the
        softmax sum over 9 slots adds the ninth term last, the padded sum adds
        it to the first of the eight accumulators, and on this block the two
        round differently."""
        rng = random.Random(1)
        rows = []
        for _ in range(400):
            group = rng.randrange(4)
            value = 9 * group + min(rng.randrange(12), 8)
            rows.append((f"g{group}", f"h{group}.{rng.randrange(3)}", f"v{value}"))
        store = build_store(rows, ("g", "h", "v"))
        stats, corr = stats_and_corr(store)
        tids = list(range(store.n_tuples))
        examples = Featurizer(stats, corr, omega=0.0).block(
            2, tids, [store.tuple_values(tid) for tid in tids]
        )
        assert len(examples) == len(tids) and examples.values.shape[1:] == (16, 3)
        assert tensor_slots(stats, 2) == 36 and int(examples.sizes.max()) == 9
        weights = np.array([3.0, -2.5, 0.0])
        logits = np.where(examples.mask, examples.values @ weights, -np.inf)
        terms = np.exp(logits - logits.max(axis=-1, keepdims=True))
        assert not same_bits(np.ascontiguousarray(terms[:, :9]).sum(axis=-1), terms.sum(axis=-1))

        hp = Hyperparams(epochs=3, learning_rate=0.7)
        model, reference = AttributeModel(2, weights.copy()), AttributeModel(2, weights.copy())
        report = train(model, examples, hp)
        want = fit_oracle.train(reference, fit_oracle.padded(examples, 36), hp)
        assert same_bits(model.weights, reference.weights)
        assert report == want
