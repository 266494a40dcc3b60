"""Statistics layer: exact counts, conditional entropies, correlations, deltas."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_ATTRS, GOLDEN_ROWS
from count_oracle import (
    DictCounts,
    cooccurring,
    delta_from_dicts,
    delta_view,
    pair_count,
    pairs_view,
    weighted_stats,
)
from increpair.errors import DataError
from increpair.pipeline import RunState, Strategy, StrategyKind, run_stream
from increpair.relation import RelationStore, Schema, make_batches
from increpair.skipper import SkipperState, record_counts
from increpair.snapshot import load_run, save_run
from increpair.stats import (
    DeltaCounts,
    EntropyAccumulator,
    StatsStore,
    _c_ln_c_change,
    apply_delta,
    cond_entropy_scratch,
    correlation,
    correlation_matrix,
    joint_distribution,
    scratch_accumulator,
)

# region/code ids as interned from the golden four-row table:
# region: h=1, i=2; code: b=1, c=2, d=3, e=4
GOLDEN_IDS = [(1, 1), (1, 2), (2, 3), (1, 4)]
REGION, CODE = 0, 1

# hand-derived: three of four rows sit in the region-h column of weight 3,
# each contributing -(1/4)ln(1/3); the fourth is deterministic and contributes 0
H_CODE_GIVEN_REGION = (3 / 4) * math.log(3)  # 0.8239592165010823
CORR_CODE_REGION = 1 - H_CODE_GIVEN_REGION / math.log(4)  # 0.40563906222956625


def golden_stats() -> StatsStore:
    stats = StatsStore(2)
    stats.ingest(GOLDEN_IDS)
    return stats


def scanned_live_bytes(stats: StatsStore) -> int:
    """`StatsStore.live_bytes` by its definition: a scan over every count."""
    ordered = [(a, b) for a in range(stats.n_attrs) for b in range(stats.n_attrs) if a != b]
    single_entries = sum(len(table) for table in stats.single)
    pair_entries = sum(len(list(stats.iter_pairs(a, b))) for a, b in ordered)
    pair_rows = sum(len({va for va, _, _ in stats.iter_pairs(a, b)}) for a, b in ordered)
    return 96 * single_entries + 96 * pair_entries + 72 * pair_rows + 112 * len(ordered)


def golden_run_restored(tmp_path) -> tuple[RunState, RunState]:
    """An ihc run over the golden rows in two batches, and that run saved and
    restored: a run snapshot keeps the rows and `load_run` recounts them."""
    strategy = Strategy(kind=StrategyKind.IHC)
    state = RunState(RelationStore(Schema(GOLDEN_ATTRS)), strategy)
    run_stream(state, strategy, make_batches(GOLDEN_ROWS, count=2))
    save_run(state, tmp_path / "run.json")
    return state, load_run(tmp_path / "run.json")[0]


def count_delta(before: StatsStore, after: StatsStore) -> DeltaCounts:
    """The (old, new) changes between two stores, as `ingest` would report them."""
    marginals = tuple(
        {vid: (was.get(vid, 0), new) for vid, new in table.items() if was.get(vid, 0) != new}
        for was, table in zip(before.single, after.single)
    )
    pairs = {}
    for i in range(after.n_attrs):
        for j in range(i + 1, after.n_attrs):
            changed = {
                (vi, vj): (pair_count(before, i, vi, j, vj), new)
                for vi, vj, new in after.iter_pairs(i, j)
                if pair_count(before, i, vi, j, vj) != new
            }
            if changed:
                pairs[(i, j)] = changed
    return delta_from_dicts(after.n - before.n, marginals, pairs)


class TestCounts:
    def test_single_frequencies(self):
        stats = golden_stats()
        assert stats.single[REGION] == {1: 3, 2: 1}
        assert stats.single[REGION].get(1, 0) == 3
        assert stats.single[REGION].get(99, 0) == 0
        assert stats.distinct_count(CODE) == 4

    def test_pair_counts_both_orientations(self):
        stats = golden_stats()
        assert pair_count(stats, REGION, 1, CODE, 1) == 1
        assert pair_count(stats, CODE, 1, REGION, 1) == 1
        assert pair_count(stats, REGION, 1, CODE, 3) == 0
        assert cooccurring(stats, CODE, REGION, 1) == {1: 1, 2: 1, 4: 1}
        assert cooccurring(stats, CODE, REGION, 2) == {3: 1}

    def test_ingest_rejects_ragged_rows(self):
        with pytest.raises(DataError):
            StatsStore(2).ingest([(1, 2, 3)])
        with pytest.raises(DataError):
            StatsStore(2).ingest([(1, 2), (1,)])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_narrow_rows_count_as_the_list_form(self, dtype):
        # packing (vid << 32) | vid in a narrow dtype would wrap silently
        rows = [[1, 2], [3, 4], [1, 4], [1, 2]]
        listed, narrow = StatsStore(2), StatsStore(2)
        want = delta_view(listed.ingest(rows))
        assert delta_view(narrow.ingest(np.array(rows, dtype=dtype))) == want
        assert narrow.single == listed.single
        for pair in ((0, 1), (1, 0)):
            assert [a.tolist() for a in narrow.table(*pair)] == [
                a.tolist() for a in listed.table(*pair)
            ]

    @pytest.mark.parametrize("vid", [-1, 2**31, 2**70])
    def test_ingest_rejects_ids_that_do_not_pack(self, vid):
        with pytest.raises(DataError):
            StatsStore(2).ingest([(1, vid)])

    def test_needs_two_attributes(self):
        with pytest.raises(DataError):
            StatsStore(1)

    @pytest.mark.parametrize("pair", [(0, 0), (1, 1), (0, 2), (-1, 0)])
    def test_table_needs_two_attributes_of_the_store(self, pair):
        # the diagonal holds value counts, not a pair table
        with pytest.raises(DataError):
            golden_stats().table(*pair)

    def test_table_views_are_read_only(self):
        # a write into a view would corrupt the counts; the gate's kept copies are its own
        stats = golden_stats()
        keys, counts = stats.table(REGION, CODE)
        before = pairs_view(keys, counts)
        for view in (keys, counts):
            with pytest.raises(ValueError):
                view[0] = 99
            with pytest.raises(ValueError):
                view += 1
        assert pairs_view(*stats.table(REGION, CODE)) == before
        state = SkipperState()
        record_counts(state, stats, [REGION], batch=1)
        kept = state.baseline[REGION][CODE]
        assert all(array.flags.writeable for array in kept)
        kept[1][0] += 1
        assert pairs_view(*stats.table(REGION, CODE)) == before

    def test_delta_reports_old_and_new(self):
        stats = StatsStore(2)
        stats.ingest([(1, 1)])
        delta = stats.ingest([(1, 2), (1, 1)])
        m, marginals, pairs = delta_view(delta)
        assert m == 2
        assert marginals[0] == {1: (1, 3)}
        assert marginals[1] == {1: (1, 2), 2: (0, 1)}
        assert pairs[(0, 1)] == {(1, 1): (1, 2), (1, 2): (0, 1)}

    def test_empty_ingest_is_a_noop_delta(self):
        stats = golden_stats()
        delta = stats.ingest([])
        assert delta.m == 0
        assert all(not changed for changed in delta.marginals)
        assert all(not changed for changed in delta.pairs.values())

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            max_size=40,
        )
    )
    def test_pair_symmetry_and_totals(self, rows):
        stats = StatsStore(3)
        stats.ingest(rows)
        assert stats.n == len(rows)
        for a in range(3):
            assert sum(stats.single[a].values()) == len(rows)
            for b in range(3):
                if a == b:
                    continue
                forward = sorted(stats.iter_pairs(a, b))
                backward = sorted((vb, va, c) for va, vb, c in stats.iter_pairs(b, a))
                assert forward == backward
                assert sum(c for _, _, c in forward) == len(rows)

    def test_ingest_order_does_not_change_final_counts(self):
        rng = random.Random(3)
        rows = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(50)]
        one = StatsStore(2)
        one.ingest(rows)
        other = StatsStore(2)
        for row in rows:
            other.ingest([row])
        assert one.single == other.single
        assert sorted(one.iter_pairs(0, 1)) == sorted(other.iter_pairs(0, 1))

    def test_round_trip(self, tmp_path):
        state, restored = golden_run_restored(tmp_path)
        stats, clone = state.stats, restored.stats
        assert clone.n == stats.n == 4
        assert clone.single == stats.single
        assert sorted(clone.iter_pairs(0, 1)) == sorted(stats.iter_pairs(0, 1))
        assert sorted(clone.iter_pairs(1, 0)) == sorted(stats.iter_pairs(1, 0))

    def test_live_bytes_grows_with_content(self):
        empty = StatsStore(2).live_bytes()
        assert golden_stats().live_bytes() > empty

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 4).flatmap(
            lambda n_attrs: st.lists(
                st.lists(st.lists(st.integers(0, 5), min_size=n_attrs, max_size=n_attrs),
                         max_size=10),
                max_size=5,
            ).map(lambda batches: (n_attrs, batches))
        )
    )
    def test_live_bytes_counter_equals_scan(self, case):
        n_attrs, batches = case
        stats = StatsStore(n_attrs)
        assert stats.live_bytes() == scanned_live_bytes(stats)
        for rows in batches:
            stats.ingest(rows)
            assert stats.live_bytes() == scanned_live_bytes(stats)


@st.composite
def ingest_streams(draw):
    """Batches over 2-4 attributes: one-row batches, rows that repeat a few
    values, and batches drawn only from rows already counted, which change
    existing pairs and open none."""
    n_attrs = draw(st.integers(2, 4))
    values = st.integers(0, draw(st.sampled_from([1, 3, 2**31 - 1])))
    row = st.lists(values, min_size=n_attrs, max_size=n_attrs)
    batches = []
    for kind in draw(st.lists(st.sampled_from(["new", "one", "seen"]), min_size=1, max_size=6)):
        seen = [r for batch in batches for r in batch]
        if kind == "seen" and seen:
            batches.append(draw(st.lists(st.sampled_from(seen), min_size=1, max_size=8)))
        else:
            batches.append(draw(st.lists(row, min_size=1, max_size=1 if kind == "one" else 12)))
    return n_attrs, batches


class TestCountQueriesMatchOracle:
    """`cooccurring` reads what the oracle's dict views read, for unsorted and
    repeated query ids and ids never counted, and each context value's counts
    sum to its frequency, as the featurizer assumes."""

    @staticmethod
    def check(stats: StatsStore, queries) -> None:
        rows = np.array(queries, dtype=np.int64).reshape(-1, stats.n_attrs)
        single = stats.single
        for attr in range(stats.n_attrs):
            context, *columns = stats.cooccurring(attr, rows)
            assert context.tolist() == sorted(context.tolist())  # in context order
            for context_attr in range(stats.n_attrs):
                if attr == context_attr:
                    continue
                context_vids = rows[:, context_attr]
                index, values, counts = (column[context == context_attr] for column in columns)
                assert list(zip(index.tolist(), values.tolist(), counts.tolist())) == [
                    (i, vid, count)
                    for i, context_vid in enumerate(context_vids.tolist())
                    for vid, count in sorted(
                        cooccurring(stats, attr, context_attr, context_vid).items()
                    )
                ]
                sums = np.bincount(index, weights=counts, minlength=len(context_vids))
                assert sums.tolist() == [
                    single[context_attr].get(vid, 0) for vid in context_vids.tolist()
                ]

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=8), max_size=3
        ),
        queries=st.lists(st.tuples(*[st.integers(0, 6)] * 3), max_size=8),
    )
    @example(batches=[], queries=[(3, 1, 6), (0, 0, 0), (3, 1, 6)])  # a fresh store
    @example(batches=[[(2**31 - 1, 1, 2**31 - 1)]], queries=[(2**31 - 1, 1, 2**31 - 1)])
    def test_queries(self, batches, queries):
        stats = StatsStore(3)
        for rows in batches:
            stats.ingest(rows)
        self.check(stats, queries)

    def test_golden_counts(self):
        # region h (1) holds codes b, c and e (1, 2, 4) once each
        stats = golden_stats()
        context, index, vids, counts = stats.cooccurring(CODE, [[2, 0], [1, 0], [2, 0]])
        assert context.tolist() == [REGION] * 5
        assert index.tolist() == [0, 1, 1, 1, 2]
        assert vids.tolist() == [3, 1, 2, 4, 3]
        assert counts.tolist() == [1] * 5
        # region h's row sums to its frequency 3, region i's to 1
        _, index, _, counts = stats.cooccurring(CODE, [[1, 0], [2, 0]])
        assert np.bincount(index, weights=counts).tolist() == [3, 1]


class TestIngestMatchesDictOracle:
    @settings(deadline=None, max_examples=150)
    @given(ingest_streams())
    def test_counts_and_deltas(self, stream):
        n_attrs, batches = stream
        stats, oracle = StatsStore(n_attrs), DictCounts(n_attrs)
        for rows in batches:
            assert delta_view(stats.ingest(rows)) == oracle.ingest(rows)
            assert stats.n == oracle.n
            assert stats.single == oracle.single
            for a in range(n_attrs):
                assert stats.distinct_count(a) == len(oracle.single[a])
                for b in range(n_attrs):
                    if a != b:
                        assert list(stats.iter_pairs(a, b)) == sorted(oracle.iter_pairs(a, b))

    @settings(deadline=None, max_examples=100)
    @given(ingest_streams(), st.lists(st.integers(0, 6), max_size=3))
    def test_one_table_stays_segmented(self, stream, empty_at):
        """After every ingest, empty batches included, each segment of the one
        table is sorted and unique with positive counts, the offsets never
        decrease, each diagonal segment sums to n, and `table` and `single`
        read what the oracle counted."""
        n_attrs, batches = stream
        for at in sorted(empty_at, reverse=True):
            batches.insert(at, [])
        stats, oracle = StatsStore(n_attrs), DictCounts(n_attrs)
        for rows in batches:
            stats.ingest(rows)
            oracle.ingest(rows)
            offsets = stats._offsets
            assert offsets[0] == 0 and offsets[-1] == len(stats._keys) == len(stats._counts)
            assert (np.diff(offsets) >= 0).all()
            for segment, (start, stop) in enumerate(zip(offsets, offsets[1:])):
                keys, counts = stats._keys[start:stop], stats._counts[start:stop]
                assert (np.diff(keys) > 0).all() and (counts > 0).all()
                a, b = divmod(segment, n_attrs)
                if a == b:
                    assert counts.sum() == stats.n
                else:
                    want = {(va, vb): count for va, vb, count in oracle.iter_pairs(a, b)}
                    assert pairs_view(*stats.table(a, b)) == want
            assert stats.single == oracle.single


class TestEntropy:
    def test_golden_values(self):
        stats = golden_stats()
        assert cond_entropy_scratch(stats, CODE, REGION) == pytest.approx(
            H_CODE_GIVEN_REGION, abs=1e-12
        )
        assert cond_entropy_scratch(stats, REGION, CODE) == 0.0

    def test_errors(self):
        stats = golden_stats()
        with pytest.raises(DataError):
            cond_entropy_scratch(stats, 0, 0)
        with pytest.raises(DataError):
            cond_entropy_scratch(StatsStore(2), 0, 1)

    def test_scratch_accumulator_covers_all_ordered_pairs(self):
        stats = golden_stats()
        acc = scratch_accumulator(stats)
        assert acc.n == 4
        assert acc.value(CODE, REGION) == pytest.approx(H_CODE_GIVEN_REGION, abs=1e-12)
        assert acc.value(REGION, CODE) == 0.0
        with pytest.raises(DataError):
            acc.value(0, 0)

    def test_accumulator_round_trip(self, tmp_path):
        state, restored = golden_run_restored(tmp_path)
        acc, clone = state.entropy, restored.entropy
        assert clone.n == acc.n == 4
        assert (clone.marginal, clone.pair) == (acc.marginal, acc.pair)
        assert clone.value(CODE, REGION) == pytest.approx(H_CODE_GIVEN_REGION, abs=1e-12)

    def test_accumulator_keeps_one_sum_per_attribute_and_unordered_pair(self):
        acc = scratch_accumulator(StatsStore(4))
        assert (acc.n_attrs, acc.n, acc.marginal) == (4, 0, [0.0] * 4)
        assert list(acc.pair) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert list(acc.pair.values()) == [0.0] * 6
        assert EntropyAccumulator(4).value(2, 1) == 0.0


class TestApplyDelta:
    def test_matches_scratch_on_golden_extension(self):
        stats = StatsStore(2)
        delta = stats.ingest(GOLDEN_IDS[:2])
        acc = EntropyAccumulator(2)
        apply_delta(acc, stats, delta)
        delta = stats.ingest(GOLDEN_IDS[2:])
        apply_delta(acc, stats, delta)
        assert acc.value(CODE, REGION) == pytest.approx(H_CODE_GIVEN_REGION, abs=1e-12)
        assert acc.value(REGION, CODE) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_out_of_step_accumulator(self):
        stats = StatsStore(2)
        delta = stats.ingest([(1, 1)])
        acc = EntropyAccumulator(2)
        acc.n = 5
        with pytest.raises(DataError, match="does not connect"):
            apply_delta(acc, stats, delta)

    def test_rejects_inconsistent_marginals(self):
        stats = StatsStore(2)
        m, marginals, pairs = delta_view(stats.ingest([(1, 1), (2, 2)]))
        broken = {**marginals[0], 1: (0, 5)}
        with pytest.raises(DataError, match="marginal deltas"):
            apply_delta(
                EntropyAccumulator(2),
                stats,
                delta_from_dicts(m, (broken, marginals[1]), pairs),
            )

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                     max_size=8),
            min_size=1,
            max_size=5,
        )
    )
    def test_reads_only_the_delta(self, batches):
        stats = StatsStore(3)
        full, lean = EntropyAccumulator(3), EntropyAccumulator(3)
        for rows in batches:
            delta = stats.ingest(rows)
            apply_delta(full, stats, delta)
            bare = StatsStore(3)  # the right n and no counts at all
            bare.n = stats.n
            apply_delta(lean, bare, delta)
        assert (lean.n, lean.marginal, lean.pair) == (full.n, full.marginal, full.pair)

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                st.one_of(st.integers(1, 3), st.integers(1, 10**6)),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_scratch_on_long_skewed_counts(self, increments):
        """Counts up to a million per batch, where n ln n dwarfs n * H."""
        totals: Counter = Counter()
        before = StatsStore(3)
        acc = EntropyAccumulator(3)
        for step in increments:
            totals.update(step)
            after = weighted_stats(totals, 3)
            apply_delta(acc, after, count_delta(before, after))
            for x in range(3):
                for y in range(3):
                    if x != y:
                        assert acc.value(x, y) == pytest.approx(
                            cond_entropy_scratch(after, x, y), abs=1e-9
                        )
            before = after

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0), st.integers(0, 3_000_000)),
                st.one_of(st.integers(1, 50), st.integers(1, 3_000_000)),
            ),
            max_size=20,
        )
    )
    def test_c_ln_c_change_has_the_math_log_bits(self, changes):
        """Every term, and so every exact sum, has the bits that `math.log`
        gives; numpy's own log differs from it on some counts below 3M."""
        old = np.array([o for o, _ in changes], dtype=np.int64)
        new = np.array([n for _, n in changes], dtype=np.int64)
        terms = [n * math.log(n) - o * math.log(o or 1) for o, n in changes]

        def bits(values):
            return np.array(values, dtype=np.float64).view(np.uint64).tolist()

        got = [_c_ln_c_change(old[k : k + 1], new[k : k + 1]) for k in range(len(changes))]
        assert bits(got) == bits(terms)
        assert bits([_c_ln_c_change(old, new)]) == bits([math.fsum(terms)])

    def test_zero_row_delta_is_noop(self):
        stats = golden_stats()
        acc = scratch_accumulator(stats)
        before = acc.value(CODE, REGION)
        apply_delta(acc, stats, stats.ingest([]))
        assert acc.value(CODE, REGION) == before

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                min_size=0,
                max_size=8,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_incremental_equals_scratch(self, batches):
        stats = StatsStore(3)
        acc = EntropyAccumulator(3)
        for rows in batches:
            delta = stats.ingest(rows)
            apply_delta(acc, stats, delta)
            if stats.n == 0:
                continue
            for x in range(3):
                for y in range(3):
                    if x != y:
                        assert acc.value(x, y) == pytest.approx(
                            cond_entropy_scratch(stats, x, y), abs=1e-9
                        )


class TestCorrelation:
    def test_golden_matrix(self):
        stats = golden_stats()
        acc = scratch_accumulator(stats)
        matrix = correlation_matrix(stats, acc)
        assert matrix[REGION][REGION] == 1.0
        assert matrix[CODE][CODE] == 1.0
        assert matrix[REGION][CODE] == 1.0  # code fully determines region
        assert matrix[CODE][REGION] == pytest.approx(CORR_CODE_REGION, abs=1e-12)

    def test_single_valued_attribute_is_uncorrelated(self):
        stats = StatsStore(2)
        stats.ingest([(1, 1), (1, 2)])
        acc = scratch_accumulator(stats)
        assert correlation(stats, acc, 0, 1) == 0.0

    def test_out_of_step_accumulator_rejected(self):
        stats = golden_stats()
        acc = EntropyAccumulator(2)
        with pytest.raises(DataError, match="out of step"):
            correlation(stats, acc, 0, 1)

    def test_clamped_to_unit_interval(self):
        rng = random.Random(11)
        stats = StatsStore(3)
        stats.ingest([(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 2)) for _ in range(60)])
        acc = scratch_accumulator(stats)
        for row in correlation_matrix(stats, acc):
            for value in row:
                assert 0.0 <= value <= 1.0


class TestJointDistribution:
    def test_masses_and_errors(self):
        stats = golden_stats()
        joint = joint_distribution(stats, REGION, CODE)
        assert joint[(1, 1)] == 0.25
        assert sum(joint.values()) == pytest.approx(1.0)
        with pytest.raises(DataError):
            joint_distribution(stats, 0, 0)
        with pytest.raises(DataError):
            joint_distribution(StatsStore(2), 0, 1)
