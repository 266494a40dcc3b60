"""Retraining gates: divergence arithmetic and the two trigger rules."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from count_oracle import pairs_view
from increpair import skipper
from increpair.errors import DataError
from increpair.pipeline import RunState, Strategy, StrategyKind, run_batch, run_stream
from increpair.relation import RawBatch, RelationStore, Schema, make_batches
from increpair.skipper import (
    SkipperState,
    count_divergence,
    kl_divergence,
    record_counts,
    record_training,
    should_retrain_ikl,
    should_retrain_wkl,
    verdicts,
)
from increpair.snapshot import load_run, save_run
from increpair.stats import (
    EntropyAccumulator,
    StatsStore,
    apply_delta,
    correlation_matrix,
    joint_distribution,
)

# hand value: 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1) = 0.5108256237659906
HAND_KL = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)


class TestKlDivergence:
    def test_hand_value(self):
        current = {(1, 1): 0.5, (1, 2): 0.5}
        saved = {(1, 1): 0.9, (1, 2): 0.1}
        assert kl_divergence(current, saved) == pytest.approx(HAND_KL, abs=1e-12)
        assert HAND_KL == pytest.approx(0.5108256237659906, abs=1e-15)

    def test_identical_distributions_give_zero(self):
        dist = {(1, 1): 0.25, (2, 2): 0.75}
        assert kl_divergence(dist, dict(dist)) == 0.0

    def test_unseen_atom_uses_floor(self):
        current = {(1, 1): 1.0}
        assert kl_divergence(current, {}, floor=1e-6) == pytest.approx(
            math.log(1e6), abs=1e-9
        )

    def test_clamped_at_zero(self):
        # flooring the saved masses can push the raw sum slightly negative
        current = {(1, 1): 0.5, (1, 2): 0.5}
        saved = {(1, 1): 0.6, (1, 2): 0.6}
        assert kl_divergence(current, saved) >= 0.0

    def test_floor_must_be_positive(self):
        with pytest.raises(DataError):
            kl_divergence({}, {}, floor=0.0)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    )
    def test_never_negative(self, raw_p, raw_q):
        p_total, q_total = sum(raw_p), sum(raw_q)
        current = {(i, 0): v / p_total for i, v in enumerate(raw_p)}
        saved = {(i, 0): v / q_total for i, v in enumerate(raw_q)}
        assert kl_divergence(current, saved) >= 0.0

    def test_zero_mass_atoms_ignored(self):
        current = {(1, 1): 1.0, (2, 2): 0.0}
        saved = {(1, 1): 1.0}
        assert kl_divergence(current, saved) == 0.0


def drifted_state():
    state = SkipperState()
    record_training(
        state,
        0,
        {1: {(1, 1): 0.9, (1, 2): 0.1}, 2: {(1, 1): 1.0}},
        batch=1,
    )
    return state


CURRENT = {1: {(1, 1): 0.5, (1, 2): 0.5}, 2: {(1, 1): 1.0}}


class TestIklRule:
    def test_never_trained_always_fires(self):
        fired, partner = should_retrain_ikl(SkipperState(), 0, CURRENT, epsilon=999.0)
        assert fired and partner is None

    def test_fires_on_first_offending_partner(self):
        fired, partner = should_retrain_ikl(drifted_state(), 0, CURRENT, epsilon=0.5)
        assert fired
        assert partner == 1  # KL against partner 1 is ~0.511 > 0.5

    def test_quiet_when_within_epsilon(self):
        fired, partner = should_retrain_ikl(drifted_state(), 0, CURRENT, epsilon=0.6)
        assert not fired and partner is None

    def test_epsilon_validation(self):
        with pytest.raises(DataError):
            should_retrain_ikl(SkipperState(), 0, CURRENT, epsilon=-1.0)

    def test_infinite_epsilon_never_fires_after_training(self):
        fired, _ = should_retrain_ikl(drifted_state(), 0, CURRENT, epsilon=math.inf)
        assert not fired


class TestWklRule:
    def test_never_trained_fires_with_infinite_weight(self):
        fired, value = should_retrain_wkl(
            SkipperState(), 0, CURRENT, [[1.0, 1.0, 1.0]] * 3, epsilon=999.0
        )
        assert fired and value == math.inf

    def test_weighted_mean_formula(self):
        corr = [
            [1.0, 0.5, 0.2],
            [0.5, 1.0, 0.1],
            [0.2, 0.1, 1.0],
        ]
        fired, value = should_retrain_wkl(drifted_state(), 0, CURRENT, corr, epsilon=0.1)
        # partner 1 diverges by HAND_KL with weight 0.5; partner 2 by 0 with weight 0.2
        expected = (HAND_KL * 0.5 + 0.0 * 0.2) / 2
        assert value == pytest.approx(expected, abs=1e-12)
        assert fired == (expected > 0.1)

    def test_weighted_never_exceeds_max_pairwise(self):
        rng = random.Random(17)
        for _ in range(200):
            n_attrs = rng.randint(2, 5)
            state = SkipperState()
            saved = {
                other: {(1, v): p for v, p in enumerate(_simplex(rng, 3))}
                for other in range(1, n_attrs)
            }
            record_training(state, 0, saved, batch=1)
            current = {
                other: {(1, v): p for v, p in enumerate(_simplex(rng, 3))}
                for other in range(1, n_attrs)
            }
            corr = [[rng.random() for _ in range(n_attrs)] for _ in range(n_attrs)]
            epsilon = rng.random()
            ikl_fired, _ = should_retrain_ikl(state, 0, current, epsilon)
            wkl_fired, _ = should_retrain_wkl(state, 0, current, corr, epsilon)
            if wkl_fired:
                assert ikl_fired

    def test_needs_two_attributes(self):
        state = drifted_state()
        with pytest.raises(DataError):
            should_retrain_wkl(state, 0, CURRENT, [[1.0]], epsilon=0.1)


def _simplex(rng, size):
    raw = [rng.random() + 1e-3 for _ in range(size)]
    total = sum(raw)
    return [v / total for v in raw]


def state_view(state: SkipperState) -> dict:
    """Every field of the state, each kept table as a dict."""
    fields = dict(vars(state))
    fields["kept"] = {key: pairs_view(*table) for key, table in state.kept.items()}
    return fields


class TestStateBookkeeping:
    def test_record_training_snapshots_deeply(self):
        state = SkipperState()
        joints = {1: {(1, 1): 1.0}}
        record_training(state, 0, joints, batch=2)
        joints[1][(1, 1)] = 0.1  # mutating the source must not touch the snapshot
        assert state.saved[0][1] == {(1, 1): 1.0}
        assert state.trained_batch(0) == 2
        assert state.trained_batch(5) == 0

    def test_batch_ordinal_validated(self):
        with pytest.raises(DataError):
            record_training(SkipperState(), 0, {}, batch=0)

    def test_round_trip(self, tmp_path):
        # a run snapshot keeps last_trained alone; load_run recounts the reference
        strategy = Strategy(kind=StrategyKind.IHC, skip="ikl", epsilon_kl=math.inf, omega=0.0)
        state = RunState(RelationStore(Schema(("a", "b", "c"))), strategy)
        rows = [("x", "1", "p"), ("x", "2", "p"), ("y", "1", "q"), ("x", "3", "p"), ("y", "1", "p")]
        run_stream(state, strategy, make_batches(rows, count=2))
        assert state.skipper.last_trained == {0: 1, 1: 1, 2: 1}
        # the (a, b) table as batch 1 left it: (x,1), (x,2), (y,1); batch 2 added (x,3), (y,1)
        assert state.skipper.key(0, 1) == state.skipper.key(1, 0) == (0, 1, 1)
        assert pairs_view(*state.skipper.kept[0, 1, 1]) == {(1, 1): 1, (1, 2): 1, (2, 1): 1}
        save_run(state, tmp_path / "run.json")
        clone = load_run(tmp_path / "run.json")[0].skipper
        assert state_view(clone) == state_view(state.skipper)

    def test_kept_tables_follow_the_reference_keys(self, tmp_path):
        # (a, b) and (a, c) are uniform in both row patterns, and (b, c) is not,
        # so at epsilon 0 a batch of the other pattern retrains b and c but not a
        first = [("a0", "b0", "c0"), ("a0", "b1", "c1"), ("a1", "b0", "c0"), ("a1", "b1", "c1")]
        second = [("a0", "b0", "c1"), ("a0", "b1", "c0"), ("a1", "b0", "c1"), ("a1", "b1", "c0")]
        strategy = Strategy(kind=StrategyKind.IHC, skip="ikl", epsilon_kl=0.0, omega=0.0)
        state = RunState(RelationStore(Schema(("a", "b", "c"))), strategy)
        rng = random.Random(7)
        trained_at = set()
        for k, rows in enumerate([first, second, first + second, second * 2, first, second], 1):
            run_batch(state, strategy, RawBatch(k, tuple(rng.sample(rows * 2, 2 * len(rows)))))
            gate = state.skipper
            trained_at.add(tuple(sorted(set(gate.last_trained.values()))))
            named = {gate.key(a, b) for a in gate.last_trained for b in range(3) if b != a}
            assert set(gate.kept) == named
            for (_, _, batch), (_, counts) in gate.kept.items():
                assert counts.sum() == state.store.batch_tids(batch).stop
            save_run(state, tmp_path / "run.json")
            rebuilt = load_run(tmp_path / "run.json")[0].skipper
            assert rebuilt.kept.keys() == gate.kept.keys()
            for key, arrays in gate.kept.items():
                assert all(map(np.array_equal, rebuilt.kept[key], arrays))
        # a kept its batch-2 reference while b and c retrained later
        assert (2, 4) in trained_at and (2, 6) in trained_at


# -- the engine's path: divergences from count deltas ----------------------------


def reference_joints(stats, attr):
    return {
        other: joint_distribution(stats, attr, other)
        if attr < other
        else joint_distribution(stats, other, attr)
        for other in range(stats.n_attrs)
        if other != attr
    }


def same_divergence(delta_value, reference_value):
    # the engine sums its terms pairwise in key order and the reference one by
    # one in dict order; the reference's own rounding reaches ~1e-16 on
    # divergences near 1e-5
    return math.isclose(delta_value, reference_value, rel_tol=1e-12, abs_tol=1e-15)


class TestCountDivergence:
    def test_matches_reference_by_hand(self):
        stats = StatsStore(2)
        stats.ingest([[1, 1], [1, 1], [1, 2], [2, 2]])
        state, reference = SkipperState(), SkipperState()
        record_counts(state, stats, [0], batch=1)
        record_training(reference, 0, reference_joints(stats, 0), batch=1)
        stats.ingest([[1, 2], [3, 3]])
        expected = kl_divergence(joint_distribution(stats, 0, 1), reference.saved[0][1])
        assert same_divergence(count_divergence(state, stats, 0, 1), expected)

    def test_proportional_batch_gives_exactly_zero(self):
        rows = [[1, 1, 2], [1, 2, 2], [2, 1, 3]]
        stats = StatsStore(3)
        stats.ingest(rows)
        state = SkipperState()
        record_counts(state, stats, range(3), batch=1)
        stats.ingest(rows * 2)
        for attr in range(3):
            for other in range(3):
                if other != attr:
                    assert count_divergence(state, stats, attr, other) == 0.0

    def test_pair_below_the_floor_at_training_grows(self):
        stats = StatsStore(2)
        stats.ingest([[1, 1]] * 30 + [[2, 2]])  # (2, 2) has mass 1/31 < 0.05
        state, reference = SkipperState(), SkipperState()
        record_counts(state, stats, [0, 1], batch=1)
        for attr in range(2):
            record_training(reference, attr, reference_joints(stats, attr), batch=1)
        assert [state.kept[state.key(attr, 1 - attr)][1].sum() for attr in range(2)] == [31, 31]
        stats.ingest([[2, 2]] * 9 + [[3, 1]])  # (2, 2) grows to 10/41; (3, 1) is new
        for attr, other in ((0, 1), (1, 0)):
            joint = reference_joints(stats, attr)[other]
            want = kl_divergence(joint, reference.saved[attr][other], floor=0.05)
            have = count_divergence(state, stats, attr, other, floor=0.05)
            assert want > 0 and same_divergence(have, want), (attr, have, want)

    def test_kept_tables_survive_later_batches(self):
        # the gate keeps the tables themselves: a later ingest must replace them
        stats = StatsStore(3)
        stats.ingest([[1, 1, 2], [1, 2, 2], [2, 1, 3]])
        state = SkipperState()
        record_counts(state, stats, [1], batch=1)
        before = {key: tuple(array.copy() for array in kept) for key, kept in state.kept.items()}
        assert set(before) == {state.key(1, 0), state.key(1, 2)} == {(0, 1, 1), (1, 2, 1)}
        stats.ingest([[1, 1, 2], [3, 2, 1], [2, 4, 3]])
        for key, (keys, counts) in state.kept.items():
            assert np.array_equal(keys, before[key][0])
            assert np.array_equal(counts, before[key][1])
            assert not np.array_equal(stats.table(*key[:2])[1], counts)

    def test_kept_tables_are_copies(self):
        # a view of the statistics' one table would keep all of it alive
        stats = StatsStore(3)
        stats.ingest([[1, 1, 2], [1, 2, 2], [2, 1, 3]])
        state = SkipperState()
        record_counts(state, stats, [0, 1, 2], batch=1)
        tables = [array for a in range(3) for b in range(3) if a != b for array in stats.table(a, b)]
        for arrays in state.kept.values():
            assert not any(np.shares_memory(mine, table) for mine in arrays for table in tables)
        # one copy per pair and batch, whichever of its attributes trained
        assert set(state.kept) == {(0, 1, 1), (0, 2, 1), (1, 2, 1)}
        stats.ingest([[3, 3, 3]])
        record_counts(state, stats, [2], batch=2)
        assert state.kept[state.key(2, 0)] is not state.kept[state.key(0, 2)]
        assert set(state.kept) == {(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 2, 2), (1, 2, 2)}
        # a table that no attribute's reference names any more is dropped
        record_counts(state, stats, [0, 1], batch=2)
        assert set(state.kept) == {(0, 1, 2), (0, 2, 2), (1, 2, 2)}

    def test_unknown_rule_is_an_error(self):
        stats = StatsStore(2)
        stats.ingest([[1, 1]])
        with pytest.raises(DataError):
            verdicts(SkipperState(), stats, "max", [[1.0, 1.0]] * 2, 0.1)

    def test_floor_must_be_positive(self):
        stats = StatsStore(2)
        stats.ingest([[1, 1]])
        state = SkipperState()
        record_counts(state, stats, [0], batch=1)
        with pytest.raises(DataError):
            count_divergence(state, stats, 0, 1, floor=0.0)

    def test_gate_stage_computes_each_shared_divergence_once(self, monkeypatch):
        # batch 2 repeats batch 1, so every divergence is 0 and the ikl rule
        # reads every partner; all four attributes trained at batch 1, so each
        # pair's two orientations are one value
        strategy = Strategy(kind=StrategyKind.IHC, skip="ikl", omega=0.0)
        state = RunState(RelationStore(Schema(("a", "b", "c", "d"))), strategy)
        rng = random.Random(2)
        rows = [tuple(f"{name}{rng.randrange(3)}" for name in "abcd") for _ in range(24)]
        first, second = make_batches(rows * 2, count=2)
        run_stream(state, strategy, [first])
        assert state.skipper.last_trained == {0: 1, 1: 1, 2: 1, 3: 1}
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return count_divergence(*args, **kwargs)

        monkeypatch.setattr(skipper, "count_divergence", counted)
        run_stream(state, strategy, [second])
        assert state.skipper.last_trained == {0: 1, 1: 1, 2: 1, 3: 1}
        assert len(calls) == 4 * 3 // 2
        assert {tuple(sorted(pair)) for pair in calls} == {
            (a, b) for a in range(4) for b in range(a + 1, 4)
        }


@st.composite
def gate_streams(draw):
    """Batches of rows over a few attributes with skewed values, so rare value
    pairs fall below the floor once enough rows are seen.  A batch of size 0
    repeats every row so far twice, which leaves each joint where it was."""
    n_attrs = draw(st.integers(2, 4))
    vocab = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = [1 / value**2 for value in range(1, vocab + 1)]
    batches = [
        [rng.choices(range(1, vocab + 1), weights, k=n_attrs) for _ in range(size)]
        if size
        else "repeat"
        for size in sizes
    ]
    floor = draw(st.sampled_from([1e-6, 1e-3, 0.01, 0.02, 0.05]))
    epsilon = draw(st.sampled_from([0.0, 1e-3, 0.02, 0.1, 0.5]))
    return n_attrs, batches, floor, epsilon


class TestDeltaPathMatchesReference:
    @settings(deadline=None, max_examples=150)
    @given(gate_streams(), st.sampled_from(["ikl", "wkl"]))
    def test_verdicts_partners_and_divergences(self, stream, rule):
        n_attrs, batches, floor, epsilon = stream
        stats, acc = StatsStore(n_attrs), EntropyAccumulator(n_attrs)
        delta_state, reference = SkipperState(), SkipperState()
        history: list[list[int]] = []
        for k, batch in enumerate(batches, start=1):
            repeat = batch == "repeat"
            rows = history * 2 if repeat else batch  # x3, not a power of 2
            if not rows:
                continue  # nothing to repeat yet
            n_before = stats.n
            delta = stats.ingest(rows)
            history += rows
            apply_delta(acc, stats, delta)
            correlations = correlation_matrix(stats, acc)
            gate = verdicts(delta_state, stats, rule, correlations, epsilon, floor)
            assert len(gate) == n_attrs
            fired = []
            for attr, got in enumerate(gate):
                joints = reference_joints(stats, attr)
                if rule == "ikl":
                    expected = should_retrain_ikl(reference, attr, joints, epsilon, floor)
                else:
                    expected = should_retrain_wkl(
                        reference, attr, joints, correlations, epsilon, floor
                    )
                assert got[0] == expected[0]
                if rule == "ikl":
                    assert got[1] == expected[1]
                else:
                    assert got[1] == expected[1] or same_divergence(got[1], expected[1])
                if reference.trained_batch(attr):
                    for other, joint in joints.items():
                        want = kl_divergence(joint, reference.saved[attr][other], floor)
                        have = count_divergence(delta_state, stats, attr, other, floor)
                        assert same_divergence(have, want), (attr, other, have, want)
                        trained_n = delta_state.kept[delta_state.key(attr, other)][1].sum()
                        if repeat and trained_n == n_before:
                            assert have == want == 0.0
                if got[0]:
                    record_training(reference, attr, joints, k)
                    fired.append(attr)
            record_counts(delta_state, stats, fired, k)
            assert delta_state.last_trained == reference.last_trained
