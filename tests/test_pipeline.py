"""Strategy engine: scoping, repair pools, metrics, and cross-batch behavior."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from increpair.detectors import DetectionScope, detect_perfect, truth_ids
from increpair.errors import ConfigError, DataError
from increpair.models import Hyperparams
from increpair.pipeline import (
    RunState,
    Strategy,
    StrategyKind,
    evaluate,
    run_batch,
    run_stream,
)
from increpair.relation import (
    CellRef,
    CellStatus,
    RawBatch,
    RelationStore,
    Schema,
    ValueInterner,
    make_batches,
)
from increpair.snapshot import load_run, save_run

from conftest import canonical_of, cell_rows, original_canonical, status_of
from store_oracle import truth_scan

SCHEMA = Schema(("ctx", "val"))


def new_state(strategy, rows_truth=None, schema=SCHEMA):
    store = RelationStore(schema)
    return RunState(store, strategy, ground_truth=rows_truth)


def strategy_for(kind, **overrides):
    defaults = dict(
        kind=kind,
        detectors=("perfect",),
        omega=0.0,
        hyperparams=Hyperparams(epochs=100, learning_rate=0.5),
    )
    defaults.update(overrides)
    return Strategy(**defaults)


class TestStrategyConfig:
    def test_baselines_reject_skipping(self):
        for kind in (StrategyKind.HC_SEP, StrategyKind.HC_ACC):
            with pytest.raises(ConfigError):
                Strategy(kind=kind, skip="ikl")

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            Strategy(kind=StrategyKind.IHC, skip="sometimes")
        with pytest.raises(ConfigError):
            Strategy(kind=StrategyKind.IHC, detectors=("oracle",))

    def test_numeric_validation(self):
        with pytest.raises(ConfigError):
            Strategy(kind=StrategyKind.IHC, omega=1.0)
        with pytest.raises(ConfigError):
            Strategy(kind=StrategyKind.IHC, epsilon_kl=-0.1)
        with pytest.raises(ConfigError):
            Strategy(kind=StrategyKind.IHC, domain_cap=0)
        with pytest.raises(ConfigError):
            Strategy(kind=StrategyKind.IHC, train_limit=0)

    def test_nan_epsilon_rejected_and_infinite_allowed(self):
        with pytest.raises(ConfigError, match="epsilon"):
            Strategy(kind=StrategyKind.IHC, skip="ikl", epsilon_kl=math.nan)
        never = Strategy(kind=StrategyKind.IHC, skip="ikl", epsilon_kl=math.inf)
        assert never.epsilon_kl == math.inf

    def test_round_trip(self):
        strategy = strategy_for(StrategyKind.IHC_RE, skip="wkl", epsilon_kl=0.2)
        assert Strategy.from_dict(strategy.to_dict()) == strategy

    def test_kinds_fill_the_grid(self):
        grid = {(kind.incremental, kind.revisit): kind for kind in StrategyKind}
        assert grid == {
            (False, False): StrategyKind.HC_SEP,
            (False, True): StrategyKind.HC_ACC,
            (True, False): StrategyKind.IHC,
            (True, True): StrategyKind.IHC_RE,
        }

    def test_detector_companion_validation(self):
        with pytest.raises(ConfigError, match="ground truth"):
            new_state(Strategy(kind=StrategyKind.IHC, detectors=("perfect",)))
        with pytest.raises(ConfigError, match="constraints"):
            new_state(Strategy(kind=StrategyKind.IHC, detectors=("dc",)))

    def test_run_batch_rejects_foreign_strategy(self):
        strategy = Strategy(kind=StrategyKind.IHC)
        state = new_state(strategy)
        other = Strategy(kind=StrategyKind.IHC, seed=1)
        with pytest.raises(ConfigError, match="does not match"):
            run_batch(state, other, RawBatch(1, (("a", "b"),)))


# ground truth: ctx k always pairs with val v9 in row 0; later rows are clean
TRUTH = [
    ("k", "v9"),
    ("k", "v1"),
    ("k", "v1"),
    ("k", "v9"),
    ("k", "v9"),
    ("k", "v9"),
    ("k", "v9"),
]
DIRTY_ROWS = [
    ("k", "bad"),  # the one injected error
    ("k", "v1"),
    ("k", "v1"),
    ("k", "v9"),
    ("k", "v9"),
    ("k", "v9"),
    ("k", "v9"),
]
BATCHES = [
    RawBatch(1, tuple(tuple(r) for r in DIRTY_ROWS[:3])),
    RawBatch(2, tuple(tuple(r) for r in DIRTY_ROWS[3:])),
]


def run_two_batches(kind, **overrides):
    strategy = strategy_for(kind, **overrides)
    state = new_state(strategy, TRUTH)
    reports = run_stream(state, strategy, BATCHES)
    return state, reports


class TestStrategyContrast:
    def test_first_batch_repairs_with_what_it_has(self):
        # with only v1 in sight, every strategy repairs the bad cell to v1
        for kind in StrategyKind:
            state, reports = run_two_batches(kind)
            assert reports[0].cells_flagged == 1
            assert reports[0].repairs_changed == 1
            assert reports[0].remaining_errors == 1  # v1 is still not v9

    def test_hc_acc_revisits_and_corrects(self):
        state, reports = run_two_batches(StrategyKind.HC_ACC)
        # the wrongly repaired cell is re-flagged on the full rescan and fixed
        # once v9 dominates the rebuilt statistics
        assert reports[1].cells_flagged == 1
        assert reports[1].remaining_errors == 0
        assert canonical_of(state.store, 0, 1) == "v9"
        assert original_canonical(state.store, 0, 1) == "bad"

    def test_ihc_re_revisits_and_corrects(self):
        state, reports = run_two_batches(StrategyKind.IHC_RE)
        assert reports[1].remaining_errors == 0
        assert canonical_of(state.store, 0, 1) == "v9"

    def test_ihc_leaves_prior_batches_alone(self):
        state, reports = run_two_batches(StrategyKind.IHC)
        assert reports[1].cells_flagged == 0  # incoming batch is clean
        assert reports[1].repairs_attempted == 0
        assert canonical_of(state.store, 0, 1) == "v1"  # first repair stands
        assert reports[1].remaining_errors == 1

    def test_hc_sep_ignores_history(self):
        state, reports = run_two_batches(StrategyKind.HC_SEP)
        # batch 2 statistics must cover batch 2 alone
        assert state.stats.n == 4
        assert canonical_of(state.store, 0, 1) == "v1"
        assert reports[1].remaining_errors == 1


class TestTruthInternedByALaterBatch:
    """Row 0's true value v9 is first interned by batch 2."""

    def test_repair_to_it_counts_as_correct(self):
        for kind in (StrategyKind.HC_ACC, StrategyKind.IHC_RE):
            state, reports = run_two_batches(kind)
            assert reports[0].repairs_correct == 0  # v1 is not v9
            assert reports[1].repairs_correct == 1
            assert reports[1].cum_repairs_correct == 1
            assert reports[1].remaining_errors == 0

    def test_revisit_detection_matches_a_string_scan(self):
        store = RelationStore(SCHEMA)

        def revisit_flags():
            """`detect_perfect` over every tuple, checked against a string scan."""
            revisit = DetectionScope.over(range(store.n_tuples))
            truth = truth_ids(store, TRUTH, range(store.n_tuples))
            flags = detect_perfect(store, truth, revisit).tolist()
            assert flags == cell_rows(truth_scan(store, TRUTH, revisit.probe)).tolist()
            return flags

        store.append_batch(BATCHES[0])
        assert truth_ids(store, TRUTH, [0]).tolist() == [[1, -1]]
        revisit_flags()
        store.append_batch(BATCHES[1])
        assert truth_ids(store, TRUTH, [0]).tolist() == [[1, store.interner.lookup(1, "v9")]]
        assert revisit_flags() == [[0, 1]]
        store.mark_dirty(cell_rows([CellRef(0, 1)]))
        store.apply_repairs(cell_rows([(CellRef(0, 1), store.interner.lookup(1, "v9"))]))
        assert revisit_flags() == []


class TestTruthLookedUpOnce:
    """Each truth string is looked up when its tuple arrives; a batch looks up
    again only the seen cells whose true string no batch had issued yet."""

    TRUTH = [(f"c{i % 3}", f"v{i % 6}") for i in range(40)]
    TRUTH[2], TRUTH[25] = ("c2", "late"), ("c1", "late")  # "late" arrives in batch 3
    TRUTH[3] = ("c0", "gone")  # never issued
    DIRTY = [(ctx, f"bad{t}" if t in (2, 3, 14, 33) else val) for t, (ctx, val) in enumerate(TRUTH)]

    def test_ihc_re_with_the_perfect_detector(self, monkeypatch):
        looked_up = []
        lookup_column = ValueInterner.lookup_column

        def counting(interner, attr, values):
            looked_up.append(len(values))
            return lookup_column(interner, attr, values)

        monkeypatch.setattr(ValueInterner, "lookup_column", counting)
        strategy = strategy_for(StrategyKind.IHC_RE)
        state = new_state(strategy, self.TRUTH)
        store = state.store
        unissued = []  # per batch, the seen cells whose true string is not interned
        for raw in make_batches(self.DIRTY, count=4):
            report = run_batch(state, strategy, raw)
            unissued.append(
                sum(
                    store.interner.lookup(attr, self.TRUTH[tid][attr]) is None
                    for tid in range(store.n_tuples)
                    for attr in range(store.n_attrs)
                )
            )
        assert unissued == [2, 2, 1, 1]
        # batch k + 1 looks up again what batch k left unissued
        assert sum(looked_up) <= len(self.TRUTH) * store.n_attrs + sum(unissued[:-1])
        full = evaluate(store, self.TRUTH)
        assert (report.true_errors_so_far, report.remaining_errors) == (
            full["true_errors"],
            full["remaining_errors"],
        )

    def test_unissued_lists_each_minus_one(self, tmp_path):
        strategy = strategy_for(StrategyKind.IHC_RE)
        state = new_state(strategy, self.TRUTH)

        def assert_unissued(state):
            seen = state.truth[: state.store.n_tuples]
            assert [tids.tolist() for tids in state.unissued] == [
                np.flatnonzero(seen[:, attr] < 0).tolist() for attr in range(seen.shape[1])
            ]

        for raw in make_batches(self.DIRTY, count=4):
            run_batch(state, strategy, raw)
            assert_unissued(state)
            save_run(state, tmp_path / "run.json")
            restored, _ = load_run(tmp_path / "run.json")
            restored.attach_inputs(ground_truth=self.TRUTH)
            assert_unissued(restored)
        assert [tids.tolist() for tids in state.unissued] == [[], [3]]


class TestProbeAccounting:
    def test_probe_cells_by_strategy(self):
        rows = [(f"c{i % 2}", f"v{i % 3}") for i in range(6)]
        batches = make_batches(rows, count=3)
        expected = {
            StrategyKind.HC_SEP: [4, 4, 4],
            StrategyKind.IHC: [4, 4, 4],
            StrategyKind.HC_ACC: [4, 8, 12],
            StrategyKind.IHC_RE: [4, 8, 12],
        }
        for kind, probes in expected.items():
            strategy = Strategy(kind=kind, detectors=("null",), omega=0.0)
            state = new_state(strategy)
            reports = run_stream(state, strategy, batches)
            assert [r.probe_cells for r in reports] == probes, kind
            assert [r.cum_probe_cells for r in reports] == [
                sum(probes[: i + 1]) for i in range(3)
            ]

    def test_tuples_seen_accumulates(self):
        strategy = Strategy(kind=StrategyKind.IHC, detectors=("null",))
        state = new_state(strategy)
        reports = run_stream(
            state, strategy, make_batches([("a", "b")] * 5, count=2)
        )
        assert [r.tuples_seen for r in reports] == [3, 5]
        assert [r.batch for r in reports] == [1, 2]


class TestSkipperWiring:
    def test_no_recording_when_skip_disabled(self):
        state, _ = run_two_batches(StrategyKind.IHC)
        assert state.skipper.last_trained == {}

    def test_recording_follows_training(self):
        state, reports = run_two_batches(StrategyKind.IHC, skip="ikl", epsilon_kl=0.0)
        trained = state.skipper.trained_batch(1)
        assert trained >= 1
        # the val attribute's count reference: the (ctx, val) table kept at the
        # batch it trained, whose counts total n', the tuples seen then
        assert set(state.skipper.kept) == {state.skipper.key(1, 0)} == {(0, 1, trained)}
        assert state.skipper.kept[0, 1, trained][1].sum() == reports[trained - 1].tuples_seen

    def test_infinite_epsilon_blocks_retraining(self):
        state, reports = run_two_batches(
            StrategyKind.IHC, skip="ikl", epsilon_kl=float("inf")
        )
        # the constant ctx column never yields training examples
        assert reports[0].attrs_retrained == ("val",)
        assert reports[1].attrs_retrained == ()


class TestMetricsStream:
    def test_jsonl_is_deterministic_and_timing_free(self):
        def capture(include_timings=False):
            strategy = strategy_for(StrategyKind.IHC)
            state = new_state(strategy, TRUTH)
            stream = io.StringIO()
            run_stream(state, strategy, BATCHES, stream, include_timings)
            return stream.getvalue()

        first, second = capture(), capture()
        assert first == second
        lines = [json.loads(line) for line in first.splitlines()]
        assert len(lines) == 2
        assert all("timings_s" not in line for line in lines)
        with_timings = json.loads(capture(include_timings=True).splitlines()[0])
        assert set(with_timings["timings_s"]) == {
            "detect", "stats", "gate", "train", "featurize", "fit", "repair", "evaluate"
        }
        # featurize and fit split the train stage, which keeps its total
        timings = with_timings["timings_s"]
        assert timings["featurize"] > 0 and timings["fit"] > 0
        assert timings["featurize"] + timings["fit"] <= timings["train"] + 2e-6

    def test_timings_lines_carry_measured_peak_memory(self):
        strategy = strategy_for(StrategyKind.IHC)
        state = new_state(strategy, TRUTH)
        stream = io.StringIO()
        run_stream(state, strategy, BATCHES, stream, include_timings=True)
        peaks = [json.loads(line)["peak_rss_kb"] for line in stream.getvalue().splitlines()]
        assert len(peaks) == 2 and peaks[0] > 0
        assert peaks == sorted(peaks)  # a high-water mark never falls
        default = run_stream(new_state(strategy, TRUTH), strategy, BATCHES)
        assert all("peak_rss_kb" not in report.to_json_line() for report in default)

    def test_ground_truth_fields_null_without_truth(self):
        strategy = Strategy(kind=StrategyKind.IHC, detectors=("null",))
        state = new_state(strategy)
        report = run_batch(state, strategy, RawBatch(1, (("a", None),)))
        assert report.repairs_correct is None
        assert report.remaining_errors is None
        assert report.true_errors_so_far is None
        assert report.cells_flagged == 1

    def test_report_counters_consistent(self):
        state, reports = run_two_batches(StrategyKind.IHC_RE)
        for report in reports:
            assert report.repairs_changed <= report.repairs_attempted
            assert report.dirty_pool >= report.repairs_attempted
        assert reports[-1].cum_repairs_changed == sum(r.repairs_changed for r in reports)
        assert reports[-1].true_errors_so_far == 1


class TestEvaluate:
    def test_all_clean_gives_zeroes(self):
        store = RelationStore(SCHEMA)
        store.append_batch(RawBatch(1, (("a", "b"),)))
        metrics = evaluate(store, [("a", "b")])
        assert metrics == {
            "precision": 0.0,
            "recall": 0.0,
            "f1": 0.0,
            "true_errors": 0,
            "remaining_errors": 0,
            "repairs_changed": 0,
            "repairs_correct": 0,
        }

    def test_unrepaired_errors_hit_recall_only(self):
        store = RelationStore(SCHEMA)
        store.append_batch(RawBatch(1, (("a", "wrong"),)))
        metrics = evaluate(store, [("a", "right")])
        assert metrics["true_errors"] == 1
        assert metrics["remaining_errors"] == 1
        assert metrics["precision"] == 0.0
        assert metrics["recall"] == 0.0

    def test_mixed_outcome(self):
        store = RelationStore(SCHEMA)
        store.append_batch(
            RawBatch(1, (("a", "wrong"), ("b", "wrong"), ("c", "fine")))
        )
        truth = [("a", "right"), ("b", "right"), ("c", "fine")]
        store.mark_dirty(cell_rows([CellRef(0, 1), CellRef(1, 1)]))
        right = store.interner.intern(1, "right")
        off = store.interner.intern(1, "off")
        store.apply_repairs(cell_rows([(CellRef(0, 1), right), (CellRef(1, 1), off)]))
        metrics = evaluate(store, truth)
        assert metrics["repairs_changed"] == 2
        assert metrics["repairs_correct"] == 1
        assert metrics["precision"] == 0.5
        assert metrics["recall"] == 0.5
        assert metrics["f1"] == 0.5
        assert metrics["remaining_errors"] == 1

    def test_shape_validation(self):
        store = RelationStore(SCHEMA)
        store.append_batch(RawBatch(1, (("a", "b"),)))
        with pytest.raises(DataError):
            evaluate(store, [])
        with pytest.raises(DataError):
            evaluate(store, [("a",)])


class TestGroundTruthShape:
    @pytest.mark.parametrize("truth", [[("k", "v")] * 2, [("k",)] * 4])
    def test_mis_sized_truth_is_data_error(self, truth):
        strategy = Strategy(kind=StrategyKind.IHC, detectors=("null",))
        state = new_state(strategy, truth)
        with pytest.raises(DataError, match="ground truth"):
            run_stream(state, strategy, make_batches([("k", "v")] * 4, count=2))


class TestRepairedCellsBecomeTrainable:
    def test_repaired_cell_feeds_next_training(self):
        state, _ = run_two_batches(StrategyKind.IHC)
        # the repaired cell is Repaired, hence eligible again
        assert status_of(state.store, 0, 1) is CellStatus.REPAIRED
        assert 0 in state.store.trainable_tids(1)


# Every strategy kind over all three detectors, the drift gate on for the
# incremental kinds, then a snapshot round trip, in a fresh interpreter.
FOUR_STRATEGIES = """
import sys, tempfile
from pathlib import Path
from increpair.dc import parse_dc
from increpair.pipeline import RunState, Strategy, StrategyKind, run_stream
from increpair.relation import RelationStore, Schema, make_batches
from increpair.snapshot import load_run, save_run

schema = Schema(("city", "zip", "state"))
truth = [(f"city{i % 4}", f"zip{i % 4}", f"state{i % 2}") for i in range(60)]
dirty = [list(row) for row in truth]
for i in range(0, 60, 7):
    dirty[i][i % 3] = None
for i in range(3, 60, 11):
    dirty[i][1] = "zip9"
rule = parse_dc("EQ(t1.city,t2.city)&NEQ(t1.zip,t2.zip)", schema)
with tempfile.TemporaryDirectory() as work:
    for kind in StrategyKind:
        strategy = Strategy(
            kind, ("null", "dc", "perfect"), skip="ikl" if kind.incremental else "none"
        )
        state = RunState(RelationStore(schema), strategy, [rule], truth)
        run_stream(state, strategy, make_batches(dirty, count=4))
        save_run(state, Path(work) / "run.json")
        load_run(Path(work) / "run.json")
print("numpy.ma" in sys.modules)
"""


def test_no_engine_path_imports_numpy_ma():
    """A plain `np.unique`, or `np.isin` over a wide range, imports `numpy.ma`
    on first use: about 1.2 MB of resident memory and 10 ms per process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", FOUR_STRATEGIES], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
