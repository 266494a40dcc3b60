"""Snapshot persistence: round-trips, resume equivalence, and format guards."""

from __future__ import annotations

import json
import math
import re

import pytest

from increpair.errors import ConfigError, DataError
from increpair.models import Hyperparams
from increpair.pipeline import RunState, Strategy, StrategyKind, run_stream
from increpair.relation import (
    CellRef,
    CellStatus,
    RawBatch,
    RelationStore,
    Schema,
    make_batches,
)
from increpair.snapshot import load_run, load_store, save_run, save_store
from increpair.stats import StatsStore, scratch_accumulator

from conftest import failing_writes


def seeded_store():
    store = RelationStore(Schema(("a", "b")))
    store.append_batch(RawBatch(1, (("x", "y"), ("x", None), ("z", "y"))))
    store.mark_dirty([CellRef(1, 1)])
    fixed = store.interner.intern(1, "y")
    store.apply_repairs([(CellRef(1, 1), fixed)])
    return store


class TestStoreSnapshots:
    def test_round_trip_preserves_everything(self, tmp_path):
        store = seeded_store()
        path = tmp_path / "store.json"
        save_store(store, path)
        restored = load_store(path)
        assert restored.schema.attributes == store.schema.attributes
        assert restored.n_tuples == store.n_tuples
        for tid in range(store.n_tuples):
            for attr in range(store.n_attrs):
                assert restored.canonical(tid, attr) == store.canonical(tid, attr)
                assert restored.status(tid, attr) is store.status(tid, attr)
                assert restored.original_canonical(tid, attr) == store.original_canonical(
                    tid, attr
                )
        assert restored.status(1, 1) is CellStatus.REPAIRED

    def test_bytes_are_stable(self, tmp_path):
        store = seeded_store()
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        save_store(store, first)
        save_store(store, second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(DataError, match="not valid JSON"):
            load_store(path)
        path.write_text(json.dumps({"format": "other", "kind": "store"}))
        with pytest.raises(DataError, match="unknown format"):
            load_store(path)
        with pytest.raises(DataError, match="cannot open"):
            load_store(tmp_path / "missing.json")

    def test_rejects_wrong_kind_and_version(self, tmp_path):
        store_path = tmp_path / "store.json"
        save_store(seeded_store(), store_path)
        with pytest.raises(DataError, match="expected 'run'"):
            load_run(store_path)
        mangled = json.loads(store_path.read_text())
        mangled["version"] = 99
        store_path.write_text(json.dumps(mangled))
        with pytest.raises(DataError, match="version"):
            load_store(store_path)


STREAM_ROWS = [
    ("k", "v1"),
    ("k", None),
    ("k", "v1"),
    ("m", "w"),
    ("m", None),
    ("m", "w"),
    ("k", "v1"),
    ("m", "w"),
]


def fresh_run(strategy):
    return RunState(RelationStore(Schema(("ctx", "val"))), strategy)


class TestRunSnapshots:
    strategy = Strategy(
        kind=StrategyKind.IHC,
        detectors=("null",),
        skip="ikl",
        epsilon_kl=0.0,
        omega=0.0,
        hyperparams=Hyperparams(epochs=40, learning_rate=0.5),
    )

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        batches = make_batches(STREAM_ROWS, count=4)

        straight = fresh_run(self.strategy)
        straight_reports = run_stream(straight, self.strategy, batches)

        interrupted = fresh_run(self.strategy)
        head_reports = run_stream(interrupted, self.strategy, batches[:2])
        path = tmp_path / "run.json"
        save_run(interrupted, path, config={"note": "paused after two"})

        resumed, config = load_run(path)
        assert config == {"note": "paused after two"}
        assert resumed.batches_done == 2
        resumed.attach_inputs()
        tail_reports = run_stream(resumed, self.strategy, batches[2:])

        joined = [r.to_json_line() for r in head_reports + tail_reports]
        assert joined == [r.to_json_line() for r in straight_reports]
        for tid in range(straight.store.n_tuples):
            for attr in range(2):
                assert resumed.store.canonical(tid, attr) == straight.store.canonical(
                    tid, attr
                )
        save_run(straight, tmp_path / "straight.json")
        save_run(resumed, tmp_path / "resumed.json")
        assert (tmp_path / "straight.json").read_bytes() == (
            tmp_path / "resumed.json"
        ).read_bytes()

    def test_round_trip_preserves_learning_state(self, tmp_path):
        state = fresh_run(self.strategy)
        run_stream(state, self.strategy, make_batches(STREAM_ROWS, count=2))
        path = tmp_path / "run.json"
        save_run(state, path)
        restored, _ = load_run(path)
        assert restored.stats.n == state.stats.n
        assert restored.entropy.value(1, 0) == pytest.approx(state.entropy.value(1, 0))
        assert restored.skipper.last_trained == state.skipper.last_trained == {0: 2, 1: 2}
        for mine, theirs in zip(state.models, restored.models):
            assert list(mine.weights) == list(theirs.weights)
        assert restored.cum_probe_cells == state.cum_probe_cells


class TestRunSnapshotValidation:
    def saved(self, tmp_path):
        strategy = TestRunSnapshots.strategy
        state = fresh_run(strategy)
        run_stream(state, strategy, make_batches(STREAM_ROWS, count=2))
        path = tmp_path / "run.json"
        save_run(state, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "key", ["version", "stats", "entropy", "models", "skipper", "progress"]
    )
    def test_missing_section_is_data_error(self, tmp_path, key):
        path, payload = self.saved(tmp_path)
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=key):
            load_run(path)

    def test_missing_progress_counter_is_data_error(self, tmp_path):
        path, payload = self.saved(tmp_path)
        del payload["progress"]["cum_probe_cells"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="cum_probe_cells"):
            load_run(path)

    def test_models_must_cover_every_attribute(self, tmp_path):
        path, payload = self.saved(tmp_path)
        payload["models"] = payload["models"][:1]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="1 models for 2 attributes"):
            load_run(path)

    @pytest.mark.parametrize(
        "section, inner",
        [
            ("stats", "n"),
            ("entropy", "pair"),
            ("models", "weights"),
            ("skipper", "baseline"),
            ("store", "rows"),
            ("strategy", "kind"),
        ],
    )
    def test_section_missing_inner_key_is_data_error(self, tmp_path, section, inner):
        path, payload = self.saved(tmp_path)
        where = payload[section][1] if section == "models" else payload[section]
        del where[inner]
        path.write_text(json.dumps(payload))
        name = "models[1]" if section == "models" else section
        with pytest.raises(DataError, match=rf"malformed {re.escape(name)} section"):
            load_run(path)

    @pytest.mark.parametrize("section", ["stats", "entropy", "skipper", "store", "progress"])
    def test_section_of_wrong_type_is_data_error(self, tmp_path, section):
        path, payload = self.saved(tmp_path)
        payload[section] = [1, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_run(path)

    @pytest.mark.parametrize("loader", [load_run, load_store])
    def test_payload_that_is_not_an_object_is_data_error(self, tmp_path, loader):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"format": "increpair-snapshot"}]))
        with pytest.raises(DataError, match="not an object"):
            loader(path)

    def test_version_2_snapshot_is_rejected(self, tmp_path):
        # v2 entropies held one value per ordered pair, models a trained_at_batch
        path, payload = self.saved(tmp_path)
        payload["version"] = 2
        payload["entropy"]["h"] = [[0, 1, 0.0], [1, 0, 0.0]]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version 2"):
            load_run(path)

    def test_version_3_snapshot_is_rejected(self, tmp_path):
        # v3 skippers saved whole joint distributions
        path, payload = self.saved(tmp_path)
        payload["version"] = 3
        payload["skipper"] = {"last_trained": [[0, 2], [1, 2]], "saved": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version 3"):
            load_run(path)

    # more cases, each resumed through the command line, are in test_cli.py
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: p["models"][1]["weights"].__setitem__(0, math.nan),
            lambda p: p["entropy"].update(n=p["entropy"]["n"] + 1),
            lambda p: p["entropy"]["pair"].__setitem__(0, math.inf),
            lambda p: p["skipper"]["last_trained"].append([7, 1]),
            lambda p: p["stats"]["pairs"]["0,1"].append(p["stats"]["pairs"]["0,1"][0]),
        ],
        ids=["weights-nan", "entropy-n", "entropy-inf", "skipper-attr", "pair-twice"],
    )
    def test_inconsistent_content_is_data_error(self, tmp_path, mangle):
        path, payload = self.saved(tmp_path)
        mangle(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_run(path)

    def test_version_1_snapshot_is_rejected(self, tmp_path):
        # v1 strategies carried kl_floor and hyperparams.seed
        path, payload = self.saved(tmp_path)
        payload["version"] = 1
        payload["strategy"]["kl_floor"] = 1e-6
        payload["strategy"]["hyperparams"]["seed"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version 1"):
            load_run(path)

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_every_strategy_kind_restores(self, tmp_path, kind):
        strategy = Strategy(kind=kind, skip="ikl" if kind.incremental else "none")
        state = fresh_run(strategy)
        run_stream(state, strategy, make_batches(STREAM_ROWS, count=3))
        save_run(state, tmp_path / "run.json")
        restored, _ = load_run(tmp_path / "run.json")
        assert restored.stats.n == state.stats.n

    def test_hc_sep_statistics_count_the_last_batch_only(self, tmp_path):
        strategy = Strategy(kind=StrategyKind.HC_SEP)
        state = fresh_run(strategy)
        run_stream(state, strategy, make_batches(STREAM_ROWS, count=3))
        # self-consistent statistics, but over every tuple, as hc-acc counts them
        state.stats = StatsStore(2)
        state.stats.ingest([state.store.tuple_values(t) for t in range(state.store.n_tuples)])
        state.entropy = scratch_accumulator(state.stats)
        save_run(state, tmp_path / "run.json")
        with pytest.raises(DataError, match="strategy counts"):
            load_run(tmp_path / "run.json")

    def test_restored_run_needs_its_inputs(self, tmp_path):
        strategy = Strategy(kind=StrategyKind.IHC, detectors=("perfect",))
        truth = [("k", "v1")] * 3
        state = RunState(RelationStore(Schema(("ctx", "val"))), strategy, ground_truth=truth)
        run_stream(state, strategy, [RawBatch(1, (("k", "v1"), ("k", "v2")))])
        save_run(state, tmp_path / "run.json")
        restored, _ = load_run(tmp_path / "run.json")
        with pytest.raises(ConfigError, match="ground truth"):
            restored.attach_inputs()
        restored.attach_inputs(ground_truth=truth)
        assert (restored.true_errors, restored.remaining_errors) == (
            state.true_errors,
            state.remaining_errors,
        )


class TestAtomicWrites:
    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        strategy = TestRunSnapshots.strategy
        state = fresh_run(strategy)
        batches = make_batches(STREAM_ROWS, count=4)
        run_stream(state, strategy, batches[:2])
        path = tmp_path / "run.json"
        save_run(state, path)
        before = path.read_bytes()

        run_stream(state, strategy, batches[2:])
        failing_writes(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            save_run(state, path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        restored, _ = load_run(path)
        assert restored.batches_done == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
