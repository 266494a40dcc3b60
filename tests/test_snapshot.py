"""Snapshot persistence: round-trips, resume equivalence, and format guards."""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest

from increpair.errors import ConfigError, DataError
from increpair.models import Hyperparams
from increpair.pipeline import RunState, Strategy, StrategyKind, run_stream
from increpair.relation import RawBatch, RelationStore, Schema, make_batches
from increpair.snapshot import load_run, save_run

from conftest import canonical_of, failing_writes


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


def fresh_run(strategy, attributes=("ctx", "val")):
    return RunState(RelationStore(Schema(attributes)), strategy)


# every strategy kind under each gate it allows
GRID = [
    (StrategyKind.HC_SEP, "none"),
    (StrategyKind.HC_ACC, "none"),
    (StrategyKind.IHC, "none"),
    (StrategyKind.IHC, "ikl"),
    (StrategyKind.IHC, "wkl"),
    (StrategyKind.IHC_RE, "none"),
    (StrategyKind.IHC_RE, "ikl"),
    (StrategyKind.IHC_RE, "wkl"),
]


def uneven_batches():
    """60 rows over three attributes in batches of 7, 2, 15, 4, 12, 9 and 11,
    a fourth context value and a third tag opening along the way.  About one
    row in twelve holds a null, so the null detector flags cells and repairs
    change them."""
    rng = random.Random(5)
    rows = []
    for i in range(60):
        ctx = rng.randint(0, 2 if i < 30 else 3)
        row = [f"k{ctx}", f"v{ctx}{int(rng.random() < 0.2)}", f"w{rng.randint(0, 1 + i // 30)}"]
        if rng.random() < 0.08:
            row[rng.randint(0, 2)] = None
        rows.append(tuple(row))
    batches, start = [], 0
    for k, size in enumerate((7, 2, 15, 4, 12, 9, 11), start=1):
        batches.append(RawBatch(k, tuple(rows[start : start + size])))
        start += size
    return batches


GRID_ATTRS = ("ctx", "val", "tag")


def grid_strategy(kind, skip):
    return Strategy(
        kind=kind,
        skip=skip,
        epsilon_kl=0.1,  # both gates retrain some attributes and keep others
        omega=0.0,
        train_limit=8,
        hyperparams=Hyperparams(epochs=20, learning_rate=0.5),
        seed=3,
    )


def assert_same_state(carried, recounted):
    """Statistics, entropy sums and drift-gate reference equal bit for bit."""
    stats, other = carried.stats, recounted.stats
    n_attrs = stats.n_attrs
    assert (other.n_attrs, other.n, other.single) == (n_attrs, stats.n, stats.single)
    for a in range(n_attrs):
        for b in range(n_attrs):
            if a != b:
                for mine, theirs in zip(stats.table(a, b), other.table(a, b)):
                    assert np.array_equal(mine, theirs)
    entropy, sums = carried.entropy, recounted.entropy
    assert (sums.n, sums.marginal, sums.pair) == (entropy.n, entropy.marginal, entropy.pair)
    gate, rebuilt = carried.skipper, recounted.skipper
    assert rebuilt.last_trained == gate.last_trained
    # a table per reference that a trained attribute's key names, and no other
    named = {gate.key(a, b) for a in gate.last_trained for b in range(n_attrs) if b != a}
    assert rebuilt.kept.keys() == gate.kept.keys() == named
    for key, (keys, z_trained) in gate.kept.items():
        # n': every kept table totals the tuples seen at its batch
        assert int(z_trained.sum()) == carried.store.batch_tids(key[2]).stop
        again = rebuilt.kept[key]
        assert np.array_equal(again[0], keys) and np.array_equal(again[1], z_trained)


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
        """Paused after any batch and resumed, every kind under every gate it
        allows writes the uninterrupted run's metric lines, cells and final
        snapshot bytes."""
        batches = uneven_batches()
        for kind, skip in GRID:
            strategy = grid_strategy(kind, skip)
            straight = fresh_run(strategy, GRID_ATTRS)
            straight_lines = [r.to_json_line() for r in run_stream(straight, strategy, batches)]
            # new names throughout: replacing a file is slow on some file systems
            straight_path = tmp_path / f"straight-{kind.value}-{skip}.json"
            save_run(straight, straight_path, config={"note": "whole stream"})
            for pause in range(1, len(batches)):
                interrupted = fresh_run(strategy, GRID_ATTRS)
                head = run_stream(interrupted, strategy, batches[:pause])
                path = tmp_path / f"run-{kind.value}-{skip}-{pause}.json"
                save_run(interrupted, path, config={"note": "whole stream"})

                resumed, config = load_run(path)
                assert config == {"note": "whole stream"}
                assert resumed.batches_done == pause
                resumed.attach_inputs()
                tail = run_stream(resumed, strategy, batches[pause:])

                case = (kind.value, skip, pause)
                assert [r.to_json_line() for r in head + tail] == straight_lines, case
                for tid in range(straight.store.n_tuples):
                    for attr in range(3):
                        assert canonical_of(resumed.store, tid, attr) == canonical_of(
                            straight.store, tid, attr
                        ), case
                resumed_path = path.with_suffix(".resumed.json")
                save_run(resumed, resumed_path, config={"note": "whole stream"})
                assert resumed_path.read_bytes() == straight_path.read_bytes(), case

    @pytest.mark.parametrize(
        "kind, skip", GRID, ids=[f"{kind.value}-{skip}" for kind, skip in GRID]
    )
    def test_recount_equals_carried_state_at_every_batch(self, tmp_path, kind, skip):
        """A restored incremental run recounts the statistics, entropy sums and
        drift-gate reference it carried, bit for bit; the other kinds, which
        rebuild their statistics every batch, restore none."""
        strategy = grid_strategy(kind, skip)
        state = fresh_run(strategy, GRID_ATTRS)
        repaired = outlived = 0
        for raw in uneven_batches():
            repaired += run_stream(state, strategy, [raw])[0].repairs_changed
            outlived += any(k < raw.k for k in state.skipper.last_trained.values())
            save_run(state, tmp_path / f"run{raw.k}.json")
            restored, _ = load_run(tmp_path / f"run{raw.k}.json")
            if kind.incremental:
                assert_same_state(state, restored)
            else:
                assert_same_state(fresh_run(strategy, GRID_ATTRS), restored)
        assert repaired  # the recount must read the rows as first seen
        # some attribute kept its reference across a batch, so the recount
        # rebuilt a table older than the current one
        assert outlived or skip == "none"

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
        "key", ["version", "models", "skipper", "progress"]
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
            ("models", "weights"),
            ("skipper", "last_trained"),
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

    @pytest.mark.parametrize(
        "section, key, message",
        [
            (None, "entropy", "snapshot"),
            ("store", "extra", "malformed store section"),
            ("models", "bias", r"malformed models\[1\] section"),
            ("skipper", "trained_n", "malformed skipper section"),
            ("progress", "extra", "progress"),
        ],
        ids=["top-level", "store", "models[1]", "skipper", "progress"],
    )
    def test_section_unknown_key_is_data_error(self, tmp_path, section, key, message):
        # a key some other layout wrote is not dropped
        path, payload = self.saved(tmp_path)
        where = payload[section] if section else payload
        (where[1] if section == "models" else where)[key] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=rf"{message}.*'{key}'"):
            load_run(path)

    @pytest.mark.parametrize(
        "change, key",
        [
            (lambda strategy: strategy.pop("omega"), "omega"),
            (lambda strategy: strategy["hyperparams"].pop("epochs"), "epochs"),
            (lambda strategy: strategy.update(kl_floor=1e-6), "kl_floor"),
            (lambda strategy: strategy["hyperparams"].update(seed=0), "seed"),
        ],
        ids=["strategy-lacks", "hyperparams-lacks", "strategy-unknown", "hyperparams-unknown"],
    )
    def test_strategy_keys_must_be_its_fields(self, tmp_path, change, key):
        # a missing setting must not resume with its default
        path, payload = self.saved(tmp_path)
        change(payload["strategy"])
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=rf"malformed strategy section.*'{key}'"):
            load_run(path)

    @pytest.mark.parametrize("section", ["skipper", "store", "progress"])
    def test_section_of_wrong_type_is_data_error(self, tmp_path, section):
        path, payload = self.saved(tmp_path)
        payload[section] = [1, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_run(path)

    def test_payload_that_is_not_an_object_is_data_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"format": "increpair-snapshot"}]))
        with pytest.raises(DataError, match="not an object"):
            load_run(path)

    def test_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(DataError, match="not valid JSON"):
            load_run(path)
        path.write_text(json.dumps({"format": "other", "kind": "run"}))
        with pytest.raises(DataError, match="unknown format"):
            load_run(path)
        with pytest.raises(DataError, match="cannot open"):
            load_run(tmp_path / "missing.json")

    def test_rejects_wrong_kind_and_version(self, tmp_path):
        path, payload = self.saved(tmp_path)
        path.write_text(json.dumps({**payload, "kind": "store", "version": 1}))
        with pytest.raises(DataError, match="expected 'run'"):
            load_run(path)
        path.write_text(json.dumps({**payload, "version": 99}))
        with pytest.raises(DataError, match="unsupported run snapshot version 99"):
            load_run(path)

    def test_version_2_snapshot_is_rejected(self, tmp_path):
        # v2 entropies held one value per ordered pair, models a trained_at_batch
        path, payload = self.saved(tmp_path)
        payload["version"] = 2
        payload["entropy"] = {"n_attrs": 2, "n": 4, "h": [[0, 1, 0.0], [1, 0, 0.0]]}
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

    def test_version_4_snapshot_is_rejected(self, tmp_path):
        # v4 carried the statistics, entropy sums and drift-gate reference
        path, payload = self.saved(tmp_path)
        payload["version"] = 4
        payload["stats"] = {"n_attrs": 2, "n": 4, "single": [[], []], "pairs": {}}
        payload["entropy"] = {"n_attrs": 2, "n": 4, "marginal": [0.0] * 2, "pair": [0.0]}
        payload["skipper"].update(trained_n=[], support=[], baseline=[])
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version 4"):
            load_run(path)

    # more cases, each resumed through the command line, are in test_cli.py
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: p["models"][1]["weights"].__setitem__(0, math.nan),
            lambda p: p["skipper"]["last_trained"].append([7, 1]),
            lambda p: p["skipper"]["last_trained"].append([0, 1]),
            lambda p: p["strategy"].update(skip="none"),
            lambda p: p["progress"].update(batches_done=p["progress"]["batches_done"] + 1),
            lambda p: (
                p["store"]["batch_starts"].__setitem__(1, 0),
                p["skipper"].update(last_trained=[[0, 1]]),
            ),
            # a string is not a list of strings, though iterating it gives strings
            lambda p: p["store"].update(null_tokens="NULL"),
            lambda p: p["store"]["values"].__setitem__(0, "".join(p["store"]["values"][0])),
            # no run counts below zero, nor a correct repair that changed no cell
            lambda p: p["progress"].update(cum_probe_cells=-5),
            lambda p: p["progress"].update(cum_training_instances=-1),
            lambda p: p["progress"].update(cum_repairs_correct=1000000, cum_repairs_changed=0),
        ],
        ids=[
            "weights-nan",
            "skipper-attr",
            "skipper-attr-twice",
            "gate-off-trained",
            "batches",
            "trained-before-rows",
            "null-tokens-string",
            "values-string",
            "probe-cells-negative",
            "training-instances-negative",
            "more-correct-than-changed",
        ],
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
        # hc-sep and hc-acc recount from nothing at their next batch
        assert restored.stats.n == (state.stats.n if kind.incremental else 0)

    def test_restored_run_needs_its_inputs(self, tmp_path):
        strategy = Strategy(kind=StrategyKind.IHC, detectors=("perfect",))
        truth = [("k", "v1")] * 3
        state = RunState(RelationStore(Schema(("ctx", "val"))), strategy, ground_truth=truth)
        run_stream(state, strategy, [RawBatch(1, (("k", "v1"), ("k", "v2")))])
        save_run(state, tmp_path / "run.json")
        restored, _ = load_run(tmp_path / "run.json")
        with pytest.raises(ConfigError, match="ground truth"):
            restored.attach_inputs()
        assert restored.truth is None
        restored.attach_inputs(ground_truth=truth)
        assert restored.truth.tolist() == state.truth.tolist()


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
