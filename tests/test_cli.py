"""Command-line workflow: inject, clean, eval, environment overrides, resume."""

from __future__ import annotations

import csv
import json

import pytest

from increpair.cli import main
from increpair.stats import StatsStore, scratch_accumulator


def write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture()
def clean_csv(tmp_path):
    path = tmp_path / "clean.csv"
    rows = [
        (f"city{i % 4}", f"zip{i % 4}", f"state{i % 2}")
        for i in range(60)
    ]
    write_csv(path, ("city", "zip", "state"), rows)
    return path


def run(argv):
    return main([str(part) for part in argv])


class TestInjectCleanEval:
    def test_full_workflow(self, tmp_path, clean_csv, capsys):
        dirty = tmp_path / "dirty.csv"
        truth = tmp_path / "truth.csv"
        assert run(
            ["inject", "--input", clean_csv, "--rate", "0.05", "--seed", "3",
             "--out-dirty", dirty, "--out-truth", truth]
        ) == 0
        assert dirty.exists() and truth.exists()

        repaired = tmp_path / "repaired.csv"
        metrics = tmp_path / "metrics.jsonl"
        assert run(
            ["clean", "--input", dirty, "--ground-truth", truth,
             "--strategy", "ihc", "--detectors", "perfect", "--batches", "4",
             "--omega", "0", "--out", repaired, "--metrics", metrics]
        ) == 0
        lines = metrics.read_text().splitlines()
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert [p["batch"] for p in parsed] == [1, 2, 3, 4]
        assert parsed[-1]["tuples_seen"] == 60

        assert run(
            ["eval", "--repaired", repaired, "--ground-truth", truth,
             "--dirty", dirty, "--json-out", tmp_path / "score.json"]
        ) == 0
        score = json.loads((tmp_path / "score.json").read_text())
        assert score == json.loads(capsys.readouterr().out.strip())
        assert score["true_errors"] == 9  # int(0.05 * 180)
        assert 0.0 <= score["f1"] <= 1.0

    def test_clean_is_deterministic(self, tmp_path, clean_csv):
        dirty, truth = tmp_path / "d.csv", tmp_path / "t.csv"
        run(["inject", "--input", clean_csv, "--rate", "0.05",
             "--out-dirty", dirty, "--out-truth", truth])

        outs = []
        for tag in ("one", "two"):
            out = tmp_path / f"out-{tag}.csv"
            met = tmp_path / f"met-{tag}.jsonl"
            assert run(
                ["clean", "--input", dirty, "--ground-truth", truth,
                 "--strategy", "ihc-re", "--detectors", "perfect",
                 "--batches", "3", "--omega", "0", "--seed", "9",
                 "--out", out, "--metrics", met]
            ) == 0
            outs.append((out.read_bytes(), met.read_bytes()))
        assert outs[0] == outs[1]


class TestErrorsAndExitCodes:
    def test_missing_command_is_config_error(self):
        assert run([]) == 1

    def test_missing_strategy_flag(self, tmp_path, clean_csv):
        assert run(
            ["clean", "--input", clean_csv, "--batches", "2"]
        ) == 1

    def test_both_batch_flags_rejected(self, tmp_path, clean_csv):
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--batch-size", "5"]
        ) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(
            ["clean", "--input", tmp_path / "absent.csv",
             "--strategy", "ihc", "--batches", "2"]
        ) == 2

    def test_bad_constraint_file_is_parse_error(self, tmp_path, clean_csv):
        rules = tmp_path / "rules.txt"
        rules.write_text("gibberish constraint\n")
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--dcs", rules, "--detectors", "null,dc"]
        ) == 2

    def test_perfect_without_truth_is_config_error(self, clean_csv):
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--detectors", "perfect"]
        ) == 1

    @pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--lr", "-1")])
    def test_bad_training_setting_is_config_error(self, clean_csv, flag, value):
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", flag, value]
        ) == 1

    def test_bad_training_setting_from_env_is_config_error(self, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_EPOCHS", "0")
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc", "--batches", "2"]
        ) == 1

    @pytest.mark.parametrize("flag", ["--batches", "--batch-size"])
    def test_zero_batches_is_config_error(self, clean_csv, flag):
        assert run(["clean", "--input", clean_csv, "--strategy", "ihc", flag, "0"]) == 1

    def test_zero_batches_from_env_is_config_error(self, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_BATCHES", "0")
        assert run(["clean", "--input", clean_csv, "--strategy", "ihc"]) == 1

    def test_more_batches_than_rows_is_data_error(self, clean_csv):
        # whether a count fits depends on the data, so this one stays exit 2
        assert run(["clean", "--input", clean_csv, "--strategy", "ihc", "--batches", "61"]) == 2

    @pytest.mark.parametrize("role", ["clean-input", "clean-truth", "eval", "inject"])
    def test_non_utf8_csv_is_data_error(self, tmp_path, clean_csv, role):
        latin = tmp_path / "latin.csv"
        latin.write_bytes(clean_csv.read_bytes().replace(b"city3", b"caf\xe9", 1))
        argv = {
            "clean-input": ["clean", "--input", latin, "--strategy", "ihc", "--batches", "2"],
            "clean-truth": ["clean", "--input", clean_csv, "--ground-truth", latin,
                            "--strategy", "ihc", "--batches", "2"],
            "eval": ["eval", "--repaired", clean_csv, "--ground-truth", clean_csv,
                     "--dirty", latin],
            "inject": ["inject", "--input", latin, "--out-dirty", tmp_path / "d.csv",
                       "--out-truth", tmp_path / "t.csv"],
        }[role]
        assert run(argv) == 2

    def test_non_utf8_constraint_file_is_parse_error(self, tmp_path, clean_csv):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b"EQ(t1.city,t2.city)&NEQ(t1.zip,t2.zip) # caf\xe9\n")
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--dcs", rules, "--detectors", "null,dc"]
        ) == 2


class TestEnvironmentOverrides:
    def test_env_supplies_strategy(self, tmp_path, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_STRATEGY", "hc-sep")
        out = tmp_path / "out.csv"
        assert run(
            ["clean", "--input", clean_csv, "--batches", "2", "--out", out]
        ) == 0
        assert out.exists()

    def test_flag_beats_env(self, tmp_path, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_BATCHES", "7")
        metrics = tmp_path / "m.jsonl"
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--metrics", metrics]
        ) == 0
        assert len(metrics.read_text().splitlines()) == 2

    def test_env_alone_supplies_batches(self, tmp_path, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_BATCHES", "5")
        metrics = tmp_path / "m.jsonl"
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--metrics", metrics]
        ) == 0
        assert len(metrics.read_text().splitlines()) == 5

    def test_bad_env_value_is_config_error(self, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_BATCHES", "many")
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc"]
        ) == 1


class TestResume:
    def prepare(self, tmp_path, clean_csv):
        dirty, truth = tmp_path / "d.csv", tmp_path / "t.csv"
        run(["inject", "--input", clean_csv, "--rate", "0.05",
             "--out-dirty", dirty, "--out-truth", truth])
        return dirty, truth

    def test_resume_matches_one_shot(self, tmp_path, clean_csv):
        dirty, truth = self.prepare(tmp_path, clean_csv)

        # a prefix file holding the first two of four fixed-size batches
        dirty_lines = dirty.read_text().splitlines(keepends=True)
        truth_lines = truth.read_text().splitlines(keepends=True)
        dirty_head = tmp_path / "dirty-head.csv"
        truth_head = tmp_path / "truth-head.csv"
        dirty_head.write_text("".join(dirty_lines[: 1 + 30]))
        truth_head.write_text("".join(truth_lines[: 1 + 30]))

        shared = ["--detectors", "perfect", "--omega", "0", "--batch-size", "15"]
        one_shot = tmp_path / "oneshot.csv"
        assert run(
            ["clean", "--input", dirty, "--ground-truth", truth,
             "--strategy", "ihc", "--out", one_shot] + shared
        ) == 0

        snap = tmp_path / "snap.json"
        assert run(
            ["clean", "--input", dirty_head, "--ground-truth", truth_head,
             "--strategy", "ihc", "--snapshot", snap] + shared
        ) == 0
        resumed_out = tmp_path / "resumed.csv"
        assert run(
            ["clean", "--input", dirty, "--ground-truth", truth,
             "--resume", snap, "--out", resumed_out] + shared
        ) == 0
        assert resumed_out.read_bytes() == one_shot.read_bytes()

    def test_resume_rejects_other_strategy(self, tmp_path, clean_csv):
        dirty, truth = self.prepare(tmp_path, clean_csv)
        base = ["clean", "--input", dirty, "--ground-truth", truth,
                "--detectors", "perfect", "--batches", "4"]
        snap = tmp_path / "snap.json"
        assert run(base + ["--strategy", "ihc", "--snapshot", snap]) == 0
        assert run(base + ["--resume", snap, "--strategy", "hc-acc"]) == 1

    def test_resume_rejects_different_batching(self, tmp_path, clean_csv):
        dirty, truth = self.prepare(tmp_path, clean_csv)
        snap = tmp_path / "snap.json"
        assert run(
            ["clean", "--input", dirty, "--strategy", "ihc",
             "--batches", "4", "--snapshot", snap]
        ) == 0
        assert run(
            ["clean", "--input", dirty, "--resume", snap, "--batches", "5"]
        ) == 1

    def test_resume_rejects_conflicting_tuning_flag(self, tmp_path, clean_csv):
        base = ["clean", "--input", clean_csv, "--batch-size", "10"]
        snap = tmp_path / "snap.json"
        assert run(base + ["--strategy", "ihc", "--snapshot", snap]) == 0
        assert run(base + ["--resume", snap, "--omega", "0.2"]) == 1
        assert run(base + ["--resume", snap, "--omega", "0.05", "--skip", "none"]) == 0

    def test_resume_rejects_conflicting_environment(self, tmp_path, clean_csv, monkeypatch):
        base = ["clean", "--input", clean_csv, "--batch-size", "10"]
        snap = tmp_path / "snap.json"
        assert run(base + ["--strategy", "ihc", "--snapshot", snap]) == 0
        monkeypatch.setenv("INCREPAIR_EPOCHS", "5")
        assert run(base + ["--resume", snap]) == 1
        monkeypatch.setenv("INCREPAIR_EPOCHS", "30")
        assert run(base + ["--resume", snap]) == 0

    def test_resume_rejects_different_stream(self, tmp_path, clean_csv):
        dirty, truth = self.prepare(tmp_path, clean_csv)
        snap = tmp_path / "snap.json"
        assert run(
            ["clean", "--input", dirty, "--strategy", "ihc",
             "--batches", "4", "--snapshot", snap]
        ) == 0
        assert run(
            ["clean", "--input", truth, "--resume", snap, "--batches", "4"]
        ) == 2


def drop_progress(payload):
    del payload["progress"]


def truncate_models(payload):
    payload["models"] = payload["models"][:1]


def as_version_1(payload):
    payload["version"] = 1
    payload["strategy"]["kl_floor"] = 1e-6
    payload["strategy"]["hyperparams"]["seed"] = 0


def drop_stats_n(payload):
    del payload["stats"]["n"]


def as_list(payload):
    return [payload]


def zero_train_limit(payload):
    payload["strategy"]["train_limit"] = 0


def zero_epochs(payload):
    payload["strategy"]["hyperparams"]["epochs"] = 0


@pytest.mark.parametrize(
    "mangle",
    [
        drop_progress,
        truncate_models,
        as_version_1,
        drop_stats_n,
        as_list,
        zero_train_limit,
        zero_epochs,
    ],
)
def test_resume_from_malformed_snapshot_is_data_error(tmp_path, clean_csv, mangle):
    snap = tmp_path / "snap.json"
    base = ["clean", "--input", clean_csv, "--batches", "4"]
    assert run(base + ["--strategy", "ihc", "--snapshot", snap]) == 0
    payload = json.loads(snap.read_text())
    mangled = mangle(payload)
    snap.write_text(json.dumps(payload if mangled is None else mangled))
    assert run(base + ["--resume", snap]) == 2


def test_resume_from_non_utf8_snapshot_is_data_error(tmp_path, clean_csv):
    snap = tmp_path / "snap.json"
    base = ["clean", "--input", clean_csv, "--batches", "4"]
    assert run(base + ["--strategy", "ihc", "--snapshot", snap]) == 0
    snap.write_bytes(snap.read_bytes().replace(b'"format"', b'"form\xffat"', 1))
    assert run(base + ["--resume", snap]) == 2


@pytest.mark.parametrize(
    "flags", [["--epsilon", "nan"], ["--lr", "nan"], ["--lr", "inf"]]
)
def test_non_finite_setting_is_config_error(clean_csv, flags):
    assert run(
        ["clean", "--input", clean_csv, "--strategy", "ihc", "--skip", "ikl",
         "--batches", "2"] + flags
    ) == 1


def test_non_finite_setting_from_env_is_config_error(clean_csv, monkeypatch):
    monkeypatch.setenv("INCREPAIR_EPSILON", "nan")
    assert run(
        ["clean", "--input", clean_csv, "--strategy", "ihc", "--skip", "ikl",
         "--batches", "2"]
    ) == 1


def _double_counts(payload):
    """Statistics of every tuple counted twice, with entropies to match: self-
    consistent, but not what the strategy counts from the store."""
    stats = payload["stats"]
    stats["n"] *= 2
    for entries in stats["single"]:
        for entry in entries:
            entry[1] *= 2
    for triples in stats["pairs"].values():
        for triple in triples:
            triple[2] *= 2
    payload["entropy"] = scratch_accumulator(StatsStore.from_dict(stats)).to_dict()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: p["models"][0].update(attr=9),
        lambda p: p["models"][0].update(weights=[0.0]),
        lambda p: p["stats"]["single"][0].append([999, 5]),
        lambda p: p["skipper"].update(last_trained=[[0, 99]]),
        lambda p: p["strategy"].update(epsilon_kl=float("nan")),
        lambda p: p["stats"]["pairs"]["0,1"].append([1, 99, 7]),
        lambda p: p["skipper"]["trained_n"][0].__setitem__(1, p["stats"]["n"] + 1),
        lambda p: p["skipper"]["baseline"][0][1][0][1].append([1, 99, 0]),
        # value pair (1, 1) of attributes 0 and 1 is counted once
        lambda p: p["skipper"]["baseline"][0][1][0][1].append([1, 1, 2]),
        _double_counts,
        lambda p: p["entropy"]["pair"].__setitem__(0, p["entropy"]["pair"][0] + 1.0),
    ],
    ids=[
        "model-attr",
        "weights-length",
        "extra-marginal",
        "skipper-batch",
        "epsilon-nan",
        "extra-pair",
        "gate-n",
        "gate-value-id",
        "gate-count",
        "stats-n",
        "entropy-sums",
    ],
)
def test_resume_from_inconsistent_snapshot_is_data_error(tmp_path, mangle):
    rows = [(f"k{i % 2}", f"v{i % 3}", f"w{i % 2}") for i in range(6)]
    head, full = tmp_path / "head.csv", tmp_path / "full.csv"
    write_csv(head, ("a", "b", "c"), rows[:4])
    write_csv(full, ("a", "b", "c"), rows)
    snap = tmp_path / "snap.json"
    shared = ["--batch-size", "2", "--omega", "0"]
    assert run(
        ["clean", "--input", head, "--strategy", "ihc", "--skip", "ikl",
         "--snapshot", snap] + shared
    ) == 0
    payload = json.loads(snap.read_text())
    mangle(payload)
    snap.write_text(json.dumps(payload))
    assert run(["clean", "--input", full, "--resume", snap] + shared) == 2
