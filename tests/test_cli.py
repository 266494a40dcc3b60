"""Command-line workflow: inject, clean, eval, environment overrides, resume."""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import re
from contextlib import redirect_stderr

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from increpair.cli import main
from increpair.relation import load_csv, write_csv

from conftest import failing_writes


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

    def test_empty_detector_list_is_config_error(self, clean_csv):
        # a stream with no detector can flag nothing
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--detectors", ","]
        ) == 1

    def test_empty_detector_list_from_env_is_config_error(self, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_DETECTORS", ",")
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc", "--batches", "2"]
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

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("clean", "--out"),
            ("clean", "--metrics"),
            ("clean", "--snapshot"),
            ("inject", "--out-dirty"),
            ("inject", "--out-truth"),
            ("eval", "--json-out"),
        ],
    )
    def test_unwritable_output_is_config_error(
        self, tmp_path, clean_csv, capsys, command, flag, where
    ):
        bad = tmp_path / "absent" / "out" if where == "missing-directory" else tmp_path
        argv = {
            "clean": ["clean", "--input", clean_csv, "--strategy", "ihc", "--batches", "2"],
            "inject": ["inject", "--input", clean_csv, "--rate", "0.05",
                       "--out-dirty", tmp_path / "d.csv", "--out-truth", tmp_path / "t.csv"],
            "eval": ["eval", "--repaired", clean_csv, "--ground-truth", clean_csv,
                     "--dirty", clean_csv],
        }[command]
        assert run(argv + [flag, bad]) == 1
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--metrics", "--snapshot"])
    def test_output_failing_after_the_stream_is_config_error(
        self, tmp_path, clean_csv, monkeypatch, flag
    ):
        """A path that passes the up-front check can still fail to be written,
        as on a full disk; that too exits 1, and leaves no partial file."""
        failing_writes(monkeypatch)
        target = tmp_path / "out"
        argv = ["clean", "--input", clean_csv, "--strategy", "ihc", "--batches", "2"]
        assert run(argv + [flag, target]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv"]

    @pytest.mark.parametrize("flag", ["--batches", "--batch-size"])
    def test_zero_batches_is_config_error(self, clean_csv, flag):
        assert run(["clean", "--input", clean_csv, "--strategy", "ihc", flag, "0"]) == 1

    def test_zero_batches_from_env_is_config_error(self, clean_csv, monkeypatch):
        monkeypatch.setenv("INCREPAIR_BATCHES", "0")
        assert run(["clean", "--input", clean_csv, "--strategy", "ihc"]) == 1

    def test_more_batches_than_rows_is_data_error(self, clean_csv):
        # whether a count fits depends on the data, so this one stays exit 2
        assert run(["clean", "--input", clean_csv, "--strategy", "ihc", "--batches", "61"]) == 2

    @pytest.mark.parametrize("command", ["inject", "clean"])
    def test_header_only_csv_is_data_error(self, tmp_path, command):
        empty = tmp_path / "empty.csv"
        write_csv(empty, ("city", "zip", "state"), [])
        argv = {
            "inject": ["inject", "--input", empty, "--out-dirty", tmp_path / "d.csv",
                       "--out-truth", tmp_path / "t.csv"],
            "clean": ["clean", "--input", empty, "--strategy", "ihc", "--batches", "1"],
        }[command]
        assert run(argv) == 2

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

    @pytest.mark.parametrize("command", ["clean", "eval"])
    def test_csv_field_over_the_size_limit_is_data_error(self, tmp_path, command):
        big = tmp_path / "big.csv"
        big.write_text("a,b\n" + "x" * (csv.field_size_limit() + 1) + ",y\nz,w\n")
        argv = {
            "clean": ["clean", "--input", big, "--strategy", "ihc", "--batches", "1"],
            "eval": ["eval", "--repaired", big, "--ground-truth", big, "--dirty", big],
        }[command]
        assert run(argv) == 2

    def test_non_utf8_constraint_file_is_parse_error(self, tmp_path, clean_csv):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b"EQ(t1.city,t2.city)&NEQ(t1.zip,t2.zip) # caf\xe9\n")
        assert run(
            ["clean", "--input", clean_csv, "--strategy", "ihc",
             "--batches", "2", "--dcs", rules, "--detectors", "null,dc"]
        ) == 2


class TestByteOrderMark:
    """Spreadsheets save "CSV UTF-8" with a leading byte-order mark, which is
    not part of the first field or the first constraint."""

    RULES = "EQ(t1.city,t2.city) & NEQ(t1.zip,t2.zip)\n"

    def clean(self, source, rules, out):
        return run(
            ["clean", "--input", source, "--strategy", "ihc", "--batches", "2",
             "--dcs", rules, "--detectors", "null,dc", "--out", out]
        )

    def test_marked_input_csv_reads_as_unmarked(self, tmp_path, clean_csv):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + clean_csv.read_bytes())
        rules = tmp_path / "rules.dc"
        rules.write_text(self.RULES, encoding="utf-8")
        assert self.clean(clean_csv, rules, tmp_path / "plain-out.csv") == 0
        assert self.clean(marked, rules, tmp_path / "marked-out.csv") == 0
        assert (tmp_path / "marked-out.csv").read_bytes() == (
            tmp_path / "plain-out.csv"
        ).read_bytes()
        assert run(
            ["eval", "--repaired", clean_csv, "--ground-truth", marked, "--dirty", clean_csv]
        ) == 0

    def test_marked_constraint_file_reads_as_unmarked(self, tmp_path, clean_csv):
        rules, marked = tmp_path / "rules.dc", tmp_path / "marked.dc"
        rules.write_text(self.RULES, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + self.RULES.encode())
        assert self.clean(clean_csv, rules, tmp_path / "plain-out.csv") == 0
        assert self.clean(clean_csv, marked, tmp_path / "marked-out.csv") == 0
        assert (tmp_path / "marked-out.csv").read_bytes() == (
            tmp_path / "plain-out.csv"
        ).read_bytes()


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


# Every setting an INCREPAIR_ variable can supply, per command, with a value
# that moves the command's output away from the base run's.
SETTING_VALUES = {
    "inject": {"rate": "0.2", "kinds": "typo", "seed": "3", "null-tokens": "city0"},
    "clean": {
        "strategy": "hc-acc",
        "detectors": "null,perfect",
        "batches": "3",
        "batch-size": "20",
        "omega": "0.2",
        "skip": "ikl",
        "epsilon": "0.5",
        "epochs": "5",
        "lr": "0.05",
        "domain-cap": "3",
        "train-limit": "7",
        "seed": "4",
        "null-tokens": "city0",
    },
    "eval": {"null-tokens": ",state0"},
}
# One value per setting that its flag and its variable must both reject (exit 1).
BAD_VALUES = [
    ("inject", "rate", "high"),
    ("inject", "kinds", "smudge"),
    ("inject", "seed", "1.5"),
    ("clean", "strategy", "bogus"),
    ("clean", "detectors", "psychic"),
    ("clean", "batches", "many"),
    ("clean", "batch-size", "0x10"),
    ("clean", "omega", "tenth"),
    ("clean", "skip", "sometimes"),
    ("clean", "epsilon", "small"),
    ("clean", "epochs", "1.5"),
    ("clean", "lr", "fast"),
    ("clean", "domain-cap", "none"),
    ("clean", "train-limit", "all"),
    ("clean", "seed", "x"),
]


def variable(name):
    return "INCREPAIR_" + name.upper().replace("-", "_")


class TestEverySetting:
    """Each setting's variable does what its flag does, and nothing else does."""

    serial = itertools.count()

    @pytest.fixture()
    def inputs(self, tmp_path, clean_csv):
        dirty, truth = tmp_path / "dirty.csv", tmp_path / "truth.csv"
        assert run(["inject", "--input", clean_csv, "--rate", "0.1", "--kinds", "null",
                    "--out-dirty", dirty, "--out-truth", truth]) == 0
        return clean_csv, dirty, truth

    def run_setting(self, tmp_path, inputs, monkeypatch, command, name=None, value=None,
                    source="flag"):
        """A base run of the command, with setting `name` given `value` by its
        flag or by its variable; returns the exit code and what the run wrote."""
        clean_csv, dirty, truth = inputs
        out = tmp_path / f"out{next(self.serial)}"
        if command == "inject":
            argv = ["--input", clean_csv, "--out-dirty", out, "--out-truth", tmp_path / "t.csv"]
        elif command == "clean":
            argv = ["--input", clean_csv, "--ground-truth", clean_csv, "--snapshot", out]
        else:
            argv = ["--repaired", truth, "--ground-truth", truth, "--dirty", dirty,
                    "--json-out", out]
        settings = {"strategy": "ihc", "batches": "2"} if command == "clean" else {}
        settings.pop("batches" if name == "batch-size" else name, None)
        with monkeypatch.context() as env, redirect_stderr(io.StringIO()):
            if source == "variable":
                env.setenv(variable(name), value)
            elif name is not None:
                settings[name] = value
            flags = [part for key, text in settings.items() for part in (f"--{key}", text)]
            code = run([command] + argv + flags)
        if code:
            return code, None
        if command != "clean":
            return code, out.read_bytes()
        payload = json.loads(out.read_text())
        return code, {key: payload[key] for key in ("strategy", "store")}

    @pytest.mark.parametrize(
        "command, name",
        [(command, name) for command, values in SETTING_VALUES.items() for name in values],
    )
    def test_variable_acts_as_its_flag(self, tmp_path, inputs, monkeypatch, command, name):
        value = SETTING_VALUES[command][name]
        base = self.run_setting(tmp_path, inputs, monkeypatch, command)
        by_flag = self.run_setting(tmp_path, inputs, monkeypatch, command, name, value)
        by_variable = self.run_setting(
            tmp_path, inputs, monkeypatch, command, name, value, "variable"
        )
        assert base[0] == by_flag[0] == 0
        assert by_flag == by_variable != base

    @pytest.mark.parametrize("source", ["flag", "variable"])
    @pytest.mark.parametrize("command, name, value", BAD_VALUES)
    def test_bad_value_is_config_error(
        self, tmp_path, inputs, monkeypatch, source, command, name, value
    ):
        code, _ = self.run_setting(tmp_path, inputs, monkeypatch, command, name, value, source)
        assert code == 1

    @pytest.mark.parametrize("command", SETTING_VALUES)
    def test_help_names_each_variable(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        named = set(re.findall(r"INCREPAIR_\w+", capsys.readouterr().out))
        assert named == {variable(name) for name in SETTING_VALUES[command]}


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
        assert run(
            ["clean", "--input", dirty, "--resume", snap, "--batch-size", "15"]
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

    @pytest.mark.parametrize(
        "field, value",
        [("attributes", ["x", "y", "z"]), ("null_tokens", ["zzz"])],
        ids=["attributes", "null-tokens"],
    )
    def test_resume_rejects_a_store_of_another_table(self, tmp_path, clean_csv, field, value):
        """A snapshot whose store names other attributes or null tokens than
        this run reads the input with does not describe the input."""
        base = ["clean", "--input", clean_csv, "--batches", "4"]
        snap, out = tmp_path / "snap.json", tmp_path / "out.csv"
        assert run(base + ["--strategy", "ihc", "--snapshot", snap]) == 0
        payload = json.loads(snap.read_text())
        payload["store"][field] = value
        snap.write_text(json.dumps(payload))
        assert run(base + ["--resume", snap, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("replacement", ["never-seen", "null", "interned"])
    def test_resume_names_the_first_differing_row(self, tmp_path, clean_csv, capsys, replacement):
        dirty, _ = self.prepare(tmp_path, clean_csv)
        snap = tmp_path / "snap.json"
        assert run(
            ["clean", "--input", dirty, "--strategy", "ihc", "--batches", "4", "--snapshot", snap]
        ) == 0
        schema, rows = load_csv(dirty)
        row = next(tid for tid in range(5, len(rows)) if rows[tid][1] is not None)
        interned = next(r[1] for r in rows if r[1] not in (None, rows[row][1]))
        rows[row][1] = {"never-seen": "never-seen", "null": None, "interned": interned}[replacement]
        changed = tmp_path / "changed.csv"
        write_csv(changed, schema.attributes, rows)
        capsys.readouterr()
        assert run(["clean", "--input", changed, "--resume", snap, "--batches", "4"]) == 2
        assert f"input row {row} does not match" in capsys.readouterr().err


def drop_progress(payload):
    del payload["progress"]


def truncate_models(payload):
    payload["models"] = payload["models"][:1]


def as_version_1(payload):
    payload["version"] = 1
    payload["strategy"]["kl_floor"] = 1e-6
    payload["strategy"]["hyperparams"]["seed"] = 0


def as_version_5(payload):
    # v5 runs built their candidate domains without the tau pruning
    payload["version"] = 5


def as_list(payload):
    return [payload]


def zero_train_limit(payload):
    payload["strategy"]["train_limit"] = 0


def zero_epochs(payload):
    payload["strategy"]["hyperparams"]["epochs"] = 0


def no_detectors(payload):
    payload["strategy"]["detectors"] = []


@pytest.mark.parametrize(
    "mangle",
    [
        drop_progress,
        truncate_models,
        as_version_1,
        as_version_5,
        as_list,
        zero_train_limit,
        zero_epochs,
        no_detectors,
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


@pytest.mark.parametrize("flags", [[], ["--omega", "0.3"]])
def test_resume_from_snapshot_lacking_a_setting_is_data_error(tmp_path, clean_csv, flags):
    """A snapshot whose strategy lacks omega and epochs does not resume with
    their defaults, and the error is not a mismatch with those defaults."""
    head = tmp_path / "head.csv"
    head.write_text("".join(clean_csv.read_text().splitlines(keepends=True)[: 1 + 40]))
    snap = tmp_path / "snap.json"
    assert run(
        ["clean", "--input", head, "--strategy", "ihc", "--skip", "ikl", "--batch-size", "20",
         "--omega", "0.3", "--epochs", "7", "--snapshot", snap]
    ) == 0
    payload = json.loads(snap.read_text())
    del payload["strategy"]["omega"], payload["strategy"]["hyperparams"]["epochs"]
    snap.write_text(json.dumps(payload))
    resume = ["clean", "--input", clean_csv, "--batch-size", "20", "--resume", snap]
    assert run(resume + flags) == 2


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


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: p["models"][0].update(attr=9),
        lambda p: p["models"][0].update(weights=[0.0]),
        lambda p: p["skipper"].update(last_trained=[[0, 99]]),
        lambda p: p["strategy"].update(epsilon_kl=float("nan")),
        # a gate that is off records nothing, or resuming would save the entry again
        lambda p: p["strategy"].update(skip="none"),
        lambda p: p["skipper"]["last_trained"].append(p["skipper"]["last_trained"][0]),
        lambda p: p["skipper"].update(last_trained=[[0, 2**70]]),
        # the recount reads batch boundaries, so they must be the input's
        lambda p: p["store"]["batch_starts"].__setitem__(1, 3),
    ],
    ids=[
        "model-attr",
        "weights-length",
        "skipper-batch",
        "epsilon-nan",
        "gate-off-trained",
        "skipper-attr-twice",
        "skipper-batch-overflow",
        "batch-boundary",
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


# -- resuming mutated snapshots ---------------------------------------------------

FUZZ_ROWS = [
    ("" if i % 7 == 3 else f"k{i % 3}", f"v{i % 4}", "" if i % 5 == 1 else f"w{i % 3}")
    for i in range(16)
]
FUZZ_FLAGS = ["--batch-size", "4"]


def _json_paths(node, path=()):
    """The path to every value nested in a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _is_value_id(path) -> bool:
    """Whether a snapshot path holds a value id (tail index: which column)."""
    head = path[:2]
    return (
        (head == ("store", "rows") and len(path) == 4)
        or (head == ("store", "original") and path[3:] == (2,))
    )


@pytest.fixture(scope="module", params=["inf", "0.05"], ids=["gate-holds-pairs", "gate-fires"])
def fuzz_case(request, tmp_path_factory):
    """A valid run snapshot after 3 of 4 batches, whose store holds repaired
    cells, plus the full input to resume it on.  At epsilon inf the models
    last trained before batch 3, so the recounted drift gate holds the value
    pairs of the batches since; at 0.05 they last trained at batch 3 and
    retrain on resume."""
    workdir = tmp_path_factory.mktemp("fuzz")
    head, full = workdir / "head.csv", workdir / "full.csv"
    write_csv(head, ("a", "b", "c"), FUZZ_ROWS[:12])
    write_csv(full, ("a", "b", "c"), FUZZ_ROWS)
    snap = workdir / "snap.json"
    assert run(
        ["clean", "--input", head, "--strategy", "ihc", "--skip", "ikl", "--snapshot", snap,
         "--omega", "0", "--epsilon", request.param] + FUZZ_FLAGS
    ) == 0
    payload = json.loads(snap.read_text())
    trained_at = {batch for _, batch in payload["skipper"]["last_trained"]}
    assert payload["store"]["original"] and (3 in trained_at) == (request.param == "0.05")
    return workdir, full, payload


MUTATIONS = ("drop", "retype", "nan", "plus", "minus", "id-negative", "id-2**32")
# the echoed batching must match the resumed run's; a mismatch is a settings
# conflict, exit 1 (see TestResume)
CONFLICTING_SETTINGS = {("config", "batches"), ("config", "batch_size")}


def _mutate(payload, path, mutation, replacement):
    """Apply one mutation at `path`; False when it does not apply there."""
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if mutation == "drop":
        del parent[key]
    elif mutation == "retype":
        if type(replacement) is type(value):
            return False
        parent[key] = replacement
    elif mutation == "nan":
        if not (is_int or isinstance(value, float)):
            return False
        parent[key] = math.nan
    elif mutation in ("plus", "minus"):
        if not is_int:
            return False
        parent[key] = value + (1 if mutation == "plus" else -1)
    else:
        if not _is_value_id(path):
            return False
        parent[key] = -1 if mutation == "id-negative" else 2**32
    return True


class TestResumeFuzz:
    serial = itertools.count()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.data(),
        st.sampled_from(MUTATIONS),
        st.sampled_from(["text", 7, 1.5, None, [], {}, True]),
    )
    def test_mutated_snapshot_resumes_or_exits_2(self, fuzz_case, data, mutation, replacement):
        """One field of a valid snapshot mutated: the resume finishes (0) or
        rejects the snapshot as malformed (2), never fails inside (3)."""
        workdir, full, valid = fuzz_case
        payload = copy.deepcopy(valid)
        paths = [
            path for path in _json_paths(payload) if path[:2] not in CONFLICTING_SETTINGS
        ]
        path = data.draw(st.sampled_from(paths), label="path")
        assume(_mutate(payload, path, mutation, replacement))
        snap = workdir / f"mutated{next(self.serial)}.json"
        snap.write_text(json.dumps(payload))
        with redirect_stderr(io.StringIO()) as log:
            code = run(["clean", "--input", full, "--resume", snap] + FUZZ_FLAGS)
        snap.unlink()
        assert code in (0, 2), (path, mutation, log.getvalue())



# -- fuzzing the CSV and constraint-file inputs -----------------------------------

# Inputs are drawn from each format's grammar, so most of them are valid and
# reach the engine; one in four is then broken at a random place by a stray
# token, or ends in bytes that are not UTF-8.
CSV_FIELDS = ["", " ", "x", "y", "z", "NULL", "empty", "é", '"a,b"', '"q""q"', '"two\nlines"']
DC_REFS = ["t1.a", "t2.a", "t1.b", "t2.b", "t1.c", "t2.c", '"x"', '"k0"', '""', '"x#1"', '"#"']
NOISE = [",", '"', "(", ")", "&", "#", ".", "t3", "zz", "LT", "\x00", "\r", "\n", " "]


def break_sometimes(draw, text: str) -> bytes:
    how = draw(st.integers(0, 7))
    if how == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(NOISE)) + text[at:]
    return text.encode("utf-8") + (draw(st.sampled_from([b"\xff", b"\xc3"])) if how == 1 else b"")


@st.composite
def csv_files(draw):
    """A header of two or three attributes and 2-8 rows of its width."""
    width = draw(st.integers(2, 3))
    header = draw(st.sampled_from([["a", "b", "c"]] * 4 + [[" a", "b ", "c"], ["a", "a", "b"]]))
    rows = draw(st.lists(st.lists(st.sampled_from(CSV_FIELDS), min_size=width, max_size=width),
                         min_size=2, max_size=8))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(",".join(fields) for fields in [header[:width]] + rows) + ending
    return break_sometimes(draw, text)


@st.composite
def constraint_files(draw):
    """1-3 rules of 1-3 EQ/NEQ predicates, each comparing an attribute a, b or
    c of either tuple with another or with a constant (some holding `#`), with
    blank and comment lines among them."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        predicates = [
            f"{draw(st.sampled_from(['EQ', 'NEQ']))}({draw(st.sampled_from(DC_REFS[:6]))},"
            f" {draw(st.sampled_from(DC_REFS))})"
            for _ in range(draw(st.integers(1, 3)))
        ]
        lines.append(" & ".join(predicates) + draw(st.sampled_from(["", " # note", "\n"])))
    return break_sometimes(draw, "\n".join(lines))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a valid CSV and a valid constraint file over it."""
    workdir = tmp_path_factory.mktemp("input-fuzz")
    write_csv(workdir / "data.csv", ("a", "b", "c"), [(f"k{i % 2}", f"v{i % 3}", "x") for i in range(6)])
    (workdir / "rules.dc").write_text("EQ(t1.a,t2.a) & NEQ(t1.b,t2.b)\n", encoding="utf-8")
    return workdir


class TestInputFuzz:
    serial = itertools.count()

    def clean(self, argv):
        with redirect_stderr(io.StringIO()) as log:
            code = run(["clean", "--strategy", "ihc", "--batches", "2"] + argv)
        return code, log.getvalue()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(csv_files(), st.sampled_from(["null", "null,dc"]))
    def test_csv_bytes_exit_0_1_or_2(self, fuzz_inputs, data, detectors):
        """Any CSV file: cleaned (0), a bad setting such as too many batches
        for its rows (1), or bad input (2); never a failure inside (3)."""
        path = fuzz_inputs / f"fuzz{next(self.serial)}.csv"
        path.write_bytes(data)
        code, log = self.clean(
            ["--input", path, "--detectors", detectors, "--dcs", fuzz_inputs / "rules.dc"]
        )
        path.unlink()
        assert code in (0, 1, 2), (data, log)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(constraint_files())
    def test_constraint_file_exits_0_1_or_2(self, fuzz_inputs, text):
        """Any constraint file over a valid CSV: cleaned (0), a bad setting (1)
        or bad input (2); never a failure inside (3)."""
        rules = fuzz_inputs / f"fuzz{next(self.serial)}.dc"
        rules.write_bytes(text)
        code, log = self.clean(
            ["--input", fuzz_inputs / "data.csv", "--detectors", "null,dc", "--dcs", rules]
        )
        rules.unlink()
        assert code in (0, 1, 2), (text, log)
