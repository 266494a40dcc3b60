"""In-loop ground-truth counters against a full re-evaluation, batch by batch,
and the CLI scorer against the library scorer."""

from __future__ import annotations

import csv
import json
import random

import pytest

from increpair.cli import main
from increpair.inject import inject_errors
from increpair.models import Hyperparams
from increpair.pipeline import RunState, Strategy, StrategyKind, evaluate, run_batch, run_stream
from increpair.relation import RelationStore, Schema, make_batches
from increpair.snapshot import load_run, save_run

SCHEMA = Schema(("a", "b", "c"))
GRID = [
    (StrategyKind.HC_SEP, "none"),
    (StrategyKind.HC_ACC, "none"),
    (StrategyKind.IHC, "ikl"),
    (StrategyKind.IHC, "wkl"),
    (StrategyKind.IHC_RE, "ikl"),
]


def truth_and_dirty(seed=4, n_rows=120):
    """Prototype rows with some true nulls, so the null detector also flags
    correct cells and a repair can make a right cell wrong."""
    rng = random.Random(seed)
    protos = [
        [f"{attr}{rng.randrange(4)}" for attr in SCHEMA.attributes] for _ in range(6)
    ]
    protos[0][2] = protos[1][2] = None
    truth = [list(rng.choice(protos)) for _ in range(n_rows)]
    dirty, _ = inject_errors(truth, 0.08, seed=seed)
    return truth, dirty


def strategy_for(kind, skip, detector):
    return Strategy(
        kind=kind,
        detectors=(detector,),
        skip=skip,
        omega=0.0,
        train_limit=60,
        hyperparams=Hyperparams(epochs=10, learning_rate=0.3),
    )


@pytest.mark.parametrize("detector", ["perfect", "null"])
@pytest.mark.parametrize("kind,skip", GRID)
def test_counters_match_full_evaluation(tmp_path, kind, skip, detector):
    truth, dirty = truth_and_dirty()
    strategy = strategy_for(kind, skip, detector)
    state = RunState(RelationStore(SCHEMA), strategy, ground_truth=truth)
    for raw in make_batches(dirty, count=6):
        if raw.k == 4:  # resume mid-stream: the counters are recounted, not restored
            save_run(state, tmp_path / "run.json")
            state, _ = load_run(tmp_path / "run.json")
            state.attach_inputs(ground_truth=truth)
        report = run_batch(state, strategy, raw)
        full = evaluate(state.store, truth[: state.store.n_tuples])
        assert report.true_errors_so_far == full["true_errors"]
        assert report.remaining_errors == full["remaining_errors"]
    assert full["repairs_changed"] > 0


def write_csv(path, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCHEMA.attributes)
        writer.writerows(rows)


@pytest.mark.parametrize("kind", [StrategyKind.HC_ACC, StrategyKind.IHC_RE])
def test_cli_eval_agrees_with_evaluate(tmp_path, capsys, kind):
    truth, dirty = truth_and_dirty()
    strategy = strategy_for(kind, "none", "null")
    state = RunState(RelationStore(SCHEMA), strategy, ground_truth=truth)
    run_stream(state, strategy, make_batches(dirty, count=4))
    repaired = tmp_path / "repaired.csv"
    state.store.export_csv(repaired)
    write_csv(tmp_path / "truth.csv", truth)
    write_csv(tmp_path / "dirty.csv", dirty)
    capsys.readouterr()
    assert main(
        [
            "eval",
            "--repaired", str(repaired),
            "--ground-truth", str(tmp_path / "truth.csv"),
            "--dirty", str(tmp_path / "dirty.csv"),
        ]
    ) == 0
    scored = json.loads(capsys.readouterr().out)
    expected = evaluate(state.store, truth)
    assert expected["repairs_changed"] > 0
    assert scored == expected
