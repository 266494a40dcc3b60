"""Command-line front door: inject synthetic errors, run a cleaning strategy
over a batched stream, and score repaired output against ground truth.

Every tunable flag can also come from the environment with the INCREPAIR_
prefix (e.g. INCREPAIR_OMEGA=0.1); explicit flags win over the environment.

Exit codes: 0 success, 1 configuration error, 2 data/parse error, 3 internal.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .dc import parse_dc_file
from .errors import CleaningError, ConfigError, DataError, ParseError
from .inject import ERROR_KINDS, inject_errors
from .models import Hyperparams
from .pipeline import RunState, Strategy, StrategyKind, evaluate, run_stream, score
from .relation import DEFAULT_NULL_TOKENS, RelationStore, load_csv, make_batches
from .snapshot import load_run, save_run

ENV_PREFIX = "INCREPAIR_"
log = logging.getLogger("increpair")

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); keep our exit codes
        raise ConfigError(message)


def _resolve(flag_value: T | None, env_name: str, cast: Callable[[str], T], default: T) -> T:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_PREFIX + env_name)
    if raw is not None:
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {ENV_PREFIX}{env_name}: {raw!r}") from exc
    return default


def _parse_tokens(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(","))


def _parse_detectors(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if value is None else value for value in row])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="increpair", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    inject = commands.add_parser("inject", help="corrupt a clean CSV at an exact cell rate")
    inject.add_argument("--input", required=True, help="clean CSV with a header row")
    inject.add_argument("--rate", type=float, default=None, help="cell error rate in (0, 1)")
    inject.add_argument("--kinds", default=None, help="comma list from: typo, swap, null")
    inject.add_argument("--seed", type=int, default=None)
    inject.add_argument("--out-dirty", required=True, help="where to write the corrupted CSV")
    inject.add_argument("--out-truth", required=True, help="where to write the canonical clean CSV")
    inject.add_argument("--null-tokens", default=None, help="comma list of tokens meaning null")

    clean = commands.add_parser("clean", help="run a cleaning strategy over a batched stream")
    clean.add_argument("--input", required=True, help="dirty CSV with a header row")
    clean.add_argument("--ground-truth", default=None, help="clean CSV for the perfect detector")
    clean.add_argument("--dcs", default=None, help="constraint file, one per line")
    clean.add_argument(
        "--strategy", choices=[kind.value for kind in StrategyKind], default=None
    )
    clean.add_argument("--detectors", default=None, help="comma list from: null, dc, perfect")
    clean.add_argument("--batches", type=int, default=None, help="split into N batches")
    clean.add_argument("--batch-size", type=int, default=None, help="fixed rows per batch")
    clean.add_argument("--omega", type=float, default=None, help="correlation threshold")
    clean.add_argument("--skip", choices=["none", "ikl", "wkl"], default=None)
    clean.add_argument("--epsilon", type=float, default=None, help="divergence threshold")
    clean.add_argument("--epochs", type=int, default=None)
    clean.add_argument("--lr", type=float, default=None, help="learning rate")
    clean.add_argument("--domain-cap", type=int, default=None)
    clean.add_argument("--train-limit", type=int, default=None, help="examples per attribute")
    clean.add_argument("--seed", type=int, default=None)
    clean.add_argument("--out", default=None, help="where to write the repaired CSV")
    clean.add_argument("--metrics", default=None, help="where to write per-batch JSON lines")
    clean.add_argument("--snapshot", default=None, help="where to write the final run snapshot")
    clean.add_argument("--resume", default=None, help="run snapshot to continue from")
    clean.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in metrics lines"
    )
    clean.add_argument("--null-tokens", default=None)

    score = commands.add_parser("eval", help="score a repaired CSV against ground truth")
    score.add_argument("--repaired", required=True)
    score.add_argument("--ground-truth", required=True)
    score.add_argument("--dirty", required=True, help="the pre-repair corrupted CSV")
    score.add_argument("--json-out", default=None, help="also write the metrics as JSON")
    score.add_argument("--null-tokens", default=None)

    return parser


def cmd_inject(ns: argparse.Namespace) -> int:
    rate = _resolve(ns.rate, "RATE", float, 0.01)
    seed = _resolve(ns.seed, "SEED", int, 0)
    kinds = _resolve(ns.kinds, "KINDS", str, ",".join(ERROR_KINDS))
    tokens = _parse_tokens(_resolve(ns.null_tokens, "NULL_TOKENS", str, ",NULL,empty"))
    schema, rows = load_csv(ns.input, tokens)
    dirty, provenance = inject_errors(
        rows, rate, _parse_detectors(kinds), seed, tokens
    )
    _write_csv(ns.out_truth, schema.attributes, rows)
    _write_csv(ns.out_dirty, schema.attributes, dirty)
    log.info(
        "injected %d errors into %d cells (%s)",
        len(provenance),
        len(rows) * schema.n_attrs,
        ns.out_dirty,
    )
    return 0


def _tuning(ns: argparse.Namespace) -> dict:
    """Strategy fields set by a flag or an INCREPAIR_ variable; unset ones are left out."""
    detectors = _resolve(ns.detectors, "DETECTORS", str, None)
    fields = {
        "kind": _resolve(ns.strategy, "STRATEGY", str, None),
        "detectors": None if detectors is None else _parse_detectors(detectors),
        "skip": _resolve(ns.skip, "SKIP", str, None),
        "epsilon_kl": _resolve(ns.epsilon, "EPSILON", float, None),
        "omega": _resolve(ns.omega, "OMEGA", float, None),
        "domain_cap": _resolve(ns.domain_cap, "DOMAIN_CAP", int, None),
        "train_limit": _resolve(ns.train_limit, "TRAIN_LIMIT", int, None),
        "epochs": _resolve(ns.epochs, "EPOCHS", int, None),
        "learning_rate": _resolve(ns.lr, "LR", float, None),
        "seed": _resolve(ns.seed, "SEED", int, None),
    }
    return {key: value for key, value in fields.items() if value is not None}


def _clean_strategy(tuning: dict) -> Strategy:
    """A fresh run's strategy: the fields set, `Strategy` defaults for the rest."""
    if "kind" not in tuning:
        raise ConfigError("--strategy is required")
    fields = dict(tuning)
    try:
        fields["kind"] = StrategyKind(fields["kind"])
    except ValueError:
        raise ConfigError(f"unknown strategy {fields['kind']!r}") from None
    hyper = {key: fields.pop(key) for key in ("epochs", "learning_rate") if key in fields}
    return Strategy(**fields, hyperparams=Hyperparams(**hyper))


def _check_resumable(tuning: dict, strategy: Strategy) -> None:
    """Reject any field set for this run that differs from the snapshot's strategy."""
    saved = {**asdict(strategy), **asdict(strategy.hyperparams), "kind": strategy.kind.value}
    for key, value in tuning.items():
        if value != saved[key]:
            raise ConfigError(
                f"snapshot was built with {key}={saved[key]!r}, cannot resume with {value!r}"
            )


def cmd_clean(ns: argparse.Namespace) -> int:
    tokens = _parse_tokens(_resolve(ns.null_tokens, "NULL_TOKENS", str, ",NULL,empty"))
    batches_count = _resolve(ns.batches, "BATCHES", int, None)
    batch_size = _resolve(ns.batch_size, "BATCH_SIZE", int, None)
    if (batches_count is None) == (batch_size is None):
        raise ConfigError("exactly one of --batches or --batch-size is required")
    tuning = _tuning(ns)

    schema, rows = load_csv(ns.input, tokens)
    ground_truth = None
    if ns.ground_truth:
        truth_schema, ground_truth = load_csv(ns.ground_truth, tokens)
        if truth_schema != schema:
            raise DataError("ground truth schema differs from the input schema")
        if len(ground_truth) != len(rows):
            raise DataError(
                f"ground truth has {len(ground_truth)} rows, input has {len(rows)}"
            )
    dcs = parse_dc_file(ns.dcs, schema) if ns.dcs else []

    if batches_count is not None:
        batches = make_batches(rows, count=batches_count)
    else:
        batches = make_batches(rows, size=batch_size)

    config_echo = {
        "input": str(ns.input),
        "ground_truth": str(ns.ground_truth) if ns.ground_truth else None,
        "dcs": str(ns.dcs) if ns.dcs else None,
        "batches": batches_count,
        "batch_size": batch_size,
        "null_tokens": sorted(tokens),
    }

    if ns.resume:
        state, saved_config = load_run(ns.resume)
        strategy = state.strategy
        _check_resumable(tuning, strategy)
        for key in ("batches", "batch_size"):
            if saved_config.get(key) != config_echo[key]:
                raise ConfigError(
                    f"snapshot used {key}={saved_config.get(key)!r},"
                    f" resume requested {config_echo[key]!r}"
                )
        state.attach_inputs(dcs, ground_truth)
        done = state.batches_done
        expected = sum(batch.cardinality for batch in batches[:done])
        if state.store.n_tuples != expected:
            raise DataError(
                "snapshot does not line up with the input stream:"
                f" store holds {state.store.n_tuples} tuples, expected {expected}"
            )
        for tid in range(state.store.n_tuples):
            for attr in range(schema.n_attrs):
                if state.store.original_canonical(tid, attr) != rows[tid][attr]:
                    raise DataError(
                        f"input row {tid} does not match the snapshotted stream"
                    )
        remaining = batches[done:]
    else:
        strategy = _clean_strategy(tuning)
        store = RelationStore(schema, tokens)
        state = RunState(store, strategy, dcs, ground_truth)
        remaining = batches

    log.info(
        "cleaning %s with %s: %d batches (%d done), omega=%g skip=%s epsilon=%g seed=%d",
        ns.input,
        strategy.kind.value,
        len(batches),
        state.batches_done,
        strategy.omega,
        strategy.skip,
        strategy.epsilon_kl,
        strategy.seed,
    )

    metrics_handle = open(ns.metrics, "w", encoding="utf-8") if ns.metrics else None
    try:
        reports = run_stream(
            state, strategy, remaining, metrics_handle, include_timings=ns.timings
        )
    finally:
        if metrics_handle is not None:
            metrics_handle.close()
    for report in reports[-1:]:
        log.info(
            "batch %d: flagged %d, repaired %d (%d changed), remaining errors: %s",
            report.batch,
            report.cells_flagged,
            report.repairs_attempted,
            report.repairs_changed,
            report.remaining_errors,
        )

    if ns.out:
        state.store.export_csv(ns.out)
    if ns.snapshot:
        save_run(state, ns.snapshot, config=config_echo)
    if ground_truth is not None:
        summary = evaluate(state.store, ground_truth)
        log.info(
            "final: precision=%.4f recall=%.4f f1=%.4f remaining=%d",
            summary["precision"],
            summary["recall"],
            summary["f1"],
            summary["remaining_errors"],
        )
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    tokens = _parse_tokens(_resolve(ns.null_tokens, "NULL_TOKENS", str, ",NULL,empty"))
    repaired_schema, repaired = load_csv(ns.repaired, tokens)
    truth_schema, truth = load_csv(ns.ground_truth, tokens)
    dirty_schema, dirty = load_csv(ns.dirty, tokens)
    if not (repaired_schema == truth_schema == dirty_schema):
        raise DataError("the three files must share one schema")
    if not (len(repaired) == len(truth) == len(dirty)):
        raise DataError(
            f"row counts differ: repaired={len(repaired)},"
            f" truth={len(truth)}, dirty={len(dirty)}"
        )
    metrics = score(repaired, dirty, truth)
    text = json.dumps(metrics, sort_keys=True)
    print(text)
    if ns.json_out:
        Path(ns.json_out).write_text(text + "\n", encoding="utf-8")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if ns.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        if ns.command == "inject":
            return cmd_inject(ns)
        if ns.command == "clean":
            return cmd_clean(ns)
        if ns.command == "eval":
            return cmd_eval(ns)
        raise ConfigError("a command is required: inject, clean, or eval")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CleaningError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything to 3
        logging.getLogger("increpair").exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
