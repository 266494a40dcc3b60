"""Command-line front door: inject synthetic errors, run a cleaning strategy
over a batched stream, and score repaired output against ground truth.

Every setting can also come from the environment: the flag's name in
capitals after INCREPAIR_ (--omega from INCREPAIR_OMEGA, --batch-size from
INCREPAIR_BATCH_SIZE); a flag wins over its variable.  Paths (--input,
--out, --resume, ...) and switches (--timings) come from flags only.

Exit codes: 0 success, 1 configuration error, 2 data/parse error, 3 internal.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterator, Sequence

from .dc import parse_dc_file
from .detectors import DETECTOR_NAMES, truth_ids
from .errors import CleaningError, ConfigError, DataError, ParseError
from .inject import ERROR_KINDS, inject_errors
from .models import Hyperparams
from .pipeline import SKIP_VARIANTS, RunState, Strategy, StrategyKind, run_stream, score
from .relation import DEFAULT_NULL_TOKENS, RelationStore, load_csv, make_batches, write_atomic
from .relation import write_csv
from .snapshot import load_run, save_run

ENV_PREFIX = "INCREPAIR_"
log = logging.getLogger("increpair")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); keep our exit codes
        raise ConfigError(message)

    def add_setting(self, flag: str, *, default=None, help: str = "", **kwargs) -> None:
        """A flag whose INCREPAIR_ variable stands in when it is not given.

        The variable's text becomes the default, which argparse converts with
        the flag's `type` like a value on the command line; a bad one is a
        parser error, so exit code 1.
        """
        env = ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")
        help = f"{help} (or {env})".lstrip()
        self.add_argument(flag, default=os.environ.get(env, default), help=help, **kwargs)


def _parse_tokens(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(","))


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _check_output(flag: str, path: str | None) -> None:
    """Reject, before any work is done, an output path that names a directory
    or lies in a missing one."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ConfigError(f"{flag} {path} is not a file path in an existing directory")


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """An output that cannot be written is a configuration error: its path,
    or the space behind it, was set wrong."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="increpair", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    inject = commands.add_parser("inject", help="corrupt a clean CSV at an exact cell rate")
    inject.add_argument("--input", required=True, help="clean CSV with a header row")
    inject.add_setting("--rate", type=float, default=0.01, help="cell error rate in (0, 1)")
    kinds = f"comma list from: {', '.join(ERROR_KINDS)}"
    inject.add_setting("--kinds", type=_parse_names, default=ERROR_KINDS, help=kinds)
    inject.add_setting("--seed", type=int, default=0)
    inject.add_argument("--out-dirty", required=True, help="where to write the corrupted CSV")
    inject.add_argument("--out-truth", required=True, help="where to write the canonical clean CSV")

    # A setting that tunes the strategy has the Strategy or Hyperparams field it
    # sets as its dest (read by _tuning); unset, it stays None, so a fresh run
    # takes the field's default and a resumed run the snapshot's.
    clean = commands.add_parser("clean", help="run a cleaning strategy over a batched stream")
    clean.add_argument("--input", required=True, help="dirty CSV with a header row")
    clean.add_argument("--ground-truth", default=None, help="clean CSV for the perfect detector")
    clean.add_argument("--dcs", default=None, help="constraint file, one per line")
    strategies = [kind.value for kind in StrategyKind]
    clean.add_setting("--strategy", dest="kind", type=StrategyKind, choices=strategies)
    detectors = f"comma list from: {', '.join(DETECTOR_NAMES)}"
    clean.add_setting("--detectors", type=_parse_names, help=detectors)
    clean.add_setting("--batches", type=int, help="split into N batches")
    clean.add_setting("--batch-size", type=int, help="fixed rows per batch")
    clean.add_setting("--omega", type=float, help="correlation threshold")
    clean.add_setting("--skip", choices=SKIP_VARIANTS, help="drift gate")
    clean.add_setting("--epsilon", dest="epsilon_kl", type=float, help="divergence threshold")
    clean.add_setting("--epochs", type=int)
    clean.add_setting("--lr", dest="learning_rate", type=float, help="learning rate")
    clean.add_setting("--domain-cap", type=int)
    clean.add_setting("--train-limit", type=int, help="examples per attribute")
    clean.add_setting("--seed", type=int)
    clean.add_argument("--out", default=None, help="where to write the repaired CSV")
    clean.add_argument("--metrics", default=None, help="where to write per-batch JSON lines")
    clean.add_argument("--snapshot", default=None, help="where to write the final run snapshot")
    clean.add_argument("--resume", default=None, help="run snapshot to continue from")
    clean.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock stage timings and peak resident memory (peak_rss_kb)"
        " in metrics lines",
    )

    score = commands.add_parser("eval", help="score a repaired CSV against ground truth")
    score.add_argument("--repaired", required=True)
    score.add_argument("--ground-truth", required=True)
    score.add_argument("--dirty", required=True, help="the pre-repair corrupted CSV")
    score.add_argument("--json-out", default=None, help="also write the metrics as JSON")

    for command in (inject, clean, score):
        command.add_setting(
            "--null-tokens",
            type=_parse_tokens,
            default=DEFAULT_NULL_TOKENS,
            help="comma list of tokens meaning null",
        )
    return parser


def cmd_inject(ns: argparse.Namespace) -> int:
    schema, rows = load_csv(ns.input, ns.null_tokens)
    dirty, provenance = inject_errors(rows, ns.rate, ns.kinds, ns.seed, ns.null_tokens)
    with _writing(ns.out_truth):
        write_csv(ns.out_truth, schema.attributes, rows)
    with _writing(ns.out_dirty):
        write_csv(ns.out_dirty, schema.attributes, dirty)
    log.info(
        "injected %d errors into %d cells (%s)",
        len(provenance),
        len(rows) * schema.n_attrs,
        ns.out_dirty,
    )
    return 0


def _tuning(ns: argparse.Namespace) -> dict:
    """Strategy and Hyperparams fields set by a flag or an INCREPAIR_ variable;
    unset ones are left out."""
    settings = vars(ns)
    names = [f.name for f in fields(Strategy) + fields(Hyperparams)]
    return {name: settings[name] for name in names if settings.get(name) is not None}


def _clean_strategy(tuning: dict) -> Strategy:
    """A fresh run's strategy: the fields set, `Strategy` defaults for the rest."""
    if "kind" not in tuning:
        raise ConfigError("--strategy is required")
    settings = dict(tuning)
    hyper = {f.name: settings.pop(f.name) for f in fields(Hyperparams) if f.name in settings}
    return Strategy(**settings, hyperparams=Hyperparams(**hyper))


def _check_resumable(requested: dict, strategy: Strategy, config: dict) -> None:
    """Reject any setting of this run that differs from the snapshot's: its
    strategy's fields, or the batching its configuration echoes.  Values are
    shown as the snapshot's JSON spells them."""
    saved = {**config, **asdict(strategy), **asdict(strategy.hyperparams)}
    for key, value in requested.items():
        if value != saved.get(key):
            raise ConfigError(
                f"snapshot was built with {key}={json.dumps(saved.get(key))},"
                f" cannot resume with {json.dumps(value)}"
            )


def cmd_clean(ns: argparse.Namespace) -> int:
    if (ns.batches is None) == (ns.batch_size is None):
        raise ConfigError("exactly one of --batches or --batch-size is required")
    for flag, value in (("--batches", ns.batches), ("--batch-size", ns.batch_size)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    tuning = _tuning(ns)
    outputs = (("--out", ns.out), ("--metrics", ns.metrics), ("--snapshot", ns.snapshot))
    for flag, path in outputs:
        _check_output(flag, path)

    schema, rows = load_csv(ns.input, ns.null_tokens)
    ground_truth = None
    if ns.ground_truth:
        truth_schema, ground_truth = load_csv(ns.ground_truth, ns.null_tokens)
        if truth_schema != schema:
            raise DataError("ground truth schema differs from the input schema")
        if len(ground_truth) != len(rows):
            raise DataError(f"ground truth has {len(ground_truth)} rows, input has {len(rows)}")
    dcs = parse_dc_file(ns.dcs, schema) if ns.dcs else []

    if ns.batches is not None:
        batches = make_batches(rows, count=ns.batches)
    else:
        batches = make_batches(rows, size=ns.batch_size)

    config_echo = {
        "input": str(ns.input),
        "ground_truth": str(ns.ground_truth) if ns.ground_truth else None,
        "dcs": str(ns.dcs) if ns.dcs else None,
        "batches": ns.batches,
        "batch_size": ns.batch_size,
        "null_tokens": sorted(ns.null_tokens),
    }

    if ns.resume:
        state, saved_config = load_run(ns.resume)
        store, strategy = state.store, state.strategy
        if (store.schema, store.null_tokens) != (schema, ns.null_tokens):
            raise DataError(
                f"snapshot holds attributes {store.schema.attributes} and null tokens"
                f" {sorted(store.null_tokens, key=str)}; the input has"
                f" {schema.attributes} and {config_echo['null_tokens']}"
            )
        batching = {key: config_echo[key] for key in ("batches", "batch_size")}
        _check_resumable({**tuning, **batching}, strategy, saved_config)
        state.attach_inputs(dcs, ground_truth)
        done = state.batches_done
        sizes = [len(store.batch_tids(k)) for k in range(1, done + 1)]
        expected = [batch.cardinality for batch in batches[:done]]
        if sizes != expected:
            raise DataError(
                "snapshot does not line up with the input stream:"
                f" its batches hold {sizes} tuples, the input's {expected}"
            )
        seen = truth_ids(store, rows, range(store.n_tuples))
        differs = (seen != store.first_seen).any(axis=1)
        if differs.any():
            raise DataError(f"input row {differs.argmax()} does not match the snapshotted stream")
        remaining = batches[done:]
    else:
        strategy = _clean_strategy(tuning)
        store = RelationStore(schema, ns.null_tokens)
        state = RunState(store, strategy, dcs, ground_truth)
        remaining = batches
    del rows  # the batches hold the same values as tuples; the lists are not read again

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

    reports = run_stream(state, strategy, remaining)
    if ns.metrics:
        lines = "".join(report.to_json_line(ns.timings) + "\n" for report in reports)
        with _writing(ns.metrics):
            write_atomic(ns.metrics, lambda handle: handle.write(lines))
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
        with _writing(ns.out):
            state.store.export_csv(ns.out)
    if ns.snapshot:
        with _writing(ns.snapshot):
            save_run(state, ns.snapshot, config=config_echo)
    if state.truth is not None:
        summary = score(state.store.values, state.store.first_seen, state.truth)
        log.info(
            "final: precision=%.4f recall=%.4f f1=%.4f remaining=%d",
            summary["precision"],
            summary["recall"],
            summary["f1"],
            summary["remaining_errors"],
        )
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    repaired_schema, repaired = load_csv(ns.repaired, ns.null_tokens)
    truth_schema, truth = load_csv(ns.ground_truth, ns.null_tokens)
    dirty_schema, dirty = load_csv(ns.dirty, ns.null_tokens)
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
        with _writing(ns.json_out):
            write_atomic(ns.json_out, lambda handle: handle.write(text + "\n"))
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
