"""Versioned snapshot container: persist a run mid-stream.

Snapshots are canonical JSON (sorted keys, no whitespace), so the same state
always serializes to the same bytes on one platform, and restoring then
resuming is indistinguishable from never having stopped.  A run snapshot
keeps only what cannot be recounted: the store (every row as first seen and
as now repaired), the strategy, the models, the batch each attribute last
trained at, and the progress counters.  The statistics, entropy sums and
drift-gate reference are functions of the rows ingested so far, so
`load_run` rebuilds them (`pipeline.recount`) rather than reading them.
Constraint files and ground-truth tables are inputs rather than state; a
restored run gets them re-attached from the recorded configuration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, TypeVar

from .errors import ConfigError, DataError
from .models import AttributeModel
from .pipeline import RunState, Strategy, recount
from .relation import RelationStore, int_rows, write_atomic

FORMAT_NAME = "increpair-snapshot"
# v6: the models of a v5 run were trained on candidate domains built without
# the tau pruning, so resuming one would mix two domain rules in one stream.
RUN_VERSION = 6
# RunState counters carried across a snapshot, by attribute name.
PROGRESS_KEYS = (
    "batches_done",
    "cum_probe_cells",
    "cum_training_instances",
    "cum_repairs_changed",
    "cum_repairs_correct",
)

T = TypeVar("T")


def _require(payload: dict, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(payload, dict):
        raise DataError(f"{where} is a {type(payload).__name__}, not an object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{where} lacks {', '.join(missing)}")


def _load(path: str | Path, keys: tuple[str, ...]) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot open snapshot {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"snapshot {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"snapshot {path} is not valid JSON: {exc}") from exc
    _require(payload, (), f"snapshot {path}")
    if payload.get("format") != FORMAT_NAME:
        raise DataError(f"snapshot {path} has unknown format {payload.get('format')!r}")
    if payload.get("kind") != "run":
        raise DataError(f"snapshot {path} holds a {payload.get('kind')!r}, expected 'run'")
    if payload.get("version") != RUN_VERSION:
        raise DataError(f"unsupported run snapshot version {payload.get('version')!r}")
    _require(payload, keys, f"snapshot {path}")
    return payload


def _section(path: str | Path, name: str, restore: Callable[[dict], T], payload) -> T:
    """Restore one snapshot section, reporting any malformed content as a DataError.

    A setting the section holds but the engine rejects (say `epochs: 0`) is
    malformed snapshot content too, so a ConfigError becomes a DataError here,
    and a DataError is raised again naming the file and the section.
    """
    try:
        return restore(payload)
    except (
        KeyError, IndexError, TypeError, ValueError, AttributeError, ConfigError, DataError
    ) as exc:
        raise DataError(f"snapshot {path} has a malformed {name} section: {exc!r}") from exc


def save_run(state: RunState, path: str | Path, config: dict | None = None) -> None:
    """Persist a full run: store, strategy, models, last training batches, counters."""
    last_trained = sorted([attr, k] for attr, k in state.skipper.last_trained.items())
    payload = {
        "format": FORMAT_NAME,
        "kind": "run",
        "version": RUN_VERSION,
        "store": state.store.to_dict(),
        "strategy": state.strategy.to_dict(),
        "models": [model.to_dict() for model in state.models],
        "skipper": {"last_trained": last_trained},
        "progress": {key: getattr(state, key) for key in PROGRESS_KEYS},
        "config": config or {},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    write_atomic(path, lambda handle: handle.write(text))


def load_run(path: str | Path) -> tuple[RunState, dict]:
    """Restore a run snapshot; returns the state and the recorded configuration.

    Each section is restored on its own and checked against the schema and
    the others; then the statistics, entropy sums and drift-gate reference
    are recounted from the store.  Constraints and ground truth are not
    serialized: callers re-attach them via `RunState.attach_inputs` before
    resuming.
    """
    payload = _load(path, ("store", "strategy", "models", "skipper", "progress", "config"))
    _require(payload["progress"], PROGRESS_KEYS, f"snapshot {path} progress")
    _require(payload["config"], (), f"snapshot {path} config")
    if not all(isinstance(payload["progress"][key], int) for key in PROGRESS_KEYS):
        raise DataError(f"snapshot {path} progress counters are not all integers")
    store = _section(path, "store", RelationStore.from_dict, payload["store"])
    models = payload["models"]
    if not isinstance(models, list) or len(models) != store.n_attrs:
        count = len(models) if isinstance(models, list) else type(models).__name__
        raise DataError(f"snapshot {path} holds {count} models for {store.n_attrs} attributes")
    strategy = _section(path, "strategy", Strategy.from_dict, payload["strategy"])
    state = RunState(store, strategy, attach=False)
    state.models = [
        _section(path, f"models[{i}]", AttributeModel.from_dict, entry)
        for i, entry in enumerate(models)
    ]
    state.skipper.last_trained = _section(path, "skipper", _last_trained, payload["skipper"])
    for key in PROGRESS_KEYS:
        setattr(state, key, payload["progress"][key])
    problem = _section(path, "run", _inconsistency, state)
    if problem:
        raise DataError(f"snapshot {path} is inconsistent: {problem}")
    _section(path, "run", recount, state)
    return state, payload["config"]


def _last_trained(payload: dict) -> dict[int, int]:
    entries = int_rows(payload["last_trained"], 2, "last training batches").tolist()
    last_trained = dict(entries)
    if len(last_trained) != len(entries):
        raise DataError("last training batches list an attribute more than once")
    return last_trained


def _inconsistency(state: RunState) -> str | None:
    """The first way the restored sections disagree with the schema or each other."""
    store = state.store
    n_attrs = store.n_attrs
    for attr, model in enumerate(state.models):
        finite = all(map(math.isfinite, model.weights.flat))
        if model.attr != attr or model.weights.shape != (n_attrs,) or not finite:
            return f"model {attr} is not {n_attrs} finite weights for attribute {attr}"
    if state.batches_done != store.batches_appended:
        return f"{state.batches_done} batches done, {store.batches_appended} in the store"
    last_trained = state.skipper.last_trained
    if last_trained and state.strategy.skip == "none":
        return "the drift gate is off, yet it records trained attributes"
    for attr, batch in last_trained.items():
        if not (0 <= attr < n_attrs and 1 <= batch <= state.batches_done):
            return f"attribute {attr} last trained at batch {batch} of {state.batches_done}"
        if not store.batch_tids(batch).stop:  # the gate's reference would hold n' = 0
            return f"attribute {attr} last trained at batch {batch}, before any tuple arrived"
    return None
