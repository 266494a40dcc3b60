"""Versioned snapshot container: persist a bare store or a full run mid-stream.

Snapshots are canonical JSON (sorted keys, no whitespace), so the same state
always serializes to the same bytes on one platform, and restoring then
resuming is indistinguishable from never having stopped.  Constraint files
and ground-truth tables are inputs rather than state; a restored run gets
them re-attached from the recorded configuration.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataError
from .pipeline import RunState, Strategy
from .relation import RelationStore
from .skipper import SkipperState
from .stats import EntropyAccumulator, StatsStore
from .models import AttributeModel

FORMAT_NAME = "increpair-snapshot"
STORE_VERSION = 1
RUN_VERSION = 2
# RunState counters carried across a snapshot, by attribute name.
PROGRESS_KEYS = (
    "batches_done",
    "cum_probe_cells",
    "cum_training_instances",
    "cum_repairs_changed",
    "cum_repairs_correct",
)


def _dump(payload: dict, path: str | Path) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text, encoding="utf-8")


def _require(payload: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{where} lacks {', '.join(missing)}")


def _load(path: str | Path, expected_kind: str, version: int, keys: tuple[str, ...]) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot open snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if payload.get("format") != FORMAT_NAME:
        raise DataError(f"snapshot {path} has unknown format {payload.get('format')!r}")
    if payload.get("kind") != expected_kind:
        raise DataError(
            f"snapshot {path} holds a {payload.get('kind')!r}, expected {expected_kind!r}"
        )
    if payload.get("version") != version:
        raise DataError(
            f"unsupported {expected_kind} snapshot version {payload.get('version')!r}"
        )
    _require(payload, keys, f"snapshot {path}")
    return payload


def save_store(store: RelationStore, path: str | Path) -> None:
    _dump(
        {
            "format": FORMAT_NAME,
            "kind": "store",
            "version": STORE_VERSION,
            "store": store.to_dict(),
        },
        path,
    )


def load_store(path: str | Path) -> RelationStore:
    payload = _load(path, "store", STORE_VERSION, ("store",))
    return RelationStore.from_dict(payload["store"])


def save_run(state: RunState, path: str | Path, config: dict | None = None) -> None:
    """Persist a full run: store, statistics, entropies, models, skipper, counters."""
    _dump(
        {
            "format": FORMAT_NAME,
            "kind": "run",
            "version": RUN_VERSION,
            "store": state.store.to_dict(),
            "strategy": state.strategy.to_dict(),
            "stats": state.stats.to_dict(),
            "entropy": state.entropy.to_dict(),
            "models": [model.to_dict() for model in state.models],
            "skipper": state.skipper.to_dict(),
            "progress": {key: getattr(state, key) for key in PROGRESS_KEYS},
            "config": config or {},
        },
        path,
    )


def load_run(path: str | Path) -> tuple[RunState, dict]:
    """Restore a run snapshot; returns the state and the recorded configuration.

    Constraints and ground truth are not serialized: callers re-attach them
    via `RunState.attach_inputs` before resuming.
    """
    payload = _load(
        path,
        "run",
        RUN_VERSION,
        ("store", "strategy", "stats", "entropy", "models", "skipper", "progress", "config"),
    )
    _require(payload["progress"], PROGRESS_KEYS, f"snapshot {path} progress")
    store = RelationStore.from_dict(payload["store"])
    if len(payload["models"]) != store.n_attrs:
        raise DataError(
            f"snapshot {path} holds {len(payload['models'])} models"
            f" for {store.n_attrs} attributes"
        )
    state = RunState(store, Strategy.from_dict(payload["strategy"]), attach=False)
    state.stats = StatsStore.from_dict(payload["stats"])
    state.entropy = EntropyAccumulator.from_dict(payload["entropy"])
    state.models = [AttributeModel.from_dict(entry) for entry in payload["models"]]
    state.skipper = SkipperState.from_dict(payload["skipper"])
    for key in PROGRESS_KEYS:
        setattr(state, key, payload["progress"][key])
    return state, payload["config"]
