"""Versioned snapshot container: persist a bare store or a full run mid-stream.

Snapshots are canonical JSON (sorted keys, no whitespace), so the same state
always serializes to the same bytes on one platform, and restoring then
resuming is indistinguishable from never having stopped.  Constraint files
and ground-truth tables are inputs rather than state; a restored run gets
them re-attached from the recorded configuration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError, DataError
from .pipeline import RunState, Strategy
from .relation import RelationStore, write_atomic
from .skipper import SkipperState
from .stats import SHIFT, EntropyAccumulator, StatsStore, insertion_points, scratch_accumulator
from .models import AttributeModel

FORMAT_NAME = "increpair-snapshot"
STORE_VERSION = 1
RUN_VERSION = 4
# RunState counters carried across a snapshot, by attribute name.
PROGRESS_KEYS = (
    "batches_done",
    "cum_probe_cells",
    "cum_training_instances",
    "cum_repairs_changed",
    "cum_repairs_correct",
)

T = TypeVar("T")


def _dump(payload: dict, path: str | Path) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    write_atomic(path, lambda handle: handle.write(text))


def _require(payload: dict, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(payload, dict):
        raise DataError(f"{where} is a {type(payload).__name__}, not an object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{where} lacks {', '.join(missing)}")


def _load(path: str | Path, expected_kind: str, version: int, keys: tuple[str, ...]) -> dict:
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
    return _section(path, "store", RelationStore.from_dict, payload["store"])


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

    Each section is restored on its own, then the sections are checked against
    the schema and each other.  Constraints and ground truth are not
    serialized: callers re-attach them via `RunState.attach_inputs` before
    resuming.
    """
    payload = _load(
        path,
        "run",
        RUN_VERSION,
        ("store", "strategy", "stats", "entropy", "models", "skipper", "progress", "config"),
    )
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
    state.stats = _section(path, "stats", StatsStore.from_dict, payload["stats"])
    state.entropy = _section(path, "entropy", EntropyAccumulator.from_dict, payload["entropy"])
    state.models = [
        _section(path, f"models[{i}]", AttributeModel.from_dict, entry)
        for i, entry in enumerate(models)
    ]
    state.skipper = _section(path, "skipper", SkipperState.from_dict, payload["skipper"])
    for key in PROGRESS_KEYS:
        setattr(state, key, payload["progress"][key])
    problem = _section(path, "run", _inconsistency, state)
    if problem:
        raise DataError(f"snapshot {path} is inconsistent: {problem}")
    return state, payload["config"]


def _inconsistency(state: RunState) -> str | None:
    """The first way the restored sections disagree with the schema or each other."""
    store, stats, skipper = state.store, state.stats, state.skipper
    n_attrs = store.n_attrs
    for attr, model in enumerate(state.models):
        finite = all(map(math.isfinite, model.weights.flat))
        if model.attr != attr or model.weights.shape != (n_attrs,) or not finite:
            return f"model {attr} is not {n_attrs} finite weights for attribute {attr}"
    if stats.n_attrs != n_attrs or state.entropy.n_attrs != n_attrs:
        return f"statistics or entropies are not over {n_attrs} attributes"
    return (
        _counts_problem(state)
        or _entropy_problem(state)
        or _skipper_problem(state)
    )


def _counts_problem(state: RunState) -> str | None:
    """Counts that no stream of the store's tuples could have produced."""
    store, stats = state.store, state.stats
    if state.batches_done != store.batches_appended:
        return f"{state.batches_done} batches done, {store.batches_appended} in the store"
    if state.strategy.kind.incremental or state.strategy.kind.revisit:
        rows = store.n_tuples  # every tuple, as first seen or as now repaired
    else:
        rows = len(store.batch_tids(state.batches_done)) if state.batches_done else 0
    if stats.n != rows:
        return f"statistics count n={stats.n}, the strategy counts {rows} of the store's rows"
    margins = []
    for attr, table in enumerate(stats.single):
        if sum(table.values()) != stats.n:
            return f"attribute {attr}'s value counts do not sum to n={stats.n}"
        margin = np.array(sorted(table.items()), dtype=np.int64).reshape(-1, 2)
        if len(margin) and not 0 <= margin[0, 0] <= margin[-1, 0] < store.interner.size(attr):
            return f"attribute {attr} counts a value id the store never issued"
        margins.append(margin)
    # each margin equals the marginal counts, so every table sums to n as well,
    # and every marginal count is positive
    for i in range(stats.n_attrs):
        for j in range(i + 1, stats.n_attrs):
            counts = stats.table(i, j)[1]
            if len(counts) and not 1 <= counts.min() <= counts.max() <= stats.n:
                return f"pair ({i}, {j}) holds a count outside 1..{stats.n}"
            if not (
                np.array_equal(_margin(*stats.table(i, j)), margins[i])
                and np.array_equal(_margin(*stats.table(j, i)), margins[j])
            ):
                return f"pair ({i}, {j})'s counts disagree with the marginal counts"
    return None


def _margin(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """[value id, summed count] rows of a packed table, by its high value id."""
    high = keys >> SHIFT
    starts = np.flatnonzero(np.diff(high, prepend=-1))
    return np.stack([high[starts], np.add.reduceat(counts, starts)], axis=1)


def _entropy_problem(state: RunState) -> str | None:
    entropy, stats = state.entropy, state.stats
    if entropy.n != stats.n:
        return f"entropies at n={entropy.n}, statistics at n={stats.n}"
    # compared per row, in the units (nats) criteria 1 and 4 hold to 1e-9
    scratch = scratch_accumulator(stats)
    tolerance = 1e-9 * max(stats.n, 1)
    kept = entropy.marginal + list(entropy.pair.values())
    fresh = scratch.marginal + list(scratch.pair.values())
    if any(abs(a - b) > tolerance for a, b in zip(kept, fresh)):
        return "entropy sums differ from the statistics' by more than 1e-9 per row"
    return None


def _skipper_problem(state: RunState) -> str | None:
    store, stats, skipper = state.store, state.stats, state.skipper
    n_attrs = store.n_attrs
    for attr, batch in skipper.last_trained.items():
        if not (0 <= attr < n_attrs and 1 <= batch <= state.batches_done):
            return f"attribute {attr} last trained at batch {batch} of {state.batches_done}"
    trained = set(skipper.last_trained)
    if not set(skipper.trained_n) == set(skipper.support) == set(skipper.baseline) == trained:
        return "the drift gate's reference does not cover the trained attributes"
    for attr in sorted(trained):
        n_trained, support = skipper.trained_n[attr], skipper.support[attr]
        if not (isinstance(n_trained, int) and 1 <= n_trained <= stats.n):
            return f"attribute {attr} trained at n={n_trained!r}, statistics at n={stats.n}"
        if not (isinstance(support, int) and support >= 0):
            return f"attribute {attr}'s training support {support!r} is not a count"
        partners = skipper.baseline[attr]
        if set(partners) != set(range(n_attrs)) - {attr}:
            return f"attribute {attr}'s drift reference does not name each other attribute"
        # a value pair the statistics count holds issued value ids (see _counts_problem)
        for other, (keys, z_trained) in partners.items():
            table_keys, table_counts = stats.table(*sorted((attr, other)))
            at, fresh = insertion_points(table_keys, keys)
            if fresh.any() or (z_trained < 0).any() or (z_trained > table_counts[at]).any():
                return f"attribute {attr} trained on a value pair count now lower or absent"
    return None
