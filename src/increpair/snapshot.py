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

from .errors import ConfigError, DataError
from .pipeline import RunState, Strategy
from .relation import RelationStore, write_atomic
from .skipper import SkipperState
from .stats import EntropyAccumulator, StatsStore, scratch_accumulator
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
    for attr, table in enumerate(stats.single):
        if sum(table.values()) != stats.n:
            return f"attribute {attr}'s value counts do not sum to n={stats.n}"
        issued = store.interner.size(attr)
        if any(not 0 <= vid < issued or count < 1 for vid, count in table.items()):
            return f"attribute {attr} counts a value id the store never issued"
    # each margin equals the marginal counts, so every table sums to n as well
    for i in range(stats.n_attrs):
        for j in range(i + 1, stats.n_attrs):
            margin_i: dict[int, int] = {}
            margin_j: dict[int, int] = {}
            entries = 0
            for vi, vj, count in stats.iter_pairs(i, j):
                if count < 1:
                    return f"pair ({i}, {j}) holds a count of {count}"
                margin_i[vi] = margin_i.get(vi, 0) + count
                margin_j[vj] = margin_j.get(vj, 0) + count
                entries += 1
            if (margin_i, margin_j) != (stats.single[i], stats.single[j]):
                return f"pair ({i}, {j})'s counts disagree with the marginal counts"
            if entries != stats.pair_support(i, j):
                return f"pair ({i}, {j}) lists a value pair more than once"
    return None


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
        for other, tracked in partners.items():
            lo, hi = sorted((attr, other))
            for (va, vb), z_trained in tracked.items():
                if not (0 <= va < store.interner.size(lo) and 0 <= vb < store.interner.size(hi)):
                    return f"attribute {attr}'s drift reference holds a value id never issued"
                current = stats.pair_count(lo, va, hi, vb)
                if not (isinstance(z_trained, int) and 0 <= z_trained <= current and current):
                    return (
                        f"attribute {attr} trained on count {z_trained!r} of a value pair"
                        f" now counted {current}"
                    )
    return None
