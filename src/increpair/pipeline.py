"""Batch-strategy orchestration: detect, count, gate training, repair, report.

The four strategies are the cells of a 2x2 grid over one engine:

                      batch only    revisit history
    from scratch      hc-sep        hc-acc
    incremental       ihc           ihc-re

* incremental -- statistics advance by the batch's count delta, models carry
  over, and the drift skipper (when enabled) decides which attribute models
  retrain.  Otherwise statistics are rebuilt from current (post-repair)
  values, as one delta applied to empty counts, and every model retrains
  from nothing.
* revisit -- detection probes, and repair reaches, every tuple seen so far.
  Otherwise only incoming tuples are detected and repaired; an incremental
  kind still lets prior tuples witness constraint violations.

hc-sep, which neither carries nor revisits history, treats every batch as a
brand-new dataset: statistics and training see the batch alone.  hc-acc
re-detects from scratch, so prior flags are reset while prior repairs carry
forward; ihc-re keeps prior flags, so flagged-but-unrepaired cells re-enter
inference.
"""

from __future__ import annotations

import json
import random
import resource
import time
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from .dc import DenialConstraint
from .detectors import DETECTOR_NAMES, DetectionScope, GroundTruth, run_detectors, truth_ids
from .errors import ConfigError, DataError
from .featurize import DEFAULT_DOMAIN_CAP, DEFAULT_OMEGA, Featurizer
from .models import (
    AttributeModel,
    Hyperparams,
    build_training_set,
    repair_cells,
    train,
)
from .relation import RawBatch, RelationStore, exact_keys
# record_training, should_retrain_ikl/wkl and joint_distribution are the
# gate's reference path; run_batch gates on the kept pair tables instead.
# They stay importable from here for tools that patch the engine by name.
from .skipper import (  # noqa: F401
    SkipperState,
    record_counts,
    record_training,
    should_retrain_ikl,
    should_retrain_wkl,
    verdicts,
)
from .stats import (  # noqa: F401
    EntropyAccumulator,
    StatsStore,
    apply_delta,
    correlation_matrix,
    joint_distribution,
)


class StrategyKind(str, Enum):
    HC_SEP = "hc-sep"
    HC_ACC = "hc-acc"
    IHC = "ihc"
    IHC_RE = "ihc-re"

    @property
    def incremental(self) -> bool:
        """Statistics, models and the drift skipper carry across batches."""
        return self in (StrategyKind.IHC, StrategyKind.IHC_RE)

    @property
    def revisit(self) -> bool:
        """Detection and repair reach every tuple seen so far."""
        return self in (StrategyKind.HC_ACC, StrategyKind.IHC_RE)


SKIP_VARIANTS = ("none", "ikl", "wkl")


@dataclass(frozen=True)
class Strategy:
    """A strategy kind plus every knob the engine reads while running it."""

    kind: StrategyKind
    detectors: tuple[str, ...] = ("null",)
    skip: str = "none"
    epsilon_kl: float = 0.05
    omega: float = DEFAULT_OMEGA
    domain_cap: int = DEFAULT_DOMAIN_CAP
    train_limit: int = 1000
    hyperparams: Hyperparams = Hyperparams()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.skip not in SKIP_VARIANTS:
            raise ConfigError(f"unknown skip variant {self.skip!r}")
        if not all(type(value) is int for value in (self.domain_cap, self.train_limit, self.seed)):
            raise ConfigError("domain cap, training limit and seed must be integers")
        if not all(type(value) in (int, float) for value in (self.omega, self.epsilon_kl)):
            raise ConfigError("omega and epsilon must be numbers")  # JSON's false is not 0
        if not self.kind.incremental and self.skip != "none":
            raise ConfigError(
                f"{self.kind.value} always retrains; skip must be 'none'"
            )
        if not self.detectors:
            raise ConfigError("at least one detector is required")
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ConfigError(f"unknown detector {name!r}")
        if not 0.0 <= self.omega < 1.0:
            raise ConfigError(f"omega must lie in [0, 1), got {self.omega}")
        if not self.epsilon_kl >= 0:  # NaN too; inf stays legal
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon_kl}")
        if self.domain_cap < 1:
            raise ConfigError(f"domain cap must be >= 1, got {self.domain_cap}")
        if self.train_limit < 1:
            raise ConfigError(f"training limit must be >= 1, got {self.train_limit}")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["kind"] = self.kind.value
        payload["detectors"] = list(self.detectors)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Strategy":
        """The inverse of `to_dict`: a missing or unknown key is a DataError, so
        a missing setting never falls back to its default."""
        exact_keys(payload, [f.name for f in fields(cls)], "strategy")
        exact_keys(payload["hyperparams"], [f.name for f in fields(Hyperparams)], "hyperparams")
        data = dict(payload, kind=StrategyKind(payload["kind"]))
        data["detectors"] = tuple(data["detectors"])
        data["hyperparams"] = Hyperparams(**data["hyperparams"])
        return cls(**data)


@dataclass
class BatchReport:
    """Everything one processed batch reports to the metrics stream.

    Wall-clock timings and the process's peak resident memory so far (in
    KiB) stay out of the serialized line by default so that a fixed
    configuration and seed reproduce the stream byte for byte.
    """

    batch: int
    tuples_seen: int
    cells_flagged: int
    dirty_pool: int
    probe_cells: int
    cum_probe_cells: int
    repairs_attempted: int
    repairs_changed: int
    repairs_skipped_singleton: int
    repairs_correct: int | None
    cum_repairs_changed: int
    cum_repairs_correct: int | None
    true_errors_so_far: int | None
    remaining_errors: int | None
    attrs_retrained: tuple[str, ...]
    training_instances: int
    cum_training_instances: int
    peak_rss_kb: int
    timings_s: dict[str, float] = field(default_factory=dict)

    def to_json_line(self, include_timings: bool = False) -> str:
        payload = asdict(self)
        del payload["timings_s"], payload["peak_rss_kb"]
        payload["attrs_retrained"] = list(self.attrs_retrained)
        if include_timings:
            payload["timings_s"] = {k: round(v, 6) for k, v in self.timings_s.items()}
            payload["peak_rss_kb"] = self.peak_rss_kb
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class RunState:
    """Everything a strategy carries from one batch to the next.

    With ground truth attached, `truth` holds its value ids in the store's
    dtype, a row per ground-truth row, filled as tuples arrive (`fill_truth`);
    a string no batch has issued is -1, which equals no cell's id, and
    `unissued[attr]` lists the tids whose truth is -1 in `attr`.  The
    perfect detector, the correct-repair count and the error counters read it.
    """

    def __init__(
        self,
        store: RelationStore,
        strategy: Strategy,
        dcs: Sequence[DenialConstraint] = (),
        ground_truth: GroundTruth | None = None,
        *,
        attach: bool = True,
    ):
        """`attach=False` defers the inputs, and their check, to a later
        `attach_inputs` call: a run restored from a snapshot has none yet."""
        self.store = store
        self.strategy = strategy
        self.dcs: tuple[DenialConstraint, ...] = ()
        self.ground_truth: GroundTruth | None = None
        self.truth: np.ndarray | None = None
        if attach:
            self.attach_inputs(dcs, ground_truth)
        n_attrs = store.schema.n_attrs
        self.stats = StatsStore(n_attrs)
        self.entropy = EntropyAccumulator(n_attrs)
        self.models = [AttributeModel.fresh(attr, n_attrs) for attr in range(n_attrs)]
        self.skipper = SkipperState()
        self.batches_done = 0
        self.cum_probe_cells = 0
        self.cum_training_instances = 0
        self.cum_repairs_changed = 0
        self.cum_repairs_correct = 0

    def attach_inputs(
        self,
        dcs: Sequence[DenialConstraint] = (),
        ground_truth: GroundTruth | None = None,
    ) -> None:
        """Attach the unserializable inputs; look up the stored tuples' truth."""
        if "dc" in self.strategy.detectors and not dcs:
            raise ConfigError("the dc detector is enabled but no constraints were provided")
        if "perfect" in self.strategy.detectors and ground_truth is None:
            raise ConfigError("the perfect detector is enabled but no ground truth was provided")
        self.dcs = tuple(dcs)
        self.ground_truth = ground_truth
        self.truth = None
        if ground_truth is not None:
            shape = (len(ground_truth), self.store.n_attrs)
            self.truth = np.full(shape, -1, self.store.values.dtype)
            self.unissued = [np.empty(0, dtype=np.int64)] * self.store.n_attrs
            self.fill_truth(range(self.store.n_tuples))

    def fill_truth(self, tids: range) -> None:
        """Look up the truth of tuples `tids`, then the `unissued` cells before
        them again: the batch that brought `tids` may issue their strings."""
        store, truth, rows = self.store, self.truth, self.ground_truth
        truth[tids.start : tids.stop] = truth_ids(store, rows, tids)
        for attr, again in enumerate(self.unissued):
            truth[again, attr] = store.interner.lookup_column(attr, [rows[t][attr] for t in again])
            arrived = tids.start + np.flatnonzero(truth[tids.start : tids.stop, attr] < 0)
            self.unissued[attr] = np.concatenate([again[truth[again, attr] < 0], arrived])


def _scope_for(strategy: Strategy, incoming: range, everything: range) -> DetectionScope:
    if strategy.kind.revisit:
        return DetectionScope.over(everything)
    # prior tuples only ever witness constraint violations
    witnesses = strategy.kind.incremental and "dc" in strategy.detectors
    prior = range(everything.start, incoming.start) if witnesses else ()
    return DetectionScope.over(incoming, reference=prior)


def _training_rng(seed: int, batch: int, attr: int) -> random.Random:
    return random.Random(seed * 1_000_003 + batch * 1_009 + attr)


def run_batch(state: RunState, strategy: Strategy, raw: RawBatch) -> BatchReport:
    """Process one batch under the given strategy and report what happened."""
    if strategy != state.strategy:
        raise ConfigError("strategy does not match the state it would resume")
    store = state.store
    kind = strategy.kind
    n_attrs = store.schema.n_attrs
    truth = state.truth
    timings: dict[str, float] = {}

    incoming = store.append_batch(raw)
    everything = range(store.n_tuples)
    # hc-sep alone neither carries nor revisits history: it sees its batch only
    isolated = not (kind.incremental or kind.revisit)

    # -- the truth of the incoming tuples -----------------------------------
    started = time.perf_counter()
    if truth is not None:
        state.fill_truth(incoming)
    timings["evaluate"] = time.perf_counter() - started

    # -- detection -----------------------------------------------------------
    started = time.perf_counter()
    if kind.revisit and not kind.incremental:
        store.reset_dirty()
    scope = _scope_for(strategy, incoming, everything)
    dirty = run_detectors(store, scope, strategy.detectors, dcs=state.dcs, ground_truth=truth)
    cells_flagged = store.mark_dirty(dirty)
    probe_cells = len(scope.probe) * n_attrs
    state.cum_probe_cells += probe_cells
    timings["detect"] = time.perf_counter() - started

    # -- statistics ----------------------------------------------------------
    started = time.perf_counter()
    rows = store.first_seen[incoming.start : incoming.stop]
    if not kind.incremental:
        # rebuilt from empty counts along the same delta path; hc-acc
        # recounts every tuple's current value
        state.stats = StatsStore(n_attrs)
        state.entropy = EntropyAccumulator(n_attrs)
        if kind.revisit:
            rows = store.values
    _count(state, rows)
    correlations = correlation_matrix(state.stats, state.entropy)
    featurizer = Featurizer(
        state.stats, correlations, strategy.omega, strategy.domain_cap
    )
    timings["stats"] = time.perf_counter() - started

    # -- drift gate ----------------------------------------------------------
    started = time.perf_counter()
    use_skipper = strategy.skip != "none"
    to_train = list(range(n_attrs))
    if use_skipper:
        gate = verdicts(
            state.skipper, state.stats, strategy.skip, correlations, strategy.epsilon_kl
        )
        to_train = [attr for attr in to_train if gate[attr][0]]
    timings["gate"] = time.perf_counter() - started

    # -- training ------------------------------------------------------------
    started = time.perf_counter()
    if not kind.incremental:
        state.models = [AttributeModel.fresh(attr, n_attrs) for attr in range(n_attrs)]
    training_instances = 0
    retrained: list[int] = []
    timings["featurize"] = timings["fit"] = 0.0  # the sample draw is featurize's
    for attr in to_train:
        rng = _training_rng(strategy.seed, raw.k, attr)
        split = time.perf_counter()
        examples = build_training_set(
            store,
            attr,
            featurizer,
            strategy.train_limit,
            rng,
            tids=incoming if isolated else None,
        )
        timings["featurize"] += time.perf_counter() - split
        if not examples:
            continue
        split = time.perf_counter()
        train(state.models[attr], examples, strategy.hyperparams)
        timings["fit"] += time.perf_counter() - split
        training_instances += len(examples)
        retrained.append(attr)
        del examples  # free this attribute's block before featurizing the next one
    if use_skipper:
        record_counts(state.skipper, state.stats, retrained, raw.k)
    state.cum_training_instances += training_instances
    timings["train"] = time.perf_counter() - started

    # -- repair ----------------------------------------------------------------
    started = time.perf_counter()
    pool = store.dirty_cells(None if kind.revisit else incoming)
    proposals, skipped_singleton = repair_cells(state.models, pool, store, featurizer)

    repairs_correct: int | None = None
    if truth is not None:
        tid, attr, vid = proposals.T
        moved = vid != store.values[tid, attr]
        repairs_correct = int(np.count_nonzero(moved & (vid == truth[tid, attr])))
        state.cum_repairs_correct += repairs_correct
    repairs_changed = store.apply_repairs(proposals)
    state.cum_repairs_changed += repairs_changed
    timings["repair"] = time.perf_counter() - started

    # error counters: seen cells wrong as first seen, and wrong now
    errors = [None, None] if truth is None else [
        int(np.count_nonzero(ids != truth[: len(ids)])) for ids in (store.first_seen, store.values)
    ]

    state.batches_done = raw.k
    return BatchReport(
        batch=raw.k,
        tuples_seen=store.n_tuples,
        cells_flagged=cells_flagged,
        dirty_pool=len(pool),
        probe_cells=probe_cells,
        cum_probe_cells=state.cum_probe_cells,
        repairs_attempted=len(proposals),
        repairs_changed=repairs_changed,
        repairs_skipped_singleton=skipped_singleton,
        repairs_correct=repairs_correct,
        cum_repairs_changed=state.cum_repairs_changed,
        cum_repairs_correct=state.cum_repairs_correct if truth is not None else None,
        true_errors_so_far=errors[0],
        remaining_errors=errors[1],
        attrs_retrained=tuple(store.schema.attributes[attr] for attr in retrained),
        training_instances=training_instances,
        cum_training_instances=state.cum_training_instances,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        timings_s=timings,
    )


def _count(state: RunState, rows: Sequence[Sequence[int]]) -> None:
    """Count a batch's rows into the statistics and entropy sums.  The drift
    gate needs no upkeep here: it keeps copies of the pair tables its
    attributes trained on."""
    apply_delta(state.entropy, state.stats, state.stats.ingest(rows))


def recount(state: RunState) -> None:
    """Rebuild an incremental run's statistics, entropy sums and drift-gate
    reference from its store, as `run_batch` built them: batch by batch from
    the rows as first seen, recording each attribute's reference at the batch
    it last trained.  The other kinds rebuild their statistics every batch, so
    they carry none between batches.

    Expects fresh statistics and a gate that holds only `last_trained`.
    """
    if not state.strategy.kind.incremental:
        return
    store = state.store
    for k in range(1, state.batches_done + 1):
        tids = store.batch_tids(k)
        _count(state, store.first_seen[tids.start : tids.stop])
        trained = sorted(attr for attr, batch in state.skipper.last_trained.items() if batch == k)
        record_counts(state.skipper, state.stats, trained, k)


def run_stream(
    state: RunState,
    strategy: Strategy,
    batches: Iterable[RawBatch],
    metrics_stream: IO[str] | None = None,
    include_timings: bool = False,
) -> list[BatchReport]:
    """Process batches in order, optionally writing one JSON line per batch."""
    reports = []
    for raw in batches:
        report = run_batch(state, strategy, raw)
        if metrics_stream is not None:
            metrics_stream.write(report.to_json_line(include_timings) + "\n")
        reports.append(report)
    return reports


def score(
    current: Sequence[Sequence[str | None]] | np.ndarray,
    original: Sequence[Sequence[str | None]] | np.ndarray,
    truth: Sequence[Sequence[str | None]] | np.ndarray,
) -> dict:
    """Repair quality over aligned rows of current, pre-repair and true values,
    given as strings (None for null) or as value ids.

    A cell counts as a changed repair when its current value differs from its
    original, and as correct when it now matches the truth.  Recall is
    measured against every cell whose original value was wrong.
    """
    current, original, truth = map(np.asarray, (current, original, truth))
    moved = current != original
    changed, correct, true_errors, remaining = (
        int(np.count_nonzero(cells))
        for cells in (moved, moved & (current == truth), original != truth, current != truth)
    )
    precision = correct / changed if changed else 0.0
    recall = correct / true_errors if true_errors else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "true_errors": true_errors,
        "remaining_errors": remaining,
        "repairs_changed": changed,
        "repairs_correct": correct,
    }


def evaluate(store: RelationStore, ground_truth: GroundTruth) -> dict:
    """Net repair quality (`score`) of the store's current contents."""
    if len(ground_truth) != store.n_tuples:
        raise DataError(f"ground truth has {len(ground_truth)} rows, store has {store.n_tuples}")
    truth = truth_ids(store, ground_truth, range(store.n_tuples))
    return score(store.values, store.first_seen, truth)
