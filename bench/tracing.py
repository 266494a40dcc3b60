"""Tracing of the engine's layers by monkeypatching, from outside the engine.

`Tracer.install` wraps public functions and methods of each module from the
outside: every call records a span (name, start, end, parent span, request)
and may bump counters from its arguments and result.  `pipeline` imports its
callees by name, so those are patched where they are called
(`increpair.pipeline.apply_delta`, not `increpair.stats.apply_delta`), while
methods are patched on their classes.  Spans stay in memory until the run
ends; `layer_metrics` folds them into per-layer self times.
"""

from __future__ import annotations

import functools
from collections import Counter
from pathlib import Path
from time import perf_counter

from increpair import detectors, pipeline, relation, snapshot
from increpair.detectors import DetectionScope
from increpair.featurize import Featurizer
from increpair.relation import RelationStore
from increpair.stats import StatsStore


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` with a span-recording wrapper.

        `count(counts, args, result)` runs after the call, outside the span.
        """
        original = getattr(owner, attr)
        saved = vars(owner)[attr]  # restored as found, classmethods included
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, saved))

    def install(self) -> None:
        wrap = self.wrap
        wrap(relation, "load_csv", "relation.load_csv")
        wrap(RelationStore, "append_batch", "relation.append_batch")
        wrap(RelationStore, "mark_dirty", "relation.mark_dirty")
        wrap(RelationStore, "dirty_cells", "relation.dirty_cells")
        wrap(RelationStore, "trainable_tids", "relation.trainable_tids")
        wrap(RelationStore, "apply_repairs", "relation.apply_repairs", _count_changed)
        wrap(pipeline, "run_batch", "pipeline.run_batch")
        wrap(DetectionScope, "over", "detectors.scope")
        wrap(pipeline, "run_detectors", "detectors.run", _count_detected)
        wrap(detectors, "violations", "dc.violations", _count_groups)
        wrap(StatsStore, "ingest", "stats.ingest", _count_delta)
        wrap(pipeline, "apply_delta", "stats.apply_delta")
        wrap(pipeline, "correlation_matrix", "stats.correlation")
        wrap(pipeline, "joint_distribution", "stats.joint")
        wrap(Featurizer, "domain", "featurize.domain", _count_domain)
        wrap(Featurizer, "tensor", "featurize.tensor")
        wrap(pipeline, "build_training_set", "models.build_training_set", _count_examples)
        wrap(pipeline, "train", "models.train")
        wrap(pipeline, "repair_cells", "models.repair_cells", _count_proposals)
        wrap(pipeline, "should_retrain_ikl", "skipper.decide", _count_decision)
        wrap(pipeline, "should_retrain_wkl", "skipper.decide", _count_decision)
        wrap(pipeline, "record_training", "skipper.record")
        wrap(snapshot, "save_run", "snapshot.save")
        wrap(snapshot, "load_run", "snapshot.load")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, saved = self._patched.pop()
            setattr(owner, attr, saved)

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] += end - start - covered
        return out

    def stage_coverage(self) -> dict[str, float]:
        """Seconds of direct children of `run_batch`, summed per pipeline stage."""
        roots = {
            i for i, span in enumerate(self.spans) if span[0] == "pipeline.run_batch"
        }
        covered: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent in roots and name in STAGE_OF:
                covered[STAGE_OF[name]] += end - start
        return dict(covered)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\trequest\n")
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


# Which `BatchReport.timings_s` stage each direct child of run_batch runs in.
STAGE_OF = {
    "detectors.scope": "detect",
    "detectors.run": "detect",
    "relation.mark_dirty": "detect",
    "stats.ingest": "stats",
    "stats.apply_delta": "stats",
    "stats.correlation": "stats",
    "stats.joint": "train",
    "skipper.decide": "train",
    "models.build_training_set": "train",
    "models.train": "train",
    "skipper.record": "train",
    "relation.dirty_cells": "repair",
    "models.repair_cells": "repair",
    "relation.apply_repairs": "repair",
}


def _count_changed(counts, args, result):
    counts["repairs_changed"] += result


def _count_detected(counts, args, result):
    store, scope = args[0], args[1]
    counts["cells_flagged"] += len(result)
    counts["probe_cells"] += len(scope.probe) * store.n_attrs


def _count_groups(counts, args, result):
    counts["violation_groups"] += len(result)


def _count_delta(counts, args, result):
    counts["delta_pairs"] += sum(len(changed) for changed in result.pairs.values())


def _count_domain(counts, args, result):
    counts["domains"] += 1
    counts["domain_values"] += result.size
    counts["singletons"] += result.size < 2


def _count_examples(counts, args, result):
    counts["examples"] += len(result)


def _count_proposals(counts, args, result):
    counts["repairs_attempted"] += len(result[0])


def _count_decision(counts, args, result):
    counts["decisions"] += 1
    counts["retrains_fired"] += bool(result[0])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, reports, live_bytes: int, snapshot_bytes: int) -> dict:
    """Per-layer metrics of one traced stream, by the names BENCHMARK.json lists."""
    own = tracer.self_times()
    c = tracer.counts
    seconds = {
        f"{span}_s": own[span]
        for span in (
            "relation.load_csv",
            "relation.append_batch",
            "relation.mark_dirty",
            "relation.dirty_cells",
            "relation.trainable_tids",
            "relation.apply_repairs",
            "detectors.scope",
            "detectors.run",
            "dc.violations",
            "stats.ingest",
            "stats.apply_delta",
            "stats.correlation",
            "stats.joint",
            "featurize.domain",
            "featurize.tensor",
            "models.build_training_set",
            "models.train",
            "models.repair_cells",
            "skipper.decide",
            "skipper.record",
            "snapshot.save",
            "snapshot.load",
        )
    }
    return {
        **seconds,
        "pipeline.run_batch_self_s": own["pipeline.run_batch"],
        "pipeline.evaluate_s": sum(report.timings_s["evaluate"] for report in reports),
        "detectors.cells_flagged": c["cells_flagged"],
        "detectors.probe_cells": c["probe_cells"],
        "dc.violation_groups": c["violation_groups"],
        "stats.delta_pairs": c["delta_pairs"],
        "stats.live_bytes": live_bytes,
        "featurize.cells": c["domains"],
        "featurize.mean_domain": _ratio(c["domain_values"], c["domains"]),
        "featurize.singleton_frac": _ratio(c["singletons"], c["domains"]),
        "models.examples": c["examples"],
        "models.repair_yield": _ratio(c["repairs_changed"], c["repairs_attempted"]),
        "skipper.retrain_ratio": _ratio(c["retrains_fired"], c["decisions"]),
        "snapshot.bytes": snapshot_bytes,
    }
