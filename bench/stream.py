"""One measured stream of one workload, in a fresh single-threaded process.

    python3 bench/stream.py --workdir DIR --workload NAME --seed N [--trace]

Reads the inputs that bench/run.py generated into DIR, sets up repeatedly,
cleans the stream once in a closed loop (the next batch is submitted only
after `run_batch` returns), checks the outputs and prints one JSON object
as its last stdout line.  With --trace the engine's layers are wrapped by
bench/tracing.py and the per-layer metrics are included.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one thread per run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from increpair import dc as dc_module  # noqa: E402
from increpair import pipeline, relation, snapshot  # noqa: E402
from increpair.models import Hyperparams  # noqa: E402
from increpair.stats import scratch_accumulator  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    BATCHES,
    EPOCHS,
    EPSILON_KL,
    LEARNING_RATE,
    TRAIN_LIMIT,
    WORKLOADS,
)

ENTROPY_TOLERANCE = 1e-9
# Traced span totals may cover no less than this share of a stage's own timer.
MIN_STAGE_COVERAGE = 0.5
# Stages shorter than this over the whole stream are too small to cross-check.
MIN_CHECKED_STAGE_S = 0.05
MAX_SETUPS = 500


def strategy_for(workload, seed: int) -> pipeline.Strategy:
    return pipeline.Strategy(
        kind=pipeline.StrategyKind(workload.kind),
        detectors=workload.detectors,
        skip=workload.skip,
        epsilon_kl=EPSILON_KL,
        train_limit=TRAIN_LIMIT,
        hyperparams=Hyperparams(epochs=EPOCHS, learning_rate=LEARNING_RATE),
        seed=seed,
    )


def set_up(workload, workdir: Path, seed: int):
    """Everything before batch 1: load, parse, batch, construct the run state."""
    schema, rows = relation.load_csv(workdir / "dirty.csv")
    truth = None
    if workload.truth_in_state:
        _, truth = relation.load_csv(workdir / "truth.csv")
    dcs = dc_module.parse_dc_file(workdir / "rules.dc", schema) if workload.dcs else []
    batches = relation.make_batches(rows, count=BATCHES)
    strategy = strategy_for(workload, seed)
    state = pipeline.RunState(relation.RelationStore(schema), strategy, dcs, truth)
    return state, strategy, batches


def stream_metrics(batch_s: list[float]) -> dict[str, float]:
    """Per-batch timing summaries of one stream (see bench/README.md)."""
    n = len(batch_s)
    ordered = sorted(batch_s)
    quarter = n // 4
    first = batch_s[1:quarter]  # batch 1 trains every model from nothing
    last = batch_s[n - quarter :]
    return {
        "batch_p50_s": statistics.median(batch_s),
        # the highest percentile with at least ten batches beyond it
        "batch_tail_s": ordered[max(0, n - 11)],
        "batch_growth": statistics.median(last) / statistics.median(first),
    }


def entropy_drift(state) -> float:
    """Largest |incremental - scratch| conditional entropy over ordered pairs."""
    scratch = scratch_accumulator(state.stats)
    n_attrs = state.stats.n_attrs
    return max(
        abs(state.entropy.value(x, y) - scratch.value(x, y))
        for x in range(n_attrs)
        for y in range(n_attrs)
        if x != y
    )


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    meta = json.loads((workdir / "meta.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # Set up repeatedly for a while, so the median spans more than a moment
    # of a machine whose speed drifts; only the last set-up is kept.
    setup_s = []
    state = None
    while len(setup_s) < args.min_setups or (
        sum(setup_s) < args.setup_seconds and len(setup_s) < MAX_SETUPS
    ):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        started = perf_counter()
        state, strategy, batches = set_up(workload, workdir, args.seed)
        setup_s.append(perf_counter() - started)

    reports, batch_s, failures = [], [], []
    stream_started = perf_counter()
    for raw in batches:
        if tracer is not None:
            tracer.request = raw.k
        started = perf_counter()
        try:
            report = pipeline.run_batch(state, strategy, raw)
        except Exception:  # a raising batch fails, and the stream cannot go on
            traceback.print_exc()
            failures.append(f"batch {raw.k} raised")
            break
        batch_s.append(perf_counter() - started)
        reports.append(report)
    clean_s = perf_counter() - stream_started
    attempted = len(reports) + len(failures)
    # high-water mark of set-up plus stream, before the checks load more
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": statistics.median(setup_s), "clean_s": clean_s}
    if tracer is not None:
        tracer.request = -1
        snap = workdir / "traced-snapshot.json"
        snapshot.save_run(state, snap)
        snapshot.load_run(snap)
        snapshot_bytes = snap.stat().st_size
        snap.unlink()
        tracer.uninstall()

    if not failures:
        drift = entropy_drift(state)
        if not drift <= ENTROPY_TOLERANCE:
            failures.append(f"incremental entropy differs from scratch by {drift!r}")
        _, truth = relation.load_csv(workdir / "truth.csv")
        summary = pipeline.evaluate(state.store, truth)
        if summary["true_errors"] != meta["injected"]:
            failures.append(
                f"{summary['true_errors']} wrong cells after loading, {meta['injected']} injected"
            )
        repaired = workdir / f"repaired-{os.getpid()}.csv"
        state.store.export_csv(repaired)
        csv_bytes = repaired.read_bytes()
        repaired.unlink()
        lines = "".join(report.to_json_line() + "\n" for report in reports)
        result.update(stream_metrics(batch_s))
        result.update(
            f1=summary["f1"],
            remaining_errors=summary["remaining_errors"],
            csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
            stream_sha256=hashlib.sha256(csv_bytes + lines.encode()).hexdigest(),
            entropy_drift=drift,
        )
        if tracer is not None:
            failures.extend(cross_check(tracer, reports))
            result["layers"] = layer_metrics(
                tracer, reports, state.stats.live_bytes(), snapshot_bytes
            )
            trace_dir = ROOT / ".bench_work" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.tsv")

    result.update(
        attempted=attempted,
        # a stream whose end-of-stream checks fail has every batch unverified
        failed=attempted if failures else 0,
        failures=failures,
        peak_rss_mb=peak_rss_mb,
    )
    return result


def cross_check(tracer, reports) -> list[str]:
    """Compare traced span totals per stage against `BatchReport.timings_s`."""
    covered = tracer.stage_coverage()
    failures = []
    for stage, spans_s in sorted(covered.items()):
        timed_s = sum(report.timings_s[stage] for report in reports)
        share = spans_s / timed_s if timed_s else float("inf")
        print(f"trace: stage {stage} spans {spans_s:.4f}s of timer {timed_s:.4f}s", file=sys.stderr)
        if share > 1.0 + 1e-6 or (timed_s >= MIN_CHECKED_STAGE_S and share < MIN_STAGE_COVERAGE):
            failures.append(
                f"traced spans cover {spans_s:.4f}s of stage {stage}, timed at {timed_s:.4f}s"
            )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--min-setups", type=int, default=5)
    parser.add_argument("--setup-seconds", type=float, default=2.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
