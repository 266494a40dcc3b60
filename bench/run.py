"""Stream-cleaning benchmark for increpair.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then cleans the stream in
fresh child processes (bench/stream.py), one at a time.  Untraced, it keeps
starting streams while another one still fits in S seconds (always at least
one) and reports the median of each end-to-end metric over them.  Traced,
it runs one untraced and one traced stream on the same inputs and reports
the per-layer metrics plus the tracing overhead.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import ERROR_RATE, WORKLOADS  # noqa: E402

# A child still running this long after the run started is killed, so the
# run ends in time.
RUN_DEADLINE_S = 170.0
# No further stream starts once this much of the run has passed.
RUN_LIMIT_S = 150.0


def import_engine():
    """The engine under test, from this checkout's src/ and nowhere else."""
    try:
        import increpair
        from increpair.inject import inject_errors
    except ImportError as exc:
        sys.exit(f"bench: cannot import the engine from {ROOT / 'src'}: {exc}")
    origin = Path(increpair.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        sys.exit(f"bench: increpair was imported from {origin}, not from {ROOT / 'src'}")
    return increpair, inject_errors


def write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{i}" for i in range(len(rows[0]))])
        writer.writerows([["" if v is None else v for v in row] for row in rows])


def generate(workload, seed: int, workdir: Path, inject_errors) -> None:
    """Write the workload's dirty CSV, truth CSV, constraints and metadata."""
    truth = workload.clean_rows(seed)
    dirty, provenance = inject_errors(truth, ERROR_RATE, seed=seed + 1)
    write_csv(workdir / "truth.csv", truth)
    write_csv(workdir / "dirty.csv", dirty)
    if workload.dcs:
        (workdir / "rules.dc").write_text(workload.dcs, encoding="utf-8")
    (workdir / "meta.json").write_text(
        json.dumps({"injected": len(provenance)}), encoding="utf-8"
    )


def run_child(workload: str, seed: int, workdir: Path, trace: bool, deadline: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "stream.py"),
        "--workdir",
        str(workdir),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if trace:
        # one set-up, so the traced load_csv time is that of one set-up
        command += ["--trace", "--min-setups", "1", "--setup-seconds", "0"]
    try:
        done = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=False,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {workload} stream did not finish within {RUN_DEADLINE_S:.0f}s of the run")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench: {workload} stream exited with {done.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """sha256 over the engine's sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(increpair, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "increpair": increpair.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def output_failures(workload: str, seed: int, streams: list[dict]) -> list[str]:
    """Every stream's own check failures, digest disagreements between streams,
    and disagreements with the recorded digests of this workload and seed."""
    failures = [f for stream in streams for f in stream["failures"]]
    if failures:
        return failures
    keys = ("csv_sha256", "stream_sha256", "f1", "remaining_errors")
    outputs = {tuple(stream[key] for key in keys) for stream in streams}
    if len(outputs) > 1:
        failures.append(f"streams of one seed disagree: {sorted(outputs)}")
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    expected = golden.get(workload, {}).get(str(seed))
    if expected is not None:
        for key, value in expected.items():
            if streams[0][key] != value:
                failures.append(f"{key} is {streams[0][key]!r}, recorded {value!r}")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    increpair, inject_errors = import_engine()
    started = time.monotonic()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        generate(WORKLOADS[args.workload], args.seed, workdir, inject_errors)
        measuring = time.monotonic()
        deadline = started + RUN_DEADLINE_S
        if args.trace:
            streams = [
                run_child(args.workload, args.seed, workdir, False, deadline),
                run_child(args.workload, args.seed, workdir, True, deadline),
            ]
        else:
            streams = []
            while True:
                began = time.monotonic()
                streams.append(run_child(args.workload, args.seed, workdir, False, deadline))
                now = time.monotonic()
                took = now - began
                if now + took > min(measuring + args.seconds, started + RUN_LIMIT_S):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = output_failures(args.workload, args.seed, streams)
    attempted = sum(stream["attempted"] for stream in streams)
    if args.trace:
        untraced, traced = streams
        listed = spec["per_layer"]
        values = dict(traced.get("layers", {}))
        # Per-batch summaries move more between runs than any end-to-end
        # bound allows, so they are reported here, from the untraced stream.
        for name in ("batch_p50_s", "batch_tail_s", "batch_growth"):
            values[name] = untraced.get(name)
        values["trace.overhead"] = traced["clean_s"] / untraced["clean_s"]
    else:
        listed = spec["end_to_end"]
        values = {
            m["name"]: statistics.median(stream[m["name"]] for stream in streams)
            for m in listed
            if all(m["name"] in stream for stream in streams)
        }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
        if values.get(m["name"]) is not None
    }
    info = {
        "workload": args.workload,
        "streams": len(streams),
        "csv_sha256": streams[0].get("csv_sha256"),
        "stream_sha256": streams[0].get("stream_sha256"),
        "failures": failures,
        "environment": environment(increpair, args.seed),
    }
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                # a stream with any failed check has every batch unverified
                "failed": attempted if failures else 0,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
