"""Snapshot byte check: the sha256 of a mid-stream run snapshot per strategy kind,
and a resume from each snapshot against an uninterrupted run.

    python3 tests/snapshot_bytes.py            # rewrite tests/snapshot_bytes.json
    python3 tests/snapshot_bytes.py --check    # compare and resume; exit 1 on a mismatch

Each of hc-sep, hc-acc, ihc+ikl and ihc-re+ikl cleans the first 4 of the 7
batches of `byte_matrix.py`'s stream (seeds 1-2, perfect detector, ground
truth attached) through `increpair clean --snapshot` and hashes the snapshot
file.  The gated kinds run at `--epsilon 0.2`, where every model last trains
at batch 3, so the drift gate `load_run` recounts holds value pairs.  Paths
are passed relative to the work directory, so the configuration echoed into
the snapshot does not depend on where it runs.

`--check` also resumes each snapshot on the whole stream and requires the
repaired CSV, and the metric lines of the first run followed by those of
the resumed one, to equal an uninterrupted run's.

A change to how run state is held in memory that keeps the snapshot layout
(and so `RUN_VERSION`) passes `--check` against digests taken before it.  Not
collected by pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from byte_matrix import BATCHES, N_ROWS, SEEDS, main, write_inputs

DIGESTS = Path(__file__).resolve().parent / "snapshot_bytes.json"
KINDS = {
    "hc-sep": ["--strategy", "hc-sep", "--skip", "none"],
    "hc-acc": ["--strategy", "hc-acc", "--skip", "none"],
    "ihc+ikl": ["--strategy", "ihc", "--skip", "ikl", "--epsilon", "0.2"],
    "ihc-re+ikl": ["--strategy", "ihc-re", "--skip", "ikl", "--epsilon", "0.2"],
}
PREFIX_BATCHES = 4
BATCH_SIZE = N_ROWS // BATCHES


def write_prefix(source: str, target: str) -> None:
    lines = Path(source).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(target).write_text("".join(lines[: 1 + PREFIX_BATCHES * BATCH_SIZE]), encoding="utf-8")


def clean(argv: list[str]) -> None:
    with redirect_stderr(io.StringIO()) as log:
        code = main(["clean"] + argv)
    if code != 0:
        raise SystemExit(f"clean exited {code}: {log.getvalue()}")


def settings(seed: int, flags: list[str]) -> list[str]:
    return flags + ["--detectors", "perfect", "--batch-size", str(BATCH_SIZE), "--seed", str(seed)]


def digest(seed: int, flags: list[str]) -> str:
    clean(
        settings(seed, flags)
        + ["--input", f"head{seed}.csv", "--ground-truth", f"truth-head{seed}.csv"]
        + ["--metrics", "head.jsonl", "--snapshot", "snap.json"]
    )
    return hashlib.sha256(Path("snap.json").read_bytes()).hexdigest()


def resume_departure(seed: int, flags: list[str]) -> str | None:
    """How resuming the last snapshot on the whole stream departs from an
    uninterrupted run, or None if it does not."""
    whole = settings(seed, flags) + ["--input", f"dirty{seed}.csv", "--ground-truth", f"truth{seed}.csv"]
    clean(whole + ["--out", "straight.csv", "--metrics", "straight.jsonl"])
    clean(whole + ["--resume", "snap.json", "--out", "resumed.csv", "--metrics", "resumed.jsonl"])
    if Path("resumed.csv").read_bytes() != Path("straight.csv").read_bytes():
        return "its repaired CSV differs"
    lines = Path("head.jsonl").read_bytes() + Path("resumed.jsonl").read_bytes()
    if lines != Path("straight.jsonl").read_bytes():
        return "its metric lines differ"
    return None


def compute(resume: bool) -> tuple[dict[str, str], list[str]]:
    """Snapshot digests by label and, when resuming, how each resume departed."""
    start = os.getcwd()
    digests, departures = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                write_inputs(Path(tmp), seed)
                write_prefix(f"dirty{seed}.csv", f"head{seed}.csv")
                write_prefix(f"truth{seed}.csv", f"truth-head{seed}.csv")
            for seed in SEEDS:
                for name, flags in KINDS.items():
                    label = f"seed{seed}/{name}"
                    digests[label] = digest(seed, flags)
                    departure = resume_departure(seed, flags) if resume else None
                    if departure:
                        departures.append(f"resumed {label}: {departure}")
        finally:
            os.chdir(start)
    return digests, departures


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare against the committed digests"
    )
    args = parser.parse_args(argv)
    digests, departures = compute(resume=args.check)
    if not args.check:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = sorted(
        label
        for label in expected.keys() | digests.keys()
        if expected.get(label) != digests.get(label)
    )
    for label in moved:
        print(f"snapshot digest moved: {label}")
    print(f"{len(digests) - len(moved)} of {len(expected)} snapshot digests match")
    for departure in departures:
        print(departure)
    print(f"{len(digests) - len(departures)} of {len(digests)} resumes match an uninterrupted run")
    return 1 if moved or departures else 0


if __name__ == "__main__":
    sys.exit(main_cli())
