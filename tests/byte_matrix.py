"""Byte-reproducibility matrix: digests of the engine's outputs over a fixed grid.

    python3 tests/byte_matrix.py            # rewrite tests/byte_matrix.json
    python3 tests/byte_matrix.py --check    # compare against it; exit 1 on a mismatch

Each configuration cleans one seeded stream through `increpair clean` and
hashes its per-batch metric lines followed by the repaired CSV (sha256).  The
grid is seeds 1-2 x {hc-sep, hc-acc, ihc+ikl, ihc+wkl, ihc-re+ikl, ihc-re+none}
x {perfect, null, null+dc}, without hc-sep under null+dc (34 runs), all run
once at the default domain cap and once more at `--domain-cap 3`, where the
cap cuts domains.  The data is 700x5 `fd_rows` from bench/workloads.py with
3 % injected errors, split into 7 batches, with ground truth attached.

A change that must keep the engine's outputs byte for byte passes `--check`
against digests taken before it.  Not collected by pytest: it runs 68
streams.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from increpair.cli import main  # noqa: E402
from increpair.inject import inject_errors  # noqa: E402
from workloads import fd_rows  # noqa: E402

DIGESTS = HERE / "byte_matrix.json"
SEEDS = (1, 2)
STRATEGIES = {
    "hc-sep": ("hc-sep", "none"),
    "hc-acc": ("hc-acc", "none"),
    "ihc+ikl": ("ihc", "ikl"),
    "ihc+wkl": ("ihc", "wkl"),
    "ihc-re+ikl": ("ihc-re", "ikl"),
    "ihc-re+none": ("ihc-re", "none"),
}
DETECTORS = ("perfect", "null", "null,dc")
DOMAIN_CAPS = (None, 3)
RULES = "EQ(t1.c0,t2.c0) & NEQ(t1.c1,t2.c1)\nEQ(t1.c2,t2.c2) & NEQ(t1.c3,t2.c4)\n"
N_ROWS, N_ATTRS, N_PROTOS, VOCAB, N_KEYS = 700, 5, 60, 25, 50
ERROR_RATE = 0.03
BATCHES = 7


def configurations():
    for cap in DOMAIN_CAPS:
        for seed in SEEDS:
            for name, (kind, skip) in STRATEGIES.items():
                for detectors in DETECTORS:
                    if kind == "hc-sep" and detectors == "null,dc":
                        continue
                    label = f"seed{seed}/{name}/{detectors}"
                    if cap is not None:
                        label += f"/cap{cap}"
                    yield label, seed, kind, skip, detectors, cap


def write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{i}" for i in range(N_ATTRS)])
        writer.writerows([["" if v is None else v for v in row] for row in rows])


def write_inputs(workdir: Path, seed: int) -> None:
    truth = fd_rows(seed, N_ROWS, N_ATTRS, N_PROTOS, VOCAB, N_KEYS)
    dirty, _ = inject_errors(truth, ERROR_RATE, seed=seed + 1)
    write_csv(workdir / f"truth{seed}.csv", truth)
    write_csv(workdir / f"dirty{seed}.csv", dirty)


def digest(workdir: Path, seed: int, kind: str, skip: str, detectors: str, cap) -> str:
    out, metrics = workdir / "out.csv", workdir / "metrics.jsonl"
    argv = [
        "clean",
        "--input", str(workdir / f"dirty{seed}.csv"),
        "--ground-truth", str(workdir / f"truth{seed}.csv"),
        "--dcs", str(workdir / "rules.dc"),
        "--strategy", kind,
        "--skip", skip,
        "--detectors", detectors,
        "--batches", str(BATCHES),
        "--seed", str(seed),
        "--out", str(out),
        "--metrics", str(metrics),
    ]
    if cap is not None:
        argv += ["--domain-cap", str(cap)]
    with redirect_stderr(io.StringIO()) as log:
        code = main(argv)
    if code != 0:
        raise SystemExit(f"clean exited {code}: {log.getvalue()}")
    return hashlib.sha256(metrics.read_bytes() + out.read_bytes()).hexdigest()


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "rules.dc").write_text(RULES, encoding="utf-8")
        for seed in SEEDS:
            write_inputs(workdir, seed)
        return {
            label: digest(workdir, seed, kind, skip, detectors, cap)
            for label, seed, kind, skip, detectors, cap in configurations()
        }


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare against the committed digests"
    )
    args = parser.parse_args(argv)
    digests = compute()
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
        print(f"digest moved: {label}")
    print(f"{len(digests) - len(moved)} of {len(expected)} digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_cli())
