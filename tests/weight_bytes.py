"""Weight byte check: the sha256 of the final trained weights of every
benchmark workload's stream, on seed 1 and on the held-out seed.

    python3 tests/weight_bytes.py            # rewrite tests/weight_bytes.json
    python3 tests/weight_bytes.py --check    # compare against it; exit 1 on a mismatch

For each workload of bench/workloads.py the inputs are generated as
bench/run.py generates them, set up as bench/stream.py sets them up and
cleaned batch by batch through `run_batch`, on one BLAS thread as the
benchmark runs (importing bench/run.py pins it); the digest hashes every
attribute model's float64 weights, concatenated in attribute order.  The
other byte gates run small streams, or hash only repaired CSVs and metric
lines, so a change of the trained weights at benchmark scale passes them.

A change that must keep the fit bit for bit passes `--check` against digests
taken before it.  Not collected by pytest: it runs six benchmark streams.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import generate, import_engine  # noqa: E402
from stream import set_up  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

from increpair import pipeline  # noqa: E402

DIGESTS = HERE / "weight_bytes.json"
SEEDS = (1, HELD_OUT_SEED)


def digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    _, inject_errors = import_engine()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        generate(workload, seed, workdir, inject_errors)
        state, strategy, batches = set_up(workload, workdir, seed)
    for raw in batches:
        pipeline.run_batch(state, strategy, raw)
    weights = b"".join(model.weights.tobytes() for model in state.models)
    return hashlib.sha256(weights).hexdigest()


def compute() -> dict[str, str]:
    return {
        f"{name}/seed{seed}": digest(name, seed) for name in WORKLOADS for seed in SEEDS
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
        print(f"weight digest moved: {label}")
    print(f"{len(digests) - len(moved)} of {len(expected)} weight digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_cli())
