"""Check the benchmark's generators against the acceptance tests' generator.

    python3 bench/check_generator.py

`latent_rows` must draw the same rows as `latent_rows` in
tests/test_acceptance.py for equal arguments, so the benchmark's numbers
connect to criterion 7, and `fd_rows` must satisfy c0 -> c1 on clean rows.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import latent_rows as reference  # noqa: E402

from workloads import WORKLOADS, fd_rows, latent_rows  # noqa: E402

CASES = [
    *[(seed, 5000, 8, 60, 25) for seed in range(10)],  # criterion 7
    (99, 1000, 5, 20, 8),  # criterion 9
    (1, 20_000, 8, 60, 25),  # ihc-null-20k
    (1, 20_000, 8, 2000, 1500),  # ihc-gate-wide
]


def main() -> None:
    for args in CASES:
        if latent_rows(*args) != reference(*args):
            sys.exit(f"latent_rows{args} differs from tests/test_acceptance.py")
    for seed in range(5):
        rhs = {}
        for row in fd_rows(seed, 4_000, 6, 60, 25, 50):
            if rhs.setdefault(row[0], row[1]) != row[1]:
                sys.exit(f"fd_rows(seed={seed}) breaks c0 -> c1 at key {row[0]}")
    for name, workload in WORKLOADS.items():
        if workload.clean_rows(3) != workload.clean_rows(3):
            sys.exit(f"{name}: the same seed gave different rows")
    print(f"generators agree with tests/test_acceptance.py on {len(CASES)} argument sets")


if __name__ == "__main__":
    main()
