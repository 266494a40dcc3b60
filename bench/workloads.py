"""Seeded synthetic streams and the three benchmark workloads.

Each workload is a clean table drawn from a seeded generator, dirtied with
1 % injected errors (`inject_errors`), split into 40 batches and cleaned
under one strategy with criterion 7's training configuration
(`train_limit=400`, `epochs=20`, `lr=0.2`).  The benchmark owns the
generators; the engine only ever sees the CSV files they produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

ERROR_RATE = 0.01
BATCHES = 40
TRAIN_LIMIT = 400
EPOCHS = 20
LEARNING_RATE = 0.2
EPSILON_KL = 0.05

# Claims of a gain must be re-checked on this seed, which no change may be
# tuned on (see bench/README.md).
HELD_OUT_SEED = 20261017


def latent_rows(seed, n_rows, n_attrs, n_protos, vocab):
    """Rows drawn from a fixed pool of prototype tuples.

    Same draws, in the same order, as `latent_rows` in
    tests/test_acceptance.py, so equal arguments give equal rows
    (bench/check_generator.py verifies this).
    """
    rng = random.Random(seed)
    protos = [
        [f"a{a}v{rng.randrange(vocab)}" for a in range(n_attrs)]
        for _ in range(n_protos)
    ]
    return [list(rng.choice(protos)) for _ in range(n_rows)]


def fd_rows(seed, n_rows, n_attrs, n_protos, vocab, n_keys):
    """Latent rows whose c0 is one of `n_keys` keys that determines c1.

    Prototype i takes key i mod `n_keys` for c0 and that key's seeded
    right-hand value for c1, and draws the remaining attributes as
    `latent_rows` does, so `EQ(t1.c0,t2.c0) & NEQ(t1.c1,t2.c1)` holds on the
    clean rows.  Keys are dealt round-robin rather than drawn so that the
    key buckets, whose squared sizes set the pairwise detect cost, have the
    same expected sizes under every seed.
    """
    rng = random.Random(seed)
    rhs = [f"a1v{rng.randrange(vocab)}" for _ in range(n_keys)]
    protos = []
    for index in range(n_protos):
        key = index % n_keys
        rest = [f"a{a}v{rng.randrange(vocab)}" for a in range(2, n_attrs)]
        protos.append([f"k{key}", rhs[key], *rest])
    return [list(rng.choice(protos)) for _ in range(n_rows)]


@dataclass(frozen=True)
class Workload:
    name: str
    clean_rows: Callable[[int], list[list[str]]]
    kind: str
    detectors: tuple[str, ...]
    skip: str
    truth_in_state: bool
    dcs: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        # Featurize and fit dominate; detect, gate, dc and in-loop evaluation
        # do almost nothing, so a featurize/fit speedup shows here alone.
        Workload(
            "ihc-null-20k",
            lambda seed: latent_rows(seed, 20_000, 8, 60, 25),
            kind="ihc",
            detectors=("null",),
            skip="none",
            truth_in_state=False,
        ),
        # High cardinality: statistics, the drift gate's joint rebuilds and
        # saved state, and in-loop ground-truth evaluation carry the cost.
        Workload(
            "ihc-gate-wide",
            lambda seed: latent_rows(seed, 20_000, 8, 2000, 1500),
            kind="ihc",
            detectors=("perfect",),
            skip="ikl",
            truth_in_state=True,
        ),
        # Write beside read: every batch re-detects and re-repairs old tuples,
        # and it is the only workload where dc and the revisit scans work.
        Workload(
            "ihcre-dc-fd",
            lambda seed: fd_rows(seed, 4_000, 6, 60, 25, 50),
            kind="ihc-re",
            detectors=("null", "dc"),
            skip="ikl",
            truth_in_state=False,
            dcs="EQ(t1.c0,t2.c0) & NEQ(t1.c1,t2.c1)\n",
        ),
    )
}
