"""Synthetic error injection over a clean table: typos, in-attribute value
swaps, and nulled-out cells, at an exact cell rate, fully seeded."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import ConfigError, DataError
from .relation import DEFAULT_NULL_TOKENS

ERROR_KINDS = ("typo", "swap", "null")
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def _typo(value: str, rng: random.Random, null_tokens: frozenset[str]) -> str:
    """One random character edit, never reproducing the original or a null token."""
    for _ in range(64):
        if not value:
            edited = rng.choice(_ALPHABET)
        else:
            kind = rng.randrange(3 if len(value) > 1 else 2)
            position = rng.randrange(len(value))
            if kind == 0:
                replacement = rng.choice(_ALPHABET)
                edited = value[:position] + replacement + value[position + 1 :]
            elif kind == 1:
                edited = value[:position] + rng.choice(_ALPHABET) + value[position:]
            else:
                edited = value[:position] + value[position + 1 :]
        if edited != value and edited not in null_tokens:
            return edited
    raise ConfigError(f"could not derive a typo for value {value!r}")


def inject_errors(
    rows: Sequence[Sequence[str | None]],
    rate: float,
    kinds: Iterable[str] = ERROR_KINDS,
    seed: int = 0,
    null_tokens: Iterable[str] = DEFAULT_NULL_TOKENS,
) -> tuple[list[list[str | None]], list[tuple[int, int, str]]]:
    """Perturb exactly floor(rate * cell count) cells of a parsed table.

    Returns the dirtied copy plus (row, column, kind) provenance for each
    perturbed cell.  `rate` must lie in (0, 1); cells and kinds are drawn
    with a private seeded generator, so identical inputs give identical
    corruption.
    """
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"error rate must lie strictly between 0 and 1, got {rate}")
    kinds = tuple(kinds)
    if not kinds:
        raise ConfigError("at least one error kind is required")
    for kind in kinds:
        if kind not in ERROR_KINDS:
            raise ConfigError(f"unknown error kind {kind!r}; expected one of {ERROR_KINDS}")
    if not rows:
        raise DataError("cannot inject errors into an empty table")
    tokens = frozenset(null_tokens)
    n_attrs = len(rows[0])
    total_cells = len(rows) * n_attrs
    count = int(rate * total_cells)

    # distinct non-null values per column, for swaps
    column_values: list[list[str]] = []
    for attr in range(n_attrs):
        seen = {row[attr] for row in rows if row[attr] is not None}
        column_values.append(sorted(seen))

    rng = random.Random(seed)
    targets = sorted(rng.sample(range(total_cells), count))
    dirty = [list(row) for row in rows]
    provenance: list[tuple[int, int, str]] = []
    for flat in targets:
        tid, attr = divmod(flat, n_attrs)
        kind = kinds[rng.randrange(len(kinds))]
        current = dirty[tid][attr]
        if kind == "swap":
            alternatives = [v for v in column_values[attr] if v != current]
            if alternatives:
                dirty[tid][attr] = alternatives[rng.randrange(len(alternatives))]
            else:
                kind = "typo"
        elif kind == "null" and current is None:
            kind = "typo"  # nulling a null cell would change nothing
        if kind == "typo":
            dirty[tid][attr] = _typo(current or "", rng, tokens)
        elif kind == "null":
            dirty[tid][attr] = None
        provenance.append((tid, attr, kind))
    return dirty, provenance
