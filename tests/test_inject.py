"""Seeded error injection: exact counts, provenance, and per-kind behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increpair.errors import ConfigError, DataError
from increpair.inject import ERROR_KINDS, inject_errors

ROWS = [[f"left{i % 4}", f"right{i % 3}", f"tail{i % 5}"] for i in range(40)]


class TestContract:
    def test_exact_count_and_untouched_original(self):
        dirty, provenance = inject_errors(ROWS, rate=0.1, seed=7)
        assert len(provenance) == int(0.1 * 40 * 3) == 12
        diffs = [
            (tid, attr)
            for tid, row in enumerate(ROWS)
            for attr, value in enumerate(row)
            if dirty[tid][attr] != value
        ]
        assert sorted(diffs) == sorted((t, a) for t, a, _ in provenance)
        assert ROWS[0][0] == "left0"  # input list untouched

    def test_deterministic_per_seed(self):
        assert inject_errors(ROWS, 0.2, seed=3) == inject_errors(ROWS, 0.2, seed=3)
        assert inject_errors(ROWS, 0.2, seed=3) != inject_errors(ROWS, 0.2, seed=4)

    def test_every_perturbed_cell_differs(self):
        dirty, provenance = inject_errors(ROWS, 0.3, seed=11)
        for tid, attr, kind in provenance:
            assert dirty[tid][attr] != ROWS[tid][attr]
            assert kind in ERROR_KINDS

    def test_validation(self):
        with pytest.raises(ConfigError, match="strictly between"):
            inject_errors(ROWS, 0.0)
        with pytest.raises(ConfigError, match="strictly between"):
            inject_errors(ROWS, 1.0)
        with pytest.raises(ConfigError, match="unknown error kind"):
            inject_errors(ROWS, 0.1, kinds=("smudge",))
        with pytest.raises(ConfigError, match="at least one"):
            inject_errors(ROWS, 0.1, kinds=())
        with pytest.raises(DataError, match="empty table"):
            inject_errors([], 0.1)


class TestKinds:
    def test_null_kind_blanks_cells(self):
        dirty, provenance = inject_errors(ROWS, 0.2, kinds=("null",), seed=0)
        for tid, attr, kind in provenance:
            assert kind == "null"
            assert dirty[tid][attr] is None

    def test_swap_draws_existing_column_value(self):
        dirty, provenance = inject_errors(ROWS, 0.2, kinds=("swap",), seed=0)
        for tid, attr, kind in provenance:
            assert kind == "swap"
            column = {row[attr] for row in ROWS}
            assert dirty[tid][attr] in column
            assert dirty[tid][attr] != ROWS[tid][attr]

    def test_typo_avoids_null_tokens_and_original(self):
        rows = [["x"] * 2 for _ in range(30)]
        dirty, provenance = inject_errors(
            rows, 0.5, kinds=("typo",), seed=5, null_tokens=("", "NULL", "empty")
        )
        for tid, attr, _ in provenance:
            value = dirty[tid][attr]
            assert value not in ("x", "", "NULL", "empty")

    def test_swap_falls_back_to_typo_on_constant_column(self):
        rows = [["only", f"v{i}"] for i in range(20)]
        dirty, provenance = inject_errors(rows, 0.4, kinds=("swap",), seed=1)
        first_column_hits = [(t, a, k) for t, a, k in provenance if a == 0]
        assert first_column_hits, "expected at least one hit in the constant column"
        for tid, attr, kind in first_column_hits:
            assert kind == "typo"  # provenance reports what actually happened
            assert dirty[tid][attr] != "only"

    def test_null_falls_back_to_typo_on_a_null_cell(self):
        rows = [["a", None], ["b", None], ["c", "x"], ["d", None]] * 5
        dirty, provenance = inject_errors(rows, 0.5, kinds=("null",), seed=0)
        assert len(provenance) == len(changed_cells(rows, dirty)) == 20
        for tid, attr, kind in provenance:
            assert kind == ("typo" if rows[tid][attr] is None else "null")


def changed_cells(rows, dirty):
    return {
        (tid, attr)
        for tid, row in enumerate(rows)
        for attr, value in enumerate(row)
        if dirty[tid][attr] != value
    }


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.sets(st.sampled_from(ERROR_KINDS), min_size=1),
)
def test_every_draw_changes_its_cell_among_true_nulls(rate, seed, kinds):
    rows = [[f"k{i % 3}", None if i % 4 else f"v{i % 5}", None] for i in range(40)]
    dirty, provenance = inject_errors(rows, rate, sorted(kinds), seed=seed)
    assert len(provenance) == int(rate * 120)
    assert changed_cells(rows, dirty) == {(t, a) for t, a, _ in provenance}


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_count_matches_rate_for_any_seed(rate, seed):
    dirty, provenance = inject_errors(ROWS, rate, seed=seed)
    assert len(provenance) == int(rate * 120)
    assert len({(t, a) for t, a, _ in provenance}) == len(provenance)
