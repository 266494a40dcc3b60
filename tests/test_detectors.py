"""Detectors: scoping rules, each detector's flags, and the dispatch layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from increpair.dc import parse_dc
from increpair.detectors import (
    DetectionScope,
    detect_dc,
    detect_null,
    detect_perfect,
    run_detectors,
    truth_ids,
)
from increpair.errors import ConfigError, DataError
from increpair.relation import Schema

from conftest import build_store

SCHEMA = Schema(("name", "zip"))
ROWS = [
    ("mercy", "10001"),
    ("mercy", "10002"),
    (None, "10003"),
    ("grace", None),
]
PAIR_RULE = parse_dc("EQ(t1.name,t2.name)&NEQ(t1.zip,t2.zip)", SCHEMA)


@pytest.fixture
def store():
    return build_store(ROWS, SCHEMA.attributes)


def perfect(store, truth, scope):
    """`detect_perfect` with the truth's rows looked up for every stored tuple."""
    return detect_perfect(store, truth_ids(store, truth, range(store.n_tuples)), scope)


# tid sets in each form a caller passes: ranges (stepped, reversed, empty),
# lists with repeats, and narrow arrays
tid_sets = st.one_of(
    st.builds(range, st.integers(0, 12), st.integers(0, 12), st.integers(-3, 3).filter(bool)),
    st.lists(st.integers(0, 12)),
    st.lists(st.integers(0, 12)).map(lambda tids: np.array(tids, dtype=np.int32)),
)


class TestScope:
    def test_over_sorts_and_dedupes(self):
        scope = DetectionScope.over([3, 1, 1], reference=[2, 3, 0])
        assert scope.probe.tolist() == [1, 3]
        assert scope.reference.tolist() == [0, 2]  # probe tids removed from reference

    @given(tid_sets, tid_sets)
    def test_ranges_read_off_as_the_sorted_tuples(self, probe, reference):
        scope = DetectionScope.over(probe, reference)
        assert scope.probe.tolist() == sorted(set(probe))
        assert scope.reference.tolist() == sorted(set(reference) - set(probe))
        assert scope.probe.dtype == scope.reference.dtype == np.int64
        assert DetectionScope.over(probe).reference.tolist() == []


class TestTidsOutsideTheStore:
    DETECTORS = {
        "null": detect_null,
        "dc": lambda store, scope: detect_dc(store, [PAIR_RULE], scope),
        "perfect": lambda store, scope: perfect(store, ROWS, scope),
    }

    @pytest.mark.parametrize("tid", [-1, len(ROWS)])
    @pytest.mark.parametrize("name", DETECTORS)
    def test_probe_rejected(self, store, name, tid):
        with pytest.raises(DataError, match=f"tuple id {tid} is out of range"):
            self.DETECTORS[name](store, DetectionScope.over([0, tid]))

    @pytest.mark.parametrize("tid", [-1, len(ROWS)])
    def test_truth_rows_rejected(self, store, tid):
        with pytest.raises(DataError, match=f"tuple id {tid} is outside the ground truth"):
            truth_ids(store, ROWS, [0, tid])


class TestNullDetector:
    def test_flags_probe_nulls_only(self, store):
        dirty = detect_null(store, DetectionScope.over([2, 3]))
        assert dirty.tolist() == [[2, 0], [3, 1]]
        dirty = detect_null(store, DetectionScope.over([0, 1], reference=[2, 3]))
        assert dirty.shape == (0, 2)


class TestDcDetector:
    def test_flags_probe_cells_of_violating_groups(self, store):
        scope = DetectionScope.over([1], reference=[0, 2, 3])
        dirty = detect_dc(store, [PAIR_RULE], scope)
        # tuples 0 and 1 violate jointly, but only tuple 1 is in the probe
        assert dirty.tolist() == [[1, 0], [1, 1]]

    def test_unions_every_rule(self, store):
        zip_rule = parse_dc('EQ(t1.zip,"10003")', SCHEMA)
        dirty = detect_dc(store, [PAIR_RULE, zip_rule], DetectionScope.over([1, 2], reference=[0]))
        assert dirty.tolist() == [[1, 0], [1, 1], [2, 1]]


class TestPerfectDetector:
    def test_flags_exact_diffs_including_nulls(self, store):
        truth = [
            ("mercy", "10001"),
            ("mercy", "10001"),  # zip differs from the stored 10002
            ("saint", "10003"),  # name was nulled out
            ("grace", None),     # the stored null is genuinely null
        ]
        dirty = perfect(store, truth, DetectionScope.over(range(4)))
        assert dirty.tolist() == [[1, 1], [2, 0]]

    def test_probe_scoped(self, store):
        truth = [("x", "1")] * 4
        dirty = perfect(store, truth, DetectionScope.over([0]))
        assert set(dirty[:, 0].tolist()) == {0}

    def test_short_ground_truth_rejected(self, store):
        with pytest.raises(DataError):
            perfect(store, [("a", "b")], DetectionScope.over([3]))

    def test_ragged_ground_truth_rejected(self, store):
        truth = [("a",)] * 4
        with pytest.raises(DataError):
            perfect(store, truth, DetectionScope.over([0]))


class TestDispatch:
    def test_union_of_detectors(self, store):
        truth = [row for row in ROWS]
        dirty = run_detectors(
            store,
            DetectionScope.over(range(4)),
            ["null", "dc", "perfect"],
            dcs=[PAIR_RULE],
            ground_truth=truth_ids(store, truth, range(store.n_tuples)),
        )
        # perfect finds nothing (truth == data); null finds 2; dc finds the pair
        assert dirty.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [3, 1]]

    def test_union_is_distinct_rows_in_cell_order(self, store):
        null_name = parse_dc('EQ(t1.name,"")', SCHEMA)  # "" is a null token
        dirty = run_detectors(
            store, DetectionScope.over(range(4)), ["null", "dc"], dcs=[PAIR_RULE, null_name]
        )
        # null flags (2, 0) and (3, 1) first; the rules then flag tuples 0 and 1,
        # and (2, 0) again
        assert dirty.dtype == np.int64
        assert dirty.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [3, 1]]

    def test_missing_companions_rejected(self, store):
        scope = DetectionScope.over([0])
        with pytest.raises(ConfigError, match="constraint"):
            run_detectors(store, scope, ["dc"])
        with pytest.raises(ConfigError, match="ground-truth"):
            run_detectors(store, scope, ["perfect"])
        with pytest.raises(ConfigError, match="unknown detector"):
            run_detectors(store, scope, ["psychic"])
