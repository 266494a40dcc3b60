"""Constraint language: parsing with positions, evaluation against a brute-force oracle.

The oracle lists every violating tuple group; `violations` reports the probe
tuples' cells in those groups, so every check goes through `probe_cells`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increpair.dc import Const, TupleRef, _group, parse_dc, parse_dc_file, violations
from increpair.detectors import DetectionScope, detect_dc
from increpair.errors import DataError, ParseError
from increpair.relation import CellRef, RawBatch, Schema

from conftest import build_store, cell_rows
from dc_oracle import brute_force, probe_cells

SCHEMA = Schema(("hospital_name", "zip_code", "facility_type"))


class TestParsing:
    def test_pair_constraint(self):
        dc = parse_dc("EQ(t1.hospital_name,t2.hospital_name)&NEQ(t1.zip_code,t2.zip_code)", SCHEMA)
        assert dc.arity == 2
        assert len(dc.predicates) == 2
        assert dc.predicates[0].op == "EQ"
        assert dc.predicates[0].lhs == TupleRef(0, 0)
        assert dc.predicates[0].rhs == TupleRef(1, 0)
        assert dc.var_attrs == ((0, 1), (0, 1))

    def test_single_tuple_constraint_with_constant(self):
        dc = parse_dc('EQ(t1.facility_type,"empty")', SCHEMA)
        assert dc.arity == 1
        assert dc.predicates[0].rhs == Const("empty")
        assert dc.var_attrs == ((2,), ())

    def test_constant_normalized_to_rhs(self):
        dc = parse_dc('EQ("empty",t1.facility_type)', SCHEMA)
        assert dc.predicates[0].lhs == TupleRef(0, 2)
        assert dc.predicates[0].rhs == Const("empty")

    def test_whitespace_tolerated(self):
        dc = parse_dc('  NEQ( t1.zip_code , "123" )  &  EQ(t1.hospital_name, t2.hospital_name) ', SCHEMA)
        assert dc.arity == 2

    def test_malformed_predicate(self):
        with pytest.raises(ParseError):
            parse_dc("EQ(t1.zip_code)", SCHEMA)

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="EQ or NEQ"):
            parse_dc("LT(t1.zip_code,t2.zip_code)", SCHEMA)

    def test_unknown_attribute_reports_offset(self):
        bad = "EQ(t1.nonsense,t2.zip_code)"
        with pytest.raises(ParseError) as info:
            parse_dc(bad, SCHEMA)
        assert "nonsense" in str(info.value)
        assert info.value.offset == bad.index("nonsense")

    def test_constant_only_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_dc('EQ("a","b")', SCHEMA)

    def test_t2_without_t1_rejected(self):
        with pytest.raises(ParseError, match="never t1"):
            parse_dc('EQ(t2.zip_code,"123")', SCHEMA)

    def test_unterminated_constant(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dc('EQ(t1.zip_code,"123', SCHEMA)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_dc('EQ(t1.zip_code,"1") extra', SCHEMA)


class TestParseFile:
    def test_ids_comments_and_line_numbers(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            "# header comment\n"
            "\n"
            'EQ(t1.facility_type,"empty")\n'
            "EQ(t1.hospital_name,t2.hospital_name)&NEQ(t1.zip_code,t2.zip_code)  # trailing\n"
        )
        dcs = parse_dc_file(path, SCHEMA)
        assert [dc.dc_id for dc in dcs] == ["dc_1", "dc_2"]
        assert [dc.arity for dc in dcs] == [1, 2]

    def test_hash_inside_a_constant_is_not_a_comment(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            'EQ(t1.hospital_name,"x#1") & EQ(t1.zip_code,"y")\n'
            'EQ(t1.facility_type,"#") & NEQ(t1.zip_code,"a#b")  # trailing "#" comment\n'
        )
        first, second = parse_dc_file(path, SCHEMA)
        assert [pred.rhs for pred in first.predicates] == [Const("x#1"), Const("y")]
        assert [pred.rhs for pred in second.predicates] == [Const("#"), Const("a#b")]

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# fine\nEQ(t1.bogus,t2.bogus)\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_dc_file(path, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_dc_file(tmp_path / "absent.txt", SCHEMA)


FIXTURE_ROWS = [
    ("mercy", "10001", "clinic"),
    ("mercy", "10002", "clinic"),   # same name, different zip -> violates the pair rule
    ("grace", "10003", "hospital"),
    ("grace", "10003", None),
    ("mercy", "10001", "empty-ish"),
]


class TestViolations:
    def setup_method(self):
        self.store = build_store(FIXTURE_ROWS, SCHEMA.attributes)
        self.pair_dc = parse_dc(
            "EQ(t1.hospital_name,t2.hospital_name)&NEQ(t1.zip_code,t2.zip_code)", SCHEMA
        )

    def test_pair_violation_flags_four_cells(self):
        everyone = range(self.store.n_tuples)
        groups = brute_force(self.pair_dc, self.store, everyone)
        expected_pairs = {(0, 1), (1, 4)}  # tuples 0 and 4 share name AND zip: no violation
        assert len(groups) == len(expected_pairs)
        for group in groups:
            assert len(group) == 4  # name + zip in both tuples
        cells = violations(self.pair_dc, self.store, everyone).tolist()
        assert cells == [[tid, attr] for tid in (0, 1, 4) for attr in (0, 1)]
        assert cells == probe_cells(groups, everyone)

    def test_empty_probe_empty_result(self):
        assert violations(self.pair_dc, self.store, []).shape == (0, 2)

    def test_null_constant_flags_single_cell(self):
        dc = parse_dc('EQ(t1.facility_type,"empty")', SCHEMA)
        assert violations(dc, self.store, range(self.store.n_tuples)).tolist() == [[3, 2]]

    def test_null_never_joins_across_tuples(self):
        dc = parse_dc("EQ(t1.facility_type,t2.facility_type)&NEQ(t1.zip_code,t2.zip_code)", SCHEMA)
        store = build_store(
            [("a", "1", None), ("b", "2", None), ("c", "3", "x")],
            SCHEMA.attributes,
        )
        assert violations(dc, store, range(3)).tolist() == []

    def test_neq_on_null_cell_is_false(self):
        dc = parse_dc('NEQ(t1.facility_type,"clinic")', SCHEMA)
        cells = violations(dc, self.store, range(self.store.n_tuples))
        flagged_tids = set(cells[:, 0].tolist())
        assert 3 not in flagged_tids  # the NULL cell abstains
        assert flagged_tids == {2, 4}

    def test_probe_scoping_matches_filtered_global(self):
        probe = [1]
        reference = [0, 2, 3, 4]
        scoped = violations(self.pair_dc, self.store, probe, reference).tolist()
        assert scoped == probe_cells(brute_force(self.pair_dc, self.store, probe, reference), probe)
        # only the probe tuple's cells are reported
        assert scoped == [[1, 0], [1, 1]]

    def test_probe_tuple_may_take_either_role(self):
        # constraint is asymmetric: only (t1=0-ish, t2=1-ish) ordering satisfies it
        dc = parse_dc('EQ(t1.facility_type,"clinic")&NEQ(t1.zip_code,t2.zip_code)&EQ(t1.hospital_name,t2.hospital_name)', SCHEMA)
        all_cells = violations(dc, self.store, range(self.store.n_tuples)).tolist()
        probe_only = violations(dc, self.store, [1], reference=[0, 2, 3, 4]).tolist()
        assert probe_only == [cell for cell in all_cells if cell[0] == 1]
        assert probe_only == probe_cells(brute_force(dc, self.store, [1], [0, 2, 3, 4]), [1])

    def test_unsorted_repeated_tids_read_as_their_sorted_distinct_set(self):
        for dc in (self.pair_dc, parse_dc('NEQ(t1.facility_type,"clinic")', SCHEMA)):
            shuffled = violations(dc, self.store, [4, 1, 4, 1], reference=(3, 0, 3, 1, 0))
            ordered = violations(dc, self.store, [1, 4], reference=[0, 3])
            assert shuffled.tolist() == ordered.tolist() != []

    def test_out_of_range_probe(self):
        with pytest.raises(DataError):
            violations(self.pair_dc, self.store, [99])
        with pytest.raises(DataError):
            violations(self.pair_dc, self.store, [0], reference=[99])

    def test_cross_attribute_join_compares_strings(self):
        # "mercy" is a different value id under hospital_name than under facility_type
        dc = parse_dc(
            "EQ(t1.hospital_name,t2.facility_type)&NEQ(t1.zip_code,t2.zip_code)", SCHEMA
        )
        store = build_store(
            [("grace", "1", "mercy"), ("mercy", "2", "clinic")], SCHEMA.attributes
        )
        # tuple 1 plays t1 (name, zip), tuple 0 plays t2 (zip, facility_type)
        assert violations(dc, store, range(2)).tolist() == [[0, 1], [0, 2], [1, 0], [1, 1]]
        assert violations(dc, store, [0], reference=[1]).tolist() == [[0, 1], [0, 2]]
        assert violations(dc, store, [0], reference=[1]).tolist() == probe_cells(
            brute_force(dc, store, [0], [1]), [0]
        )

    def test_constraint_without_join_key(self):
        dc = parse_dc("NEQ(t1.zip_code,t2.zip_code)", SCHEMA)
        everyone = range(self.store.n_tuples)
        cells = violations(dc, self.store, everyone).tolist()
        assert cells == probe_cells(brute_force(dc, self.store, everyone), everyone)


class TestRandomizedOracle:
    def test_matches_brute_force_on_random_fixtures(self):
        rng = random.Random(20260814)
        schema = Schema(("p", "q", "r"))
        rules = [
            parse_dc("EQ(t1.p,t2.p)&NEQ(t1.q,t2.q)", schema),
            parse_dc("EQ(t1.p,t2.p)&EQ(t1.q,t2.q)&NEQ(t1.r,t2.r)", schema),
            parse_dc('EQ(t1.r,"v0")&NEQ(t1.q,t2.q)', schema),
            parse_dc('NEQ(t1.p,t2.q)', schema),
            parse_dc('EQ(t1.q,"v1")', schema),
            # four cross-tuple NEQs: 16 inclusion-exclusion terms
            parse_dc("NEQ(t1.p,t2.q)&NEQ(t1.q,t2.r)&NEQ(t1.r,t2.p)&NEQ(t1.q,t2.q)", schema),
        ]
        for trial in range(40):
            n = rng.randint(2, 24)
            rows = [
                tuple(
                    None if rng.random() < 0.1 else f"v{rng.randint(0, 3)}"
                    for _ in range(3)
                )
                for _ in range(n)
            ]
            store = build_store(rows, schema.attributes)
            tids = list(range(n))
            split = rng.randint(0, n)
            probe, reference = tids[split:], tids[:split]
            for dc in rules:
                got = violations(dc, store, probe, reference).tolist()
                want = probe_cells(brute_force(dc, store, probe, reference), probe)
                assert got == want, (trial, dc.dc_id, rows)


def test_symmetric_constraint_is_role_invariant():
    schema = Schema(("p", "q"))
    dc = parse_dc("EQ(t1.p,t2.p)&NEQ(t1.q,t2.q)", schema)
    rng = random.Random(7)
    rows = [(f"a{rng.randint(0,2)}", f"b{rng.randint(0,2)}") for _ in range(30)]
    store = build_store(rows, schema.attributes)
    full = violations(dc, store, range(30))
    # evaluating per-tuple probes and unioning must reproduce the global view
    union = set()
    for tid in range(30):
        union |= set(map(tuple, violations(dc, store, [tid], set(range(30)) - {tid}).tolist()))
    assert cell_rows(union).tolist() == full.tolist()


# --- both search paths against the pairwise oracle ---------------------------

FD_SCHEMA = Schema(("p", "q", "r", "s"))
FD_VALUES = (None, "v0", "v1", "v2", "v3")


@st.composite
def fd_rules(draw):
    """An FD-shaped rule with one or two keys, in random variable and predicate order."""
    keys = draw(st.lists(st.sampled_from("prs"), min_size=1, max_size=2, unique=True))
    terms = [("EQ", key) for key in keys] + [("NEQ", "q")]
    terms = draw(st.permutations(terms))
    return "&".join(
        f"{op}(t2.{attr},t1.{attr})" if draw(st.booleans()) else f"{op}(t1.{attr},t2.{attr})"
        for op, attr in terms
    )


@st.composite
def general_rules(draw):
    """Any rule: cross-attribute keys, constants, one-tuple predicates, no key,
    up to four cross-tuple NEQs."""
    ref = st.tuples(st.sampled_from(("t1", "t2")), st.sampled_from(FD_SCHEMA.attributes))
    # "" is a null token, so EQ against it matches null cells
    const = st.sampled_from(("v0", "v1", ""))
    predicates = []
    for index in range(draw(st.integers(1, 4))):
        var, attr = draw(ref)
        if index == 0:
            var = "t1"  # a rule must reference t1
        other = draw(const) if draw(st.integers(0, 3)) == 0 else draw(ref)
        rhs = f'"{other}"' if isinstance(other, str) else f"{other[0]}.{other[1]}"
        predicates.append(f"{draw(st.sampled_from(('EQ', 'NEQ')))}({var}.{attr},{rhs})")
    return "&".join(predicates)


@st.composite
def dc_cases(draw, rules):
    """A rule drawn from `rules`, a random relation, probe/reference split and repairs."""
    text = draw(rules)
    width = draw(st.integers(1, len(FD_VALUES)))
    row = st.tuples(*[st.sampled_from(FD_VALUES[:width])] * len(FD_SCHEMA.attributes))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    # each tuple is probe, reference, or neither
    roles = draw(st.lists(st.sampled_from("prn"), min_size=len(rows), max_size=len(rows)))
    repairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(rows) - 1),
                st.integers(0, len(FD_SCHEMA.attributes) - 1),
                st.integers(0, width - 1),
            ),
            max_size=10,
        )
    )
    return text, rows, roles, repairs


def check_against_oracle(case):
    """`violations` and `detect_dc` equal the oracle's probe cells, before and after repairs."""
    text, rows, roles, repairs = case
    dc = parse_dc(text, FD_SCHEMA, dc_id="rule")
    store = build_store(rows, FD_SCHEMA.attributes)
    probe = [tid for tid, role in enumerate(roles) if role == "p"]
    reference = [tid for tid, role in enumerate(roles) if role == "r"]

    def check():
        want = probe_cells(brute_force(dc, store, probe, reference), probe)
        assert violations(dc, store, probe, reference).tolist() == want
        assert detect_dc(store, [dc], DetectionScope.over(probe, reference)).tolist() == want

    check()
    # detection reads post-repair values
    # a cell repaired twice keeps its last value
    fixes = {
        CellRef(tid, attr): store.interner.intern(attr, FD_VALUES[vid])
        for tid, attr, vid in repairs
    }
    store.mark_dirty(cell_rows(fixes))
    store.apply_repairs(cell_rows(fixes.items()))
    check()
    return dc


@settings(max_examples=300, deadline=None)
@given(dc_cases(general_rules()))
def test_general_rules_match_pairwise_oracle(case):
    check_against_oracle(case)


class TestFdPass:
    @settings(max_examples=300, deadline=None)
    @given(dc_cases(fd_rules()))
    def test_matches_pairwise_oracle(self, case):
        check_against_oracle(case)

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("EQ(t1.p,t2.p)&NEQ(t1.q,t2.q)", ((0,), 1)),
            ("NEQ(t2.q,t1.q)&EQ(t2.r,t1.r)&EQ(t1.p,t2.p)", ((0, 2), 1)),
            ("EQ(t1.p,t2.p)&EQ(t2.p,t1.p)&NEQ(t1.s,t2.s)", ((0,), 3)),
            ("EQ(t1.p,t2.p)&NEQ(t1.p,t2.p)", None),  # NEQ on a key attribute
            ("EQ(t1.p,t2.q)&NEQ(t1.r,t2.r)", None),  # cross-attribute comparison
            ('EQ(t1.p,t2.p)&NEQ(t1.q,t2.q)&EQ(t1.r,"v0")', None),  # constant
            ("EQ(t1.p,t2.p)&NEQ(t1.p,t1.q)", None),  # one-tuple predicate
            ("NEQ(t1.q,t2.q)", None),  # no EQ key
            ("EQ(t1.p,t2.p)&NEQ(t1.q,t2.q)&NEQ(t1.r,t2.r)", None),  # two NEQs
            ('EQ(t1.p,"v0")', None),
        ],
    )
    def test_fd_shape_classification(self, text, shape):
        """The oracle agrees on rules that state an FD `keys -> rhs` (`shape`)
        and on near misses (None); an FD flags the keys and right-hand cell of
        each probe tuple whose non-null key meets two right-hand values."""
        dc = parse_dc(text, FD_SCHEMA)
        rng = random.Random(text)
        for trial in range(30):
            n = rng.randint(2, 20)
            rows = [tuple(rng.choice(FD_VALUES[:4]) for _ in range(4)) for _ in range(n)]
            store = build_store(rows, FD_SCHEMA.attributes)
            roles = [rng.choice("prn") for _ in range(n)]
            probe = [tid for tid in range(n) if roles[tid] == "p"]
            reference = [tid for tid in range(n) if roles[tid] == "r"]
            got = violations(dc, store, probe, reference).tolist()
            want = probe_cells(brute_force(dc, store, probe, reference), probe)
            assert got == want, (trial, rows, roles)
            if shape is not None:
                assert got == fd_cells(rows, probe, reference, *shape), (trial, rows, roles)


def fd_cells(rows, probe, reference, keys, rhs):
    """The cells an FD `keys -> rhs` flags in `probe`, from each key's set of
    right-hand values over the probe and reference rows without nulls."""
    key = {tid: tuple(rows[tid][a] for a in keys) for tid in {*probe, *reference}}
    live = {tid for tid in key if None not in (*key[tid], rows[tid][rhs])}
    values = {}
    for tid in live:
        values.setdefault(key[tid], set()).add(rows[tid][rhs])
    flagged = [tid for tid in sorted(live & set(probe)) if len(values[key[tid]]) > 1]
    return [[tid, attr] for tid in flagged for attr in sorted({*keys, rhs})]


class TestCountingCases:
    """Fixed cases for the partner count: strings one attribute never issued,
    duplicate NEQs, and rules whose two roles differ."""

    def test_partner_string_never_interned_in_the_other_attribute(self):
        # "w" never appears under p and "z" never under r: EQ(t1.p, t2.q)
        # cannot hold for t2 = 1, NEQ(t1.r, t2.s) holds for t2 = 0
        dc = parse_dc("EQ(t1.p,t2.q)&NEQ(t1.r,t2.s)", FD_SCHEMA)
        store = build_store([("k", "k", "a", "z"), ("k", "w", "a", "a")], FD_SCHEMA.attributes)
        assert not dc.symmetric
        # tuple 1 plays t1 (p, r) against tuple 0 as t2 (q, s), and no other pair violates
        assert violations(dc, store, [0], [1]).tolist() == [[0, 1], [0, 3]]
        assert violations(dc, store, [1], [0]).tolist() == [[1, 0], [1, 2]]
        # a later batch issues "w" under p, so tuple 1 now matches as t2
        store.append_batch(RawBatch(2, (("w", "x", "b", "b"),)))
        for probe in ([0], [1], [2], [0, 1, 2]):
            reference = sorted({0, 1, 2} - set(probe))
            want = probe_cells(brute_force(dc, store, probe, reference), probe)
            assert violations(dc, store, probe, reference).tolist() == want
        assert violations(dc, store, [1], [0, 2]).tolist() == [[1, 0], [1, 1], [1, 2], [1, 3]]

    def test_one_neq_listed_twice_in_both_orientations(self):
        once = parse_dc("EQ(t1.p,t2.p)&NEQ(t1.q,t2.r)", FD_SCHEMA)
        twice = parse_dc("EQ(t1.p,t2.p)&NEQ(t1.q,t2.r)&NEQ(t2.r,t1.q)", FD_SCHEMA)
        same_attr = parse_dc("NEQ(t1.q,t2.q)&EQ(t1.p,t2.p)&NEQ(t2.q,t1.q)", FD_SCHEMA)
        rng = random.Random(11)
        rows = [tuple(rng.choice(FD_VALUES[:4]) for _ in range(4)) for _ in range(25)]
        store = build_store(rows, FD_SCHEMA.attributes)
        probe, reference = range(0, 25, 2), range(1, 25, 2)
        assert violations(twice, store, probe, reference).tolist() == violations(
            once, store, probe, reference
        ).tolist()
        for dc in (twice, same_attr):
            want = probe_cells(brute_force(dc, store, probe, reference), probe)
            assert violations(dc, store, probe, reference).tolist() == want

    def test_asymmetric_rule_flags_each_role_its_own_cells(self):
        # t1 reads (p, q, r) and t2 reads (p, s); only (t1 = 0, t2 = 1) violates
        dc = parse_dc('EQ(t1.p,t2.p)&EQ(t1.q,"v1")&NEQ(t1.r,t2.s)', FD_SCHEMA)
        store = build_store([("k", "v1", "a", "b"), ("k", "v2", "c", "c")], FD_SCHEMA.attributes)
        assert not dc.symmetric
        assert violations(dc, store, [0, 1]).tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 3]]
        assert violations(dc, store, [1], [0]).tolist() == [[1, 0], [1, 3]]
        want = probe_cells(brute_force(dc, store, [0, 1]), [0, 1])
        assert violations(dc, store, [0, 1]).tolist() == want

    @pytest.mark.parametrize(
        "text, symmetric",
        [
            ("EQ(t1.p,t2.p)&NEQ(t1.q,t2.q)", True),
            ("NEQ(t2.q,t1.q)&EQ(t2.p,t1.p)", True),
            ('EQ(t1.p,"v0")&EQ(t2.p,"v0")&NEQ(t1.q,t2.q)', True),
            ("EQ(t1.p,t2.q)&EQ(t1.q,t2.p)", True),
            ("EQ(t1.p,t2.q)", False),
            ('EQ(t1.p,"v0")&NEQ(t1.q,t2.q)', False),
            ("EQ(t1.p,t2.p)&NEQ(t1.q,t1.r)", False),
        ],
    )
    def test_symmetry(self, text, symmetric):
        assert parse_dc(text, FD_SCHEMA).symmetric is symmetric

    def test_group_renumbers_before_the_packed_key_overflows(self):
        # five columns of ids near 2**31 need far more than 63 bits packed
        rng = np.random.default_rng(3)
        rows = rng.choice([-1, 0, 2**31 - 2, 2**31 - 1, 7], size=(200, 5))
        want = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        assert _group(rows.T, len(rows)).tolist() == want.tolist()
