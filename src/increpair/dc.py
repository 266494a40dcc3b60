"""Denial constraints: a small conjunction language of EQ/NEQ predicates over
one or two tuples, plus one counting pass over the value-id columns that
finds the cells of the inspected tuples that take part in a violation.

A constraint is violated when ALL of its predicates hold simultaneously for
some tuple (single-tuple constraints) or some tuple pair.  Null cells never
satisfy a comparison against another cell; the only predicate a null cell can
satisfy is EQ against a constant that is itself a configured null token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ParseError
from .relation import NULL_ID, RelationStore, Schema, tid_array, union_cells

T1 = 0
T2 = 1
_VAR_NAMES = {"t1": T1, "t2": T2}


@dataclass(frozen=True)
class TupleRef:
    var: int
    attr: int


@dataclass(frozen=True)
class Const:
    text: str


@dataclass(frozen=True)
class Predicate:
    op: str  # "EQ" or "NEQ"
    lhs: TupleRef
    rhs: TupleRef | Const


@dataclass(frozen=True)
class DenialConstraint:
    dc_id: str
    predicates: tuple[Predicate, ...]

    @cached_property
    def arity(self) -> int:
        for pred in self.predicates:
            if pred.lhs.var == T2 or (isinstance(pred.rhs, TupleRef) and pred.rhs.var == T2):
                return 2
        return 1

    @cached_property
    def var_attrs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Attributes referenced through t1 and through t2, sorted."""
        attrs: tuple[set[int], set[int]] = (set(), set())
        for pred in self.predicates:
            attrs[pred.lhs.var].add(pred.lhs.attr)
            if isinstance(pred.rhs, TupleRef):
                attrs[pred.rhs.var].add(pred.rhs.attr)
        return tuple(sorted(attrs[T1])), tuple(sorted(attrs[T2]))

    @cached_property
    def symmetric(self) -> bool:
        """Whether the rule reads the same with t1 and t2 swapped, so that a
        tuple plays t1 in a violating pair exactly when it plays t2 in one."""

        def terms(swap: bool) -> set:
            return {
                (pred.op, frozenset(_swapped(ref) if swap else ref for ref in (pred.lhs, pred.rhs)))
                for pred in self.predicates
            }

        return terms(False) == terms(True)


def _swapped(ref: TupleRef | Const) -> TupleRef | Const:
    return TupleRef(T1 + T2 - ref.var, ref.attr) if isinstance(ref, TupleRef) else ref


class _Scanner:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line

    def fail(self, message: str) -> ParseError:
        return ParseError(message, offset=self.pos, line=self.line)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.fail(f"expected {literal!r}")
        self.pos += len(literal)

    def take_until(self, stops: str) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stops:
            self.pos += 1
        return self.text[start : self.pos]


def _parse_ref(scanner: _Scanner, schema: Schema) -> TupleRef | Const:
    scanner.skip_ws()
    if scanner.pos >= len(scanner.text):
        raise scanner.fail("expected a tuple reference or constant")
    if scanner.text[scanner.pos] == '"':
        scanner.pos += 1
        start = scanner.pos
        end = scanner.text.find('"', start)
        if end < 0:
            raise scanner.fail("unterminated constant")
        scanner.pos = end + 1
        return Const(scanner.text[start:end])
    word = scanner.take_until(".,)&")
    var = _VAR_NAMES.get(word.strip())
    if var is None:
        raise scanner.fail(f"expected t1, t2, or a quoted constant, got {word.strip()!r}")
    scanner.expect(".")
    name_start = scanner.pos
    name = scanner.take_until(",)&").strip()
    if not name:
        raise scanner.fail("expected an attribute name")
    try:
        attr = schema.index_of(name)
    except Exception:
        scanner.pos = name_start
        raise scanner.fail(f"unknown attribute {name!r}") from None
    return TupleRef(var, attr)


def _parse_predicate(scanner: _Scanner, schema: Schema) -> Predicate:
    scanner.skip_ws()
    op_start = scanner.pos
    op = scanner.take_until("(").strip()
    if op not in ("EQ", "NEQ"):
        scanner.pos = op_start
        raise scanner.fail(f"expected EQ or NEQ, got {op!r}")
    scanner.expect("(")
    lhs = _parse_ref(scanner, schema)
    scanner.expect(",")
    rhs = _parse_ref(scanner, schema)
    scanner.expect(")")
    if isinstance(lhs, Const):
        if isinstance(rhs, Const):
            raise scanner.fail("predicate must reference at least one tuple")
        lhs, rhs = rhs, lhs  # normalize: the tuple reference goes on the left
    return Predicate(op, lhs, rhs)


def parse_dc(line: str, schema: Schema, dc_id: str = "dc", lineno: int | None = None) -> DenialConstraint:
    """Parse one constraint: `pred ("&" pred)*` with EQ/NEQ predicates."""
    scanner = _Scanner(line, line=lineno)
    predicates = [_parse_predicate(scanner, schema)]
    while not scanner.at_end():
        scanner.expect("&")
        predicates.append(_parse_predicate(scanner, schema))
    dc = DenialConstraint(dc_id, tuple(predicates))
    uses_t2 = dc.arity == 2
    uses_t1 = bool(dc.var_attrs[T1])
    if uses_t2 and not uses_t1:
        raise scanner.fail("constraint references t2 but never t1")
    return dc


# a line up to its first `#` outside a quoted constant; constants have no
# escapes, and an unterminated one runs to the end for the parser to report
_CODE = re.compile(r'(?:[^"#]|"[^"]*(?:"|$))*')


def parse_dc_file(path, schema: Schema) -> list[DenialConstraint]:
    """Read constraints one per line; `#` outside a quoted constant starts a
    comment, blank lines are skipped."""
    constraints: list[DenialConstraint] = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a byte-order mark
    except OSError as exc:
        raise ParseError(f"cannot open constraint file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"constraint file {path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE.match(raw).group().strip()
        if not line:
            continue
        dc_id = f"dc_{len(constraints) + 1}"
        constraints.append(parse_dc(line, schema, dc_id=dc_id, lineno=lineno))
    return constraints


def violations(
    dc: DenialConstraint,
    store: RelationStore,
    probe: Iterable[int],
    reference: Iterable[int] = (),
) -> np.ndarray:
    """Cells of `probe` tuples that take part in a violation of `dc`, as
    distinct (tid, attr) rows in (tid, attr) order.

    A one-tuple rule flags the cells it reads in each probe tuple that
    satisfies it.  For a pair rule, a probe tuple that plays t1 in a
    violating ordered pair has its t1 cells flagged, and one that plays t2
    has its t2 cells flagged.  The partner may come from `probe` or
    `reference`; a reference tuple's own cells are never flagged.

    Everything is read off the value-id columns of the probe and reference
    rows.  Each predicate that reads one tuple becomes a boolean column (see
    `_eligible`).  A probe tuple plays t1 in a violation when it is eligible
    as t1 and some other tuple, eligible as t2, equals it on every
    cross-tuple EQ and differs on every cross-tuple NEQ; `_partners` counts
    those partners without listing a pair.  The t2 role is the same count
    with the roles swapped, and a symmetric rule skips it.
    """
    probe_tids = store.check_tids(tid_array(probe))
    if dc.arity == 1:
        return _cells(dc, T1, probe_tids[_eligible(dc, store, T1, probe_tids)])

    reference_tids = store.check_tids(tid_array(reference))
    reference_tids = np.setdiff1d(reference_tids, probe_tids, assume_unique=True)
    tids = np.concatenate([probe_tids, reference_tids])
    eq, neq = _cross_pairs(dc)
    # each cross-tuple comparison (a, b) as the t1 column a and the t2
    # column b, both in attribute a's id space
    columns = (
        [store.values[tids, a] for a, _ in eq + neq],
        [_ids_of(store, store.values[tids, b], b, a) for a, b in eq + neq],
    )
    eligible = [_eligible(dc, store, var, tids) for var in (T1, T2)]
    # a tuple that would violate the rule with itself as the partner
    with_itself = eligible[T1] & eligible[T2]
    for index, (first, second) in enumerate(zip(*columns)):
        with_itself &= (first == second) if index < len(eq) else (first != second)
    is_probe = np.arange(len(tids)) < len(probe_tids)
    flagged = []
    for role in (T1,) if dc.symmetric else (T1, T2):
        other = T1 + T2 - role
        mine = eligible[role] & is_probe
        count = _partners(columns[role], columns[other], mine, eligible[other], len(eq))
        hit = count - with_itself[mine] > 0
        flagged.append(_cells(dc, role, tids[mine][hit]))
    return union_cells(flagged, store.n_attrs)


def _cross_pairs(dc: DenialConstraint) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The distinct (t1 attr, t2 attr) pairs that the rule's cross-tuple EQ
    and NEQ predicates compare."""
    found: dict[str, set[tuple[int, int]]] = {"EQ": set(), "NEQ": set()}
    for pred in dc.predicates:
        if isinstance(pred.rhs, TupleRef) and pred.lhs.var != pred.rhs.var:
            first, second = (pred.lhs, pred.rhs) if pred.lhs.var == T1 else (pred.rhs, pred.lhs)
            found[pred.op].add((first.attr, second.attr))
    return sorted(found["EQ"]), sorted(found["NEQ"])


def _ids_of(store: RelationStore, column: np.ndarray, attr: int, onto: int) -> np.ndarray:
    """A column of `attr`'s value ids as the ids `onto` gives the same strings.

    Ids are issued per attribute, so comparing two attributes compares
    strings.  A string `onto` never issued becomes -1, which equals no cell's
    id; null stays null.  The lookup is made at every call, because a later
    batch may intern the string in `onto`."""
    if attr == onto:
        return column
    strings = store.interner.observed_strings(attr)
    ids = np.array([NULL_ID, *store.interner.lookup_column(onto, strings)], dtype=np.int64)
    return ids[column]


def _eligible(dc: DenialConstraint, store: RelationStore, var: int, tids: np.ndarray) -> np.ndarray:
    """Which tuples `tids` may play `var`: every predicate that reads only
    `var` holds, and no cell `var` compares with the other tuple is null."""
    eligible = np.ones(len(tids), dtype=bool)
    for pred in dc.predicates:
        if isinstance(pred.rhs, TupleRef) and pred.lhs.var != pred.rhs.var:
            # a null cell never satisfies a comparison with the other tuple
            ref = pred.lhs if pred.lhs.var == var else pred.rhs
            eligible &= store.values[tids, ref.attr] != NULL_ID
        elif pred.lhs.var == var:
            eligible &= _holds(pred, store, tids)
    return eligible


def _holds(pred: Predicate, store: RelationStore, tids: np.ndarray) -> np.ndarray:
    """Whether a predicate over one tuple holds in each of the tuples `tids`."""
    left = store.values[tids, pred.lhs.attr]
    if isinstance(pred.rhs, Const):
        vid = store.interner.lookup(pred.lhs.attr, pred.rhs.text)
        holds = (left == (-1 if vid is None else vid)) == (pred.op == "EQ")
        # a null cell only ever matches EQ against a null-token constant
        null_holds = pred.op == "EQ" and pred.rhs.text in store.null_tokens
        return np.where(left == NULL_ID, null_holds, holds)
    right_attr = pred.rhs.attr
    right = _ids_of(store, store.values[tids, right_attr], right_attr, pred.lhs.attr)
    holds = (left == right) == (pred.op == "EQ")
    return holds & (left != NULL_ID) & (right != NULL_ID)


def _partners(
    own: list[np.ndarray],
    partner: list[np.ndarray],
    mine: np.ndarray,
    theirs: np.ndarray,
    n_eq: int,
) -> np.ndarray:
    """For each row where `mine` holds, the number of rows where `theirs`
    holds whose `partner` columns equal its `own` columns in the first `n_eq`
    places and differ from them in every other.

    Counting the rows that are equal in the first `n_eq` places plus a
    subset S of the others is one grouping of both sides together.  By
    inclusion and exclusion, the rows that differ in all k others number the
    sum of those counts over every S, signed by (-1)^|S|: 2^k groupings."""
    n_mine = int(np.count_nonzero(mine))
    n = n_mine + int(np.count_nonzero(theirs))
    both = [np.concatenate([ours[mine], them[theirs]]) for ours, them in zip(own, partner)]
    keyed = _group(both[:n_eq], n)
    count = np.zeros(n_mine, dtype=np.int64)
    for size in range(len(both) - n_eq + 1):
        for subset in combinations(both[n_eq:], size):
            group = _group([keyed, *subset], n) if subset else keyed
            matches = np.bincount(group[n_mine:], minlength=int(group.max(initial=0)) + 1)
            count += (-1) ** size * matches[group[:n_mine]]
    return count


def _group(columns: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Ids for the rows of `n`-long columns of ids of -1 or more: equal rows
    get equal ids, all below 4n.  The columns are packed into one int64 key,
    renumbered densely only when its range exceeds 4n: up to there, a
    `bincount` over the range costs less than the sort of `np.unique`."""
    ids, span = np.zeros(n, dtype=np.int64), 1
    for column in columns:
        radix = int(column.max(initial=-1)) + 2
        if span * radix >= 2**63:
            # renumber first, so the packed key stays within int64
            ids, span = np.unique(ids, return_inverse=True)[1], n
        ids *= radix
        ids += column
        ids += 1
        span *= radix
    return ids if span <= 4 * n else np.unique(ids, return_inverse=True)[1]


def _cells(dc: DenialConstraint, role: int, tids: np.ndarray) -> np.ndarray:
    """The cells `dc` reads through `role` in each of the ascending int64
    `tids`, as (tid, attr) rows in (tid, attr) order."""
    attrs = dc.var_attrs[role]
    return np.stack([np.repeat(tids, len(attrs)), np.tile(attrs, len(tids))], axis=1)
