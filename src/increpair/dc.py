"""Denial constraints: a small conjunction language of EQ/NEQ predicates over
one or two tuples, plus an evaluator that finds the cells of the inspected
tuples that take part in a violation.

A constraint is violated when ALL of its predicates hold simultaneously for
some tuple (single-tuple constraints) or some tuple pair.  Null cells never
satisfy a comparison against another cell; the only predicate a null cell can
satisfy is EQ against a constant that is itself a configured null token.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParseError
from .relation import NULL_ID, RelationStore, Schema, union_cells

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
    def join_keys(self) -> tuple[tuple[int, int], ...]:
        """(t1 attr, t2 attr) pairs from cross-tuple EQ predicates, for hash joining."""
        keys = []
        for pred in self.predicates:
            if (
                pred.op == "EQ"
                and isinstance(pred.rhs, TupleRef)
                and pred.lhs.var != pred.rhs.var
            ):
                first, second = pred.lhs, pred.rhs
                if first.var == T2:
                    first, second = second, first
                keys.append((first.attr, second.attr))
        return tuple(sorted(set(keys)))

    @cached_property
    def fd_shape(self) -> tuple[tuple[int, ...], int] | None:
        """(key attrs, right-hand attr) when the rule is the FD `keys -> rhs`.

        That is: every predicate compares t1.a with t2.a on one attribute a,
        at least one is EQ, exactly one is NEQ, and the NEQ attribute is not a
        key.  Any other rule gives None.
        """
        keys: set[int] = set()
        rhs: list[int] = []
        for pred in self.predicates:
            if not (
                isinstance(pred.rhs, TupleRef)
                and pred.lhs.var != pred.rhs.var
                and pred.lhs.attr == pred.rhs.attr
            ):
                return None
            if pred.op == "EQ":
                keys.add(pred.lhs.attr)
            else:
                rhs.append(pred.lhs.attr)
        if not keys or len(rhs) != 1 or rhs[0] in keys:
            return None
        return tuple(sorted(keys)), rhs[0]


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


def parse_dc_file(path, schema: Schema) -> list[DenialConstraint]:
    """Read constraints one per line; `#` starts a comment, blank lines are skipped."""
    constraints: list[DenialConstraint] = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a byte-order mark
    except OSError as exc:
        raise ParseError(f"cannot open constraint file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"constraint file {path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        dc_id = f"dc_{len(constraints) + 1}"
        constraints.append(parse_dc(line, schema, dc_id=dc_id, lineno=lineno))
    return constraints


def _eval_predicate(
    pred: Predicate,
    row1: Sequence[int],
    row2: Sequence[int] | None,
    store: RelationStore,
) -> bool:
    lhs_row = row1 if pred.lhs.var == T1 else row2
    lv = lhs_row[pred.lhs.attr]
    if isinstance(pred.rhs, Const):
        if lv == NULL_ID:
            # a null cell only ever matches EQ against a null-token constant
            return pred.op == "EQ" and pred.rhs.text in store.null_tokens
        equal = store.interner.resolve(pred.lhs.attr, lv) == pred.rhs.text
    else:
        rhs_row = row1 if pred.rhs.var == T1 else row2
        rv = rhs_row[pred.rhs.attr]
        if lv == NULL_ID or rv == NULL_ID:
            return False
        if pred.lhs.attr == pred.rhs.attr:
            equal = lv == rv
        else:
            equal = store.interner.resolve(pred.lhs.attr, lv) == store.interner.resolve(
                pred.rhs.attr, rv
            )
    return equal if pred.op == "EQ" else not equal


def _satisfies(
    dc: DenialConstraint, store: RelationStore, t1: int, t2: int | None, rows=None
) -> bool:
    """Whether tuple t1 (and t2, for a pair rule) satisfy every predicate.
    `rows` maps tids to rows already read out of the store, if given."""
    read = store.tuple_values if rows is None else rows.__getitem__
    row1, row2 = read(t1), None if t2 is None else read(t2)
    return all(_eval_predicate(pred, row1, row2, store) for pred in dc.predicates)


def _cells(dc: DenialConstraint, role: int, tids) -> np.ndarray:
    """The cells `dc` reads through `role` in each of the ascending `tids`, as
    (tid, attr) rows in (tid, attr) order."""
    attrs = dc.var_attrs[role]
    tids = np.asarray(tids, dtype=np.int64)
    return np.stack([np.repeat(tids, len(attrs)), np.tile(attrs, len(tids))], axis=1)


def _fd_violations(
    dc: DenialConstraint,
    store: RelationStore,
    probe_tids: np.ndarray,
    reference_tids: np.ndarray,
) -> np.ndarray:
    """`violations` for an FD-shaped rule, over the value-id columns.

    A null key or right-hand cell takes no part, as in the pairwise path.  The
    distinct (key, right-hand value) rows give each key's number of right-hand
    values.  A probe tuple whose key holds two or more has a partner with
    another value, and the rule is symmetric in t1 and t2, so its cells are
    flagged.
    """
    keys, rhs = dc.fd_shape
    tids = np.concatenate([probe_tids, reference_tids])
    rows = store.values[tids[:, None], [*keys, rhs]]
    live = (rows != NULL_ID).all(axis=1)
    is_probe = (np.arange(len(tids)) < len(probe_tids))[live]
    tids, rows = tids[live], rows[live]
    # number the distinct keys, and find one row per distinct (key, right-hand value)
    key = np.unique(_whole_rows(rows[:, :-1]), return_inverse=True)[1]
    first = np.unique(_whole_rows(rows), return_index=True)[1]
    rhs_values = np.bincount(key[first])
    return _cells(dc, T1, tids[is_probe & (rhs_values[key] > 1)])


def _whole_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one opaque value, so rows compare whole."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)


def _pair_violations(
    dc: DenialConstraint,
    store: RelationStore,
    probe_tids: list[int],
    reference_tids: list[int],
) -> np.ndarray:
    """`violations` for any other pair rule: a hash join on the cross-tuple EQ keys.

    Every tuple is bucketed by its key in the t1 role and in the t2 role; a
    rule without such a key puts every tuple in one bucket under the empty
    key.  A tuple with a null key cell joins nothing.
    """
    keys = dc.join_keys
    t1_attrs = [first for first, _ in keys]
    t2_attrs = [second for _, second in keys]
    # value ids are interned per attribute, so a key joining two different
    # attributes compares strings
    cross = [first != second for first, second in keys]

    rows = store.values.tolist()

    def key_of(tid: int, attrs: list[int]) -> tuple[int | str, ...] | None:
        row = rows[tid]
        values = tuple(row[attr] for attr in attrs)
        if NULL_ID in values:
            return None
        return tuple(
            store.interner.resolve(attr, vid) if by_string else vid
            for attr, vid, by_string in zip(attrs, values, cross)
        )

    by_t1: defaultdict[tuple[int | str, ...], list[int]] = defaultdict(list)
    by_t2: defaultdict[tuple[int | str, ...], list[int]] = defaultdict(list)
    for tid in probe_tids + reference_tids:
        for attrs, buckets in ((t1_attrs, by_t1), (t2_attrs, by_t2)):
            key = key_of(tid, attrs)
            if key is not None:
                buckets[key].append(tid)
    as_t1, as_t2 = [], []
    for tid in probe_tids:
        partners = by_t2.get(key_of(tid, t1_attrs), ())
        if any(u != tid and _satisfies(dc, store, tid, u, rows) for u in partners):
            as_t1.append(tid)
        partners = by_t1.get(key_of(tid, t2_attrs), ())
        if any(u != tid and _satisfies(dc, store, u, tid, rows) for u in partners):
            as_t2.append(tid)
    return union_cells([_cells(dc, T1, as_t1), _cells(dc, T2, as_t2)], store.n_attrs)


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

    An FD-shaped rule (see `DenialConstraint.fd_shape`) counts each key's
    distinct right-hand values with `np.unique` over the value-id columns of
    the probe and reference tuples.  Every other rule takes the pairwise
    search: it buckets the tuples by the rule's cross-tuple EQ keys and tests
    each probe tuple against the partners in its buckets, stopping at the
    first violating one in each role.  A probe tuple without a violating
    partner is tested against its whole bucket.
    """
    probe_tids = _tids(store, probe)
    if dc.arity == 1:
        rows = dict(zip(probe_tids.tolist(), store.values[probe_tids].tolist()))
        return _cells(dc, T1, [tid for tid in rows if _satisfies(dc, store, tid, None, rows)])

    reference_tids = np.setdiff1d(_tids(store, reference), probe_tids, assume_unique=True)
    if dc.fd_shape is not None:
        return _fd_violations(dc, store, probe_tids, reference_tids)
    return _pair_violations(dc, store, probe_tids.tolist(), reference_tids.tolist())


def _tids(store: RelationStore, tids: Iterable[int]) -> np.ndarray:
    """Distinct tuple ids in ascending order, each checked to lie in the store."""
    tids = np.sort(np.fromiter(set(tids), dtype=np.int64))
    for tid in tids[(tids < 0) | (tids >= store.n_tuples)][:1]:
        raise DataError(f"tuple id {tid} is out of range")
    return tids
