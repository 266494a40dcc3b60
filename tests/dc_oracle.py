"""Scalar reference for denial-constraint violations: every predicate read
through the interner's strings, one tuple or ordered pair at a time.

`dc.violations` counts partners over value-id columns; this module evaluates
the rule on each tuple and pair the slow way, so the two must agree.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from increpair.dc import T1, Const, DenialConstraint, Predicate
from increpair.relation import NULL_ID, CellRef, RelationStore

from conftest import cell_rows


def eval_predicate(
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


def satisfies(dc: DenialConstraint, store: RelationStore, t1: int, t2: int | None) -> bool:
    """Whether tuple t1 (and t2, for a pair rule) satisfy every predicate."""
    row1 = store.tuple_values(t1)
    row2 = None if t2 is None else store.tuple_values(t2)
    return all(eval_predicate(pred, row1, row2, store) for pred in dc.predicates)


def brute_force(dc: DenialConstraint, store, probe, reference=()):
    """O(n^2) oracle: try every ordered pair touching the probe set."""
    probe = sorted(set(probe))
    pool = sorted(set(probe) | set(reference))
    groups = set()
    if dc.arity == 1:
        for tid in probe:
            if satisfies(dc, store, tid, None):
                groups.add(frozenset(CellRef(tid, a) for a in dc.var_attrs[0]))
        return groups
    for t, u in itertools.permutations(pool, 2):
        if t not in probe and u not in probe:
            continue
        if satisfies(dc, store, t, u):
            cells = {CellRef(t, a) for a in dc.var_attrs[0]}
            cells.update(CellRef(u, a) for a in dc.var_attrs[1])
            groups.add(frozenset(cells))
    return groups


def probe_cells(groups, probe):
    """The cells of the oracle's groups that belong to probe tuples, as the
    (tid, attr) rows `violations` lists."""
    probe = set(probe)
    return cell_rows({cell for group in groups for cell in group if cell.tid in probe}).tolist()
