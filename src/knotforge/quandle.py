"""Finite quandles and coloring counts on knot diagrams.

A quandle is an operation table satisfying idempotence (I), column
invertibility (II) and right self-distributivity (III).  Colorings
assign quandle elements to diagram arcs; at a positive crossing the
outgoing under-arc gets in <| over, at a negative one the column
inverse applies, so non-involutory quandles color correctly in both
directions.
"""

from __future__ import annotations

from itertools import permutations
import re
from typing import NamedTuple

from .diagram import Diagram
# OutOfRangeError is raised by square_rows and exported from here too
from .groups import (MAX_VALIDATED_ORDER, FiniteGroup, OutOfRangeError,
                     conjugate, square_rows, symmetric_group)
from .solve import search


class NotClosedError(ValueError):
    """Conjugation leads outside the chosen subset."""


class AxiomCheck(NamedTuple):
    axiom: str
    ok: bool
    witness: tuple | None


class AxiomReport(NamedTuple):
    passed: bool
    checks: tuple[AxiomCheck, ...]

    def witness(self, axiom: str):
        for c in self.checks:
            if c.axiom == axiom:
                return c.witness
        return None


def _axiom_checks(t: list[list[int]]) -> tuple[AxiomCheck, ...]:
    """Axioms I..III on a validated table, each witness the first
    counterexample in (a, b, c) order."""
    n = len(t)
    w1 = next(((a,) for a in range(n) if t[a][a] != a), None)

    # II: every column is a permutation, i.e. repeats no entry
    w2 = None
    for b in range(n):
        first_row = [-1] * n
        for a in range(n):
            v = t[a][b]
            if first_row[v] >= 0:
                w2 = (first_row[v], a, b)
                break
            first_row[v] = a
        if w2 is not None:
            break

    # III: (a<|b)<|c == (a<|c)<|(b<|c), one row of c at a time
    w3 = None
    for a in range(n):
        ta = t[a]
        for b in range(n):
            lhs = t[ta[b]]
            rhs = [t[x][y] for x, y in zip(ta, t[b])]
            if lhs != rhs:
                c = next(c for c in range(n) if lhs[c] != rhs[c])
                w3 = (a, b, c)
                break
        if w3 is not None:
            break

    return (AxiomCheck("I", w1 is None, w1),
            AxiomCheck("II", w2 is None, w2),
            AxiomCheck("III", w3 is None, w3))


def check_axioms(table) -> AxiomReport:
    """Verify quandle axioms I..III over all triples, reporting the
    first counterexample of each failing axiom.  Raises OutOfRangeError
    unless table is a nonempty square grid of indices 0..n-1, and
    ValueError for orders above groups.MAX_VALIDATED_ORDER."""
    checks = _axiom_checks(square_rows(table))
    return AxiomReport(all(c.ok for c in checks), checks)


class FiniteQuandle:
    """``rows[a][b]`` is a <| b; ``inv_rows`` undoes it column by
    column, ``inv_rows[a <| b][b] == a``."""

    def __init__(self, order: int, rows: list[list[int]],
                 inv_rows: list[list[int]], name: str = "Q"):
        self.order = order
        self.rows = rows
        self.inv_rows = inv_rows
        self.name = name

    def json_dict(self) -> dict:
        return {
            "order": self.order,
            "table": [list(row) for row in self.rows],
        }


def from_table(table, name: str = "Q") -> FiniteQuandle:
    """Check the axioms and build the quandle; orders above
    groups.MAX_VALIDATED_ORDER are refused, since the check is cubic."""
    rows = square_rows(table)
    checks = _axiom_checks(rows)
    failing = [c for c in checks if not c.ok]
    if failing:
        raise ValueError("not a quandle: axiom %s fails at %r"
                         % (failing[0].axiom, failing[0].witness))
    n = len(rows)
    # column b of inv undoes column b of the table
    inv = [[0] * n for _ in range(n)]
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            inv[v][b] = a
    return FiniteQuandle(n, rows, inv, name)


def dihedral(n: int) -> FiniteQuandle:
    """R_n, the reflections of an n-gon: a <| b = 2b - a mod n."""
    if not 2 <= n <= MAX_VALIDATED_ORDER:
        raise ValueError("dihedral quandle needs n in 2..%d, got %r"
                         % (MAX_VALIDATED_ORDER, n))
    return from_table([[(2 * b - a) % n for b in range(n)] for a in range(n)],
                      "R%d" % n)


def conjugation_quandle(g: FiniteGroup, subset, name: str = "Conj") -> FiniteQuandle:
    """Quandle on a conjugation-closed subset of g, x <| y = y^-1 x y.

    Elements are indexed by their position in the given subset list.
    """
    elems = list(subset)
    if not elems:
        raise ValueError("subset must be nonempty")
    if len(set(elems)) != len(elems):
        raise ValueError("subset has repeated elements")
    for x in elems:
        if not 0 <= x < g.order:
            raise ValueError("subset element %r is not a group element index" % (x,))
    pos = {x: i for i, x in enumerate(elems)}
    k = len(elems)
    table = [[0] * k for _ in range(k)]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            z = conjugate(g, x, y)
            if z not in pos:
                raise NotClosedError(
                    "subset is not closed: conjugating element %d by %d "
                    "gives %d, which is outside it" % (x, y, z))
            table[i][j] = pos[z]
    return from_table(table, name)


def tetrahedral() -> FiniteQuandle:
    """QS4: the four oriented 3-cycles of S4 under conjugation, each
    labeled by the point it fixes."""
    perms = sorted(permutations(range(4)))
    rotations = [(0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3)]
    return conjugation_quandle(symmetric_group(4),
                               [perms.index(p) for p in rotations], "QS4")


def is_isomorphic(q1: FiniteQuandle, q2: FiniteQuandle) -> bool:
    """Exhaustive bijection search; only sensible for order <= 6."""
    if q1.order != q2.order:
        return False
    if q1.order > 6:
        raise ValueError("isomorphism search is exhaustive, order capped at 6")
    n = q1.order
    t1, t2 = q1.rows, q2.rows
    for sigma in permutations(range(n)):
        if all(sigma[t1[a][b]] == t2[sigma[a]][sigma[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


class ColoringCount(NamedTuple):
    total: int
    nontrivial: int


def _constraints(d: Diagram, q: FiniteQuandle) -> list[tuple]:
    """One rule per crossing, out = in <|^sign over, which solves the
    under-out arc from the other two, or the under-in arc backwards."""
    arc = d.arc_of_edge
    out = []
    for x in d.crossings:
        i, b, o = arc[x.under_in], arc[x.over_in], arc[x.under_out]
        fwd, back = (q.rows, q.inv_rows) if x.sign > 0 else \
            (q.inv_rows, q.rows)
        solvers = {}
        if o not in (i, b):
            solvers[o] = (i, ((fwd, b),))
        if i not in (o, b):
            solvers[i] = (o, ((back, b),))
        out.append((i, ((fwd, b),), o, solvers))
    return out


def count_colorings(d: Diagram, q: FiniteQuandle,
                    stats: dict | None = None) -> ColoringCount:
    """Exact number of colorings of d by q, and the count with the
    constant ones removed.  Arcs one crossing rule determines are
    solved, not tried; the search branches only on the few arcs that
    fix the rest (see solve.py).  ``stats``, if given, collects the
    search's branch points, forced steps and nodes."""
    total = search(len(d.arcs), q.order, _constraints(d, q), stats=stats)
    return ColoringCount(total, total - q.order)


def list_colorings(d: Diagram, q: FiniteQuandle,
                   limit: int | None = None) -> list[tuple[int, ...]]:
    """Satisfying colorings, each a tuple of quandle elements indexed
    by arc, in lexicographic order, at most limit of them if one is
    given.  Every coloring is found by the same search as
    count_colorings, then sorted."""
    found: list[tuple[int, ...]] = []
    search(len(d.arcs), q.order, _constraints(d, q), found=found)
    found.sort()
    if limit is not None:
        found = found[:max(limit, 0)]
    return found


def quandle_by_name(name: str) -> FiniteQuandle:
    """Builtin quandle names for the command line: R<n> and QS4, in
    either case, with one to four ASCII digits (int() refuses strings
    past its digit limit)."""
    m = re.fullmatch(r"R(\d{1,4})|(QS4)", name.strip(),
                     re.ASCII | re.IGNORECASE)
    if m is None:
        raise ValueError("unknown quandle name: %r" % (name,))
    return tetrahedral() if m[2] else dihedral(int(m[1]))
