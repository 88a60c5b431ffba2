"""Small finite groups as Cayley tables.

Composition reads left to right: ``rows[i][j]`` is "do i, then j".
For permutation groups that means (i * j)(x) = j(i(x)).  This is the
order that makes conjugation ``y^-1 x y`` agree with the tetrahedral
quandle table used elsewhere in the package, so don't flip it.
"""

from __future__ import annotations

from itertools import permutations
from operator import index
import re

# checking group laws or quandle axioms is cubic in the order, so cap it
MAX_VALIDATED_ORDER = 120


class OutOfRangeError(ValueError):
    """A table is not a square grid of element indices."""


def square_rows(table) -> list[list[int]]:
    """The table as nested lists of ints, after checking that it is a
    nonempty square grid of element indices 0..n-1 whose order is at
    most MAX_VALIDATED_ORDER.  Group and quandle tables share it."""
    try:
        rows = [list(row) for row in table]
    except TypeError:
        raise OutOfRangeError("table must be square") from None
    n = len(rows)
    if n == 0:
        raise OutOfRangeError("table must be nonempty")
    if n > MAX_VALIDATED_ORDER:
        raise ValueError("table order %d exceeds the validated maximum %d"
                         % (n, MAX_VALIDATED_ORDER))
    for a, row in enumerate(rows):
        if len(row) != n:
            raise OutOfRangeError(
                "table must be square: row %d has %d entries, not %d"
                % (a, len(row), n))
        for b, v in enumerate(row):
            try:
                v = row[b] = index(v)
            except TypeError:
                raise OutOfRangeError(
                    "entry table[%d][%d] is not an integer" % (a, b)) from None
            if not 0 <= v < n:
                raise OutOfRangeError(
                    "entry table[%d][%d] is outside 0..%d" % (a, b, n - 1))
    return rows


class FiniteGroup:
    def __init__(self, order: int, rows: list[list[int]], identity: int,
                 inverses: tuple[int, ...], name: str = "G",
                 element_names: tuple[str, ...] | None = None):
        self.order = order
        self.rows = rows
        self.identity = identity
        self.inverses = inverses
        self.name = name
        self.element_names = element_names

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def json_dict(self) -> dict:
        return {
            "order": self.order,
            "table": [list(row) for row in self.rows],
            "identity": self.identity,
        }


def from_table(table, name: str = "G", element_names=None) -> FiniteGroup:
    """Build a group from a Cayley table, verifying the group laws
    exhaustively (identity, associativity over all triples, inverses).
    Raises OutOfRangeError unless the table is a nonempty square grid
    of indices 0..n-1, and ValueError for orders above
    MAX_VALIDATED_ORDER or a failing law."""
    t = square_rows(table)
    n = len(t)

    rng = list(range(n))
    ids = [i for i in rng
           if t[i] == rng and all(t[a][i] == a for a in rng)]
    if len(ids) != 1:
        raise ValueError("table has no two-sided identity")
    e = ids[0]

    # (a*b)*c == a*(b*c), one row of c at a time
    for ta in t:
        for b in rng:
            if t[ta[b]] != [ta[x] for x in t[b]]:
                raise ValueError("table is not associative")

    inverses = []
    for i in rng:
        js = [j for j in rng if t[i][j] == e]
        if len(js) != 1 or t[js[0]][i] != e:
            raise ValueError("element %d has no two-sided inverse" % i)
        inverses.append(js[0])

    return FiniteGroup(n, t, e, tuple(inverses), name,
                       tuple(element_names) if element_names else None)


def _perm_parity(p) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def _perm_group(perms, name: str) -> FiniteGroup:
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[tuple(q[x] for x in p)] for q in perms] for p in perms]
    names = tuple("".join(map(str, p)) for p in perms)
    return from_table(table, name, names)


def symmetric_group(k: int) -> FiniteGroup:
    """S_k on {0..k-1}, elements enumerated in lexicographic one-line
    order so indices are stable across runs."""
    if not 2 <= k <= 5:
        raise ValueError("symmetric_group supports k in 2..5, got %r" % (k,))
    return _perm_group(sorted(permutations(range(k))), "S%d" % k)


def alternating_group(k: int) -> FiniteGroup:
    if not 3 <= k <= 5:
        raise ValueError("alternating_group supports k in 3..5, got %r" % (k,))
    perms = [p for p in sorted(permutations(range(k))) if _perm_parity(p) == 0]
    return _perm_group(perms, "A%d" % k)


def cyclic_group(n: int) -> FiniteGroup:
    if not 1 <= n <= MAX_VALIDATED_ORDER:
        raise ValueError("cyclic_group supports n in 1..%d, got %r"
                         % (MAX_VALIDATED_ORDER, n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return from_table(table, "Z%d" % n, tuple(str(i) for i in range(n)))


def conjugate(g: FiniteGroup, x: int, y: int) -> int:
    """y^-1 x y by table lookups."""
    return g.mul(g.mul(g.inv(y), x), y)


def group_by_name(name: str) -> FiniteGroup:
    """Resolve the builtin names accepted on the command line:
    S2..S5, A3..A5, Z<n>, in either case, with one to four ASCII
    digits (int() refuses strings past its digit limit)."""
    m = re.fullmatch(r"([SAZ])(\d{1,4})", name.strip(),
                     re.ASCII | re.IGNORECASE)
    if m is None:
        raise ValueError("unknown group name: %r" % (name,))
    make = {"S": symmetric_group, "A": alternating_group, "Z": cyclic_group}
    return make[m[1].upper()](int(m[2]))
