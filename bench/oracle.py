"""Exact answers computed without the library.

Fox colorings: the dihedral quandle R_p colors a knot diagram in
p ** nullity ways, where nullity is that of the crossing matrix over
Z/p (one row per crossing, 2*over - in - out).  The matrix is read
straight off the PD text and reduced here, so neither the library's
parser nor its Smith form (a measured layer) is trusted.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


def _crossing_rows(pd: str) -> tuple[list[tuple[int, int, int]], int]:
    """(in arc, over arc, out arc) per crossing, and the arc count."""
    quads = [tuple(int(v) for v in m.groups())
             for m in _TOKEN.finditer(pd.replace(" ", ""))]
    parent = {}

    def find(e: int) -> int:
        while parent.setdefault(e, e) != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    # the two over-edges of a crossing lie on one arc
    for a, b, c, d in quads:
        parent[find(b)] = find(d)
    roots = sorted({find(e) for q in quads for e in q})
    arc = {r: i for i, r in enumerate(roots)}
    rows = [(arc[find(a)], arc[find(b)], arc[find(c)]) for a, b, c, d in quads]
    return rows, len(roots)


def fox_coloring_total(pd: str, p: int) -> int:
    """Number of R_p colorings of the diagram, p prime."""
    if pd.strip() == "U":
        return p
    rows, n_arcs = _crossing_rows(pd)
    pivots: dict[int, dict[int, int]] = {}     # pivot column -> reduced row
    rank = 0
    for a, b, c in rows:
        row: dict[int, int] = {}
        for col, v in ((b, 2), (a, -1), (c, -1)):
            row[col] = (row.get(col, 0) + v) % p
        row = {k: v for k, v in row.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in row.items()}
                rank += 1
                break
            f = row[col]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return p ** (n_arcs - rank)
