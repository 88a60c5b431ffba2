"""Reidemeister moves on planar diagrams.

A diagram is flattened to its passage list: entry i describes the
crossing entered via edge i+1, as (crossing id, "U" or "O", sign).
Moves edit that list (insert a kink, delete a bigon, swap the order of
triangle passages) and the diagram is rebuilt from the result as
integer crossing quads, which go through the same validator parse_pd
ends with (edge degrees, slot order, one component, Euler count), so
every move output passed the same checks as parsed input.

A site's payload is a plain tuple that says where the move goes:
R1_ADD (edge, "OU" or "UO", sign), with edge 0 on the unknot;
R1_REMOVE (i, j), the two passage indices of the kink; R2_ADD
(edge a, side a, edge b, side b, over, region index); R2_REMOVE the two
crossing indices; R3 the triangle's three edges, sorted.  A site's
summary is derived from its kind and payload.  Sites are discovered
against a specific diagram and remember its PD text; applying a site to
any other diagram raises StaleSiteError.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, permutations, repeat
import random
from typing import NamedTuple

from .diagram import Diagram, _from_quads

KINDS = ("R1_ADD", "R1_REMOVE", "R2_ADD", "R2_REMOVE", "R3")

Passage = tuple[object, str, int]


class StaleSiteError(ValueError):
    """The site was found on a different diagram than the one given."""


class MoveSite(NamedTuple):
    kind: str
    payload: tuple
    signature: str  # PD text of the diagram the site belongs to

    @property
    def summary(self) -> str:
        k, p = self.kind, self.payload
        if k == "R1_ADD":
            sign = "+" if p[2] > 0 else "-"
            if p[0] == 0:
                return "add a %s kink to the unknot" % sign
            return "add a %s kink on edge %d (%s first)" % (
                sign, p[0], "over" if p[1] == "OU" else "under")
        if k == "R1_REMOVE":
            return ("remove the kink crossing entered via edges %d and %d"
                    % (p[0] + 1, p[1] + 1))
        if k == "R2_ADD":
            return "push edge %d %s edge %d across region %d" % (
                p[0], "over" if p[4] else "under", p[2], p[5])
        if k == "R2_REMOVE":
            return "cancel the bigon between crossings %d and %d" % p
        return "slide the triangle bounded by edges %d, %d, %d" % p

    def __str__(self) -> str:
        return "%s: %s" % (self.kind, self.summary)


# ------------------------------------------------------------ plumbing


def _passages(d: Diagram) -> list[Passage]:
    heads = d.edge_head
    return [(ci, role, d.crossings[ci].sign)
            for ci, role in (heads[e] for e in range(1, d.edge_count + 1))]


def _pure_role(d: Diagram, e: int) -> str | None:
    """'O' or 'U' when edge e runs over (under) at both of its ends,
    else None.  The edge's tail passage is the one its predecessor
    runs into."""
    heads = d.edge_head
    role = heads[e][1]
    return role if heads[(e - 2) % d.edge_count + 1][1] == role else None


def _rebuild(passages: list[Passage]) -> Diagram:
    n2 = len(passages)
    # crossing id -> role -> passage index, in order of first passage
    where: dict[object, dict[str, int]] = {}
    for i, (cid, role, _) in enumerate(passages):
        slots = where.setdefault(cid, {})
        if role in slots:
            raise ValueError("crossing appears twice with role %s" % role)
        slots[role] = i
    quads = []
    for slots in where.values():
        if set(slots) != {"U", "O"}:
            raise ValueError("crossing is missing a passage")
        iu, io = slots["U"], slots["O"]
        sign = passages[iu][2]
        a = iu + 1
        c = a % n2 + 1
        oin = io + 1
        oout = oin % n2 + 1
        quads.append((a, oin, c, oout) if sign > 0 else (a, oout, c, oin))
    return _from_quads(quads)


# ------------------------------------------------------- site finders


def _r1_add_sites(d: Diagram) -> list[tuple]:
    if d.crossing_count == 0:
        return [(0, "OU", 1), (0, "OU", -1)]
    return [(e, order, sign) for e in range(1, d.edge_count + 1)
            for order in ("OU", "UO") for sign in (1, -1)]


def _r1_remove_sites(d: Diagram) -> list[tuple]:
    L = _passages(d)
    n2 = len(L)
    sites = []
    for i in range(n2):
        j = (i + 1) % n2
        if j != i and L[i][0] == L[j][0]:
            sites.append((i, j))
    return sites


def _r2_add_sites(d: Diagram) -> list[tuple]:
    return [(ca.edge, ca.side, cb.edge, cb.side, over, ri)
            for ri, corners in enumerate(d.regions)
            for ca, cb in permutations(corners, 2)
            for over in (True, False)]


def _r2_remove_sites(d: Diagram) -> list[tuple]:
    sites = []
    for b in d.regions:
        if len(b) != 2:
            continue
        c1, c2 = b
        if c1.crossing == c2.crossing:
            continue
        if d.crossings[c1.crossing].sign == d.crossings[c2.crossing].sign:
            continue
        if {_pure_role(d, c1.edge), _pure_role(d, c2.edge)} != {"O", "U"}:
            continue
        sites.append((c1.crossing, c2.crossing))
    return sites


def _r3_sites(d: Diagram) -> list[tuple]:
    sites = []
    for b in d.regions:
        if len(b) != 3:
            continue
        if len({c.crossing for c in b}) != 3:
            continue
        edges = [c.edge for c in b]
        # a slidable triangle has exactly one edge that runs over at
        # both of its endpoints (and then necessarily one that runs
        # under at both, plus one mixed edge)
        if sum(1 for e in edges if _pure_role(d, e) == "O") != 1:
            continue
        sites.append(tuple(sorted(edges)))
    return sites


_FINDERS = {
    "R1_ADD": _r1_add_sites,
    "R1_REMOVE": _r1_remove_sites,
    "R2_ADD": _r2_add_sites,
    "R2_REMOVE": _r2_remove_sites,
    "R3": _r3_sites,
}


def find_sites(d: Diagram, kind: str | None = None) -> list[MoveSite]:
    """All move sites of one kind, or of every kind in KINDS order."""
    if kind is not None and kind not in _FINDERS:
        raise ValueError("unknown move kind %r" % (kind,))
    sig = d.render_pd()
    # tuple.__new__ skips MoveSite's Python-level __new__, one call per site
    return list(map(partial(tuple.__new__, MoveSite), chain.from_iterable(
        zip(repeat(k), _FINDERS[k](d), repeat(sig))
        for k in (KINDS if kind is None else (kind,)))))


# ------------------------------------------------------------- apply


def _apply_r1_add(d: Diagram, payload) -> Diagram:
    e, order, sign = payload
    L = _passages(d)
    cid = d.crossing_count
    if order == "OU":
        pair = [(cid, "O", sign), (cid, "U", sign)]
    else:
        pair = [(cid, "U", sign), (cid, "O", sign)]
    pos = e - 1 if e else 0
    L[pos:pos] = pair
    return _rebuild(L)


def _apply_r1_remove(d: Diagram, payload) -> Diagram:
    i, j = payload
    L = _passages(d)
    for k in sorted((i, j), reverse=True):
        del L[k]
    return _rebuild(L)


def _apply_r2_add(d: Diagram, payload) -> Diagram:
    ea, sa, eb, sb, over, _ = payload
    yid, zid = d.crossing_count, d.crossing_count + 1
    # Y is met first along the pushed edge, Z second.  The target strand
    # meets them in that same order exactly when the two corners see the
    # region from opposite sides.  The finger always approaches the
    # target from the region's side of it, which fixes the signs: Y is
    # positive when pushing over a target whose region side is L, or
    # under one whose region side is R, and Z cancels it.
    s1 = 1 if over == (sb == "L") else -1
    rf, rt = ("O", "U") if over else ("U", "O")
    fpair = [(yid, rf, s1), (zid, rf, -s1)]
    if sa != sb:
        tpair = [(yid, rt, s1), (zid, rt, -s1)]
    else:
        tpair = [(zid, rt, -s1), (yid, rt, s1)]
    # ea != eb: a knot diagram has no bridge, so no region lists one
    # edge at two corners
    L = _passages(d)
    for pos, pair in sorted([(ea - 1, fpair), (eb - 1, tpair)],
                            reverse=True):
        L[pos:pos] = pair
    return _rebuild(L)


def _apply_r2_remove(d: Diagram, payload) -> Diagram:
    ci, cj = payload
    L = _passages(d)
    drop = sorted(
        (i for i, p in enumerate(L) if p[0] in (ci, cj)), reverse=True)
    for i in drop:
        del L[i]
    return _rebuild(L)


def _apply_r3(d: Diagram, payload) -> Diagram:
    L = _passages(d)
    n2 = len(L)
    for e in payload:
        i, j = (e - 2) % n2, (e - 1) % n2
        L[i], L[j] = L[j], L[i]
    return _rebuild(L)


_APPLIERS = {
    "R1_ADD": _apply_r1_add,
    "R1_REMOVE": _apply_r1_remove,
    "R2_ADD": _apply_r2_add,
    "R2_REMOVE": _apply_r2_remove,
    "R3": _apply_r3,
}


def apply(d: Diagram, site: MoveSite) -> Diagram:
    """Perform a move at a site found on this very diagram."""
    if site.signature != d.render_pd():
        raise StaleSiteError(
            "site was found on %r, not %r" % (site.signature, d.render_pd()))
    return _APPLIERS[site.kind](d, site.payload)


# ------------------------------------------------------------- walks


def random_walk(d: Diagram, steps: int, seed: int,
                max_crossings: int = 16) -> list[Diagram]:
    """Seeded random sequence of moves.  Returns the list of visited
    diagrams, the start included, so the result has steps+1 entries.
    Growing moves are excluded when they would push the crossing count
    past max_crossings; a step with no sites at all keeps the diagram.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0, got %d" % steps)
    rng = random.Random(seed)
    out = [d]
    cur = d
    for _ in range(steps):
        n = cur.crossing_count
        sites = [(kind, p) for kind in KINDS
                 if not (kind == "R1_ADD" and n + 1 > max_crossings
                         or kind == "R2_ADD" and n + 2 > max_crossings)
                 for p in _FINDERS[kind](cur)]
        if sites:
            kind, payload = sites[rng.randrange(len(sites))]
            # the site was found on cur, so apply's staleness check
            # could not fire
            cur = _APPLIERS[kind](cur, payload)
        out.append(cur)
    return out
