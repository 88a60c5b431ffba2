"""Seeded input corpora, built without the library's move layer.

Braid closures are drawn straight from a braid word, so a change to
``knotforge.moves.random_walk`` cannot change the ``simplify`` or
``scale`` inputs.  Only PD text leaves this module.
"""

from __future__ import annotations

import random


def braid_closure_pd(word: list[int], strands: int) -> str:
    """PD code of the closure of a braid word.

    Letter ``+i`` is sigma_i (the strand coming from position i passes
    over), ``-i`` its inverse, 1 <= i < strands.  Strands run downward;
    the closing arcs pass to the right of the braid.  Each token lists
    its edges counterclockwise from the incoming under-edge.  Raises
    ValueError when the closure is not a single knot.
    """
    if not word:
        raise ValueError("empty braid word")
    if not _is_full_cycle(word, strands):
        raise ValueError("closure has more than one component")
    pos = list(range(strands))          # segment id held at each position
    nseg = strands
    crossings = []                      # (nw, ne, sw, se, positive)
    for g in word:
        i = abs(g) - 1
        nw, ne = pos[i], pos[i + 1]
        crossings.append((nw, ne, nseg, nseg + 1, g > 0))
        pos[i], pos[i + 1] = nseg, nseg + 1
        nseg += 2

    # the segment leaving position j at the bottom closes up into the
    # segment entering position j at the top
    alias = {pos[j]: j for j in range(strands)}

    def edge(s: int) -> int:
        return alias.get(s, s)

    # the strand entering NW leaves SE, the one entering NE leaves SW
    nxt = {}
    for nw, ne, sw, se, _ in crossings:
        nxt[edge(nw)] = edge(se)
        nxt[edge(ne)] = edge(sw)
    label = {}
    e = edge(crossings[0][0])
    while e not in label:
        label[e] = len(label) + 1
        e = nxt[e]

    toks = []
    for nw, ne, sw, se, positive in crossings:
        nw, ne, sw, se = (label[edge(s)] for s in (nw, ne, sw, se))
        if positive:    # NE runs under, NW over
            toks.append("X[%d,%d,%d,%d]" % (ne, nw, sw, se))
        else:           # NW runs under, NE over
            toks.append("X[%d,%d,%d,%d]" % (nw, sw, se, ne))
    return ";".join(toks)


def _is_full_cycle(word: list[int], strands: int) -> bool:
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise ValueError("letter %d outside 1..%d" % (g, strands - 1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, j = 0, 0
    while True:
        j = perm[j]
        seen += 1
        if j == 0:
            return seen == strands


def random_knot_word(rng: random.Random, strands: int,
                     length: int) -> list[int]:
    """A uniformly drawn braid word whose closure is a knot.

    The closure is a knot exactly when the word's permutation is one
    strands-cycle, whose parity is strands - 1; a length of the other
    parity could never qualify, so it is bumped by one first.
    """
    if strands < 2:
        raise ValueError("need at least two strands")
    if length % 2 != (strands - 1) % 2:
        length += 1
    letters = [s * i for i in range(1, strands) for s in (1, -1)]
    while True:
        word = [rng.choice(letters) for _ in range(length)]
        if _is_full_cycle(word, strands):
            return word


def torus_2_pd(k: int) -> str:
    """T(2, k), k odd: the closure of sigma_1^k."""
    return braid_closure_pd([1] * k, 2)


def simplify_corpus(seed: int | str, count: int) -> list[str]:
    """Closures of 3- and 4-strand braids with 12..16 crossings, the
    five (strands, length) classes of knot parity taken in turn so every
    run sees the same size mix."""
    rng = random.Random(seed)
    classes = [(3, 12), (4, 13), (3, 14), (4, 15), (3, 16)]
    out = []
    for i in range(count):
        strands, length = classes[i % len(classes)]
        out.append(braid_closure_pd(
            random_knot_word(rng, strands, length), strands))
    return out
