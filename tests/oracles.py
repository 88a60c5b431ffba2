"""Slow reference implementations that the fast code is checked
against.  Everything here enumerates the whole search space, so keep
the inputs tiny."""

from __future__ import annotations

import itertools


def brute_color_total(d, q) -> int:
    """Try every arc assignment against every crossing."""
    arc = d.arc_of_edge
    cons = [(arc[x.under_in], arc[x.over_in], arc[x.under_out], x.sign)
            for x in d.crossings]
    t, inv = q.rows, q.inv_rows
    total = 0
    for assign in itertools.product(range(q.order), repeat=len(d.arcs)):
        for a, b, c, s in cons:
            want = t[assign[a]][assign[b]] if s > 0 else \
                inv[assign[a]][assign[b]]
            if assign[c] != want:
                break
        else:
            total += 1
    return total


def brute_colorings(d, q) -> list[tuple[int, ...]]:
    """Every coloring, in lexicographic order of the arc tuple."""
    arc = d.arc_of_edge
    cons = [(arc[x.under_in], arc[x.over_in], arc[x.under_out],
             q.rows if x.sign > 0 else q.inv_rows) for x in d.crossings]
    return [a for a in itertools.product(range(q.order), repeat=len(d.arcs))
            if all(a[o] == t[a[i]][a[b]] for i, b, o, t in cons)]


def word_image(letters, images, g) -> int:
    acc = g.identity
    for gi, e in letters:
        x = images[gi] if e > 0 else g.inv(images[gi])
        acc = g.mul(acc, x)
    return acc


def brute_hom_count(p, g, allowed=None) -> int:
    """Homomorphism count by full enumeration of generator images.

    allowed restricts every generator image to the given element
    indices, which turns the count into the constrained one that
    matches conjugation-quandle colorings.
    """
    pool = range(g.order) if allowed is None else list(allowed)
    total = 0
    for images in itertools.product(pool, repeat=len(p.generators)):
        if all(word_image(w, images, g) == g.identity
               for w in p.relators):
            total += 1
    return total


def sympy_smith_diagonal(matrix) -> list[int]:
    """Nonzero invariant factors via sympy, signs normalized."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    m = Matrix(matrix)
    if m.rows == 0 or m.cols == 0:
        return []
    s = smith_normal_form(m)
    out = []
    for i in range(min(s.rows, s.cols)):
        v = abs(int(s[i, i]))
        if v:
            out.append(v)
    return out


def canonical_pd_brute(d) -> str:
    """canonical_pd by rendering every rotation of the edge numbering,
    sorting each one's tokens, and keeping the least text."""
    if d.unknot_flag:
        return "U"
    m = d.edge_count
    best = None
    for shift in range(m):
        relabel = lambda e: (e - 1 - shift) % m + 1
        toks = sorted(tuple(relabel(e) for e in x.slots) for x in d.crossings)
        text = ";".join("X[%d,%d,%d,%d]" % t for t in toks)
        if best is None or text < best:
            best = text
    return best


def braid_closure_pd(word, strands: int) -> str:
    """PD code of the closure of a braid word, or ValueError when the
    closure has more than one component.

    Letter +i crosses the strands at positions i-1 and i with the left
    one over, -i with the right one over.  Strands run down the page
    and close up around the right side.  Segments between crossings
    get ids as they appear, the bottom segment at each position is
    glued to the top one, and the knot is then walked once to number
    its edges 1..2n in order.
    """
    at = list(range(strands))       # segment now at each position
    made = strands
    # per crossing: top left, top right, bottom left, bottom right
    # segments, and whether the left strand passes over
    xs = []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise ValueError("letter %d outside 1..%d" % (g, strands - 1))
        xs.append((at[i], at[i + 1], made, made + 1, g > 0))
        at[i], at[i + 1] = made, made + 1
        made += 2
    glue = {bottom: top for top, bottom in enumerate(at)}

    def seg(s):
        return glue.get(s, s)

    # the strand from the top left leaves bottom right, and vice versa
    after = {}
    for tl, tr, bl, br, _ in xs:
        after[seg(tl)] = seg(br)
        after[seg(tr)] = seg(bl)
    label = {}
    s = seg(xs[0][0])
    while s not in label:
        label[s] = len(label) + 1
        s = after[s]
    if len(label) != 2 * len(xs):
        raise ValueError("closure has more than one component")
    toks = []
    for tl, tr, bl, br, left_over in xs:
        tl, tr, bl, br = (label[seg(v)] for v in (tl, tr, bl, br))
        # counterclockwise from the incoming under-edge
        quad = (tr, tl, bl, br) if left_over else (tl, bl, br, tr)
        toks.append("X[%d,%d,%d,%d]" % quad)
    return ";".join(toks)


def random_braid_knot(rng, strands: int, length: int) -> str:
    """PD code of a knotted closure of a uniformly drawn braid word;
    length is bumped by one when its parity could never give a knot."""
    if length % 2 != (strands - 1) % 2:
        length += 1
    letters = [s * i for i in range(1, strands) for s in (1, -1)]
    while True:
        try:
            return braid_closure_pd(
                [rng.choice(letters) for _ in range(length)], strands)
        except ValueError:
            pass


def fox_total(d, p: int) -> int:
    """R_p coloring count, p prime, as p ** nullity of the crossing
    matrix over GF(p): one row 2*over - in - out per crossing.  Arcs
    come from gluing each crossing's two over-edges, not from the
    diagram's own arc tracing."""
    parent = {}

    def root(e):
        while parent.setdefault(e, e) != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for x in d.crossings:
        parent[root(x.slots[1])] = root(x.slots[3])
    roots = {root(e) for x in d.crossings for e in x.slots}
    if not roots:
        return p
    pivots = {}                     # leading column -> reduced row
    for x in d.crossings:
        row = {}
        for e, v in ((x.slots[1], 2), (x.slots[0], -1), (x.slots[2], -1)):
            r = root(e)
            row[r] = (row.get(r, 0) + v) % p
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                f = pow(row[c], -1, p)
                pivots[c] = {k: v * f % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return p ** (len(roots) - len(pivots))
