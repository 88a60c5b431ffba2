"""Finitely presented groups read off a knot diagram.

Two readings are implemented.  The arc-generator presentation has one
generator per arc and one conjugation relator per crossing.  The
region-based presentation has a meridian M, a longitude L, one pillar
generator per crossing, and one relator per region plus the commutator
[L, M]; it comes from the handle decomposition of the diagram's
complement, with the base edge picking where the longitude hangs.

Words are flat sequences of (generator index, +-1) letters.  Relators
are stored freely and cyclically reduced but otherwise untouched, so a
presentation keeps one relator per crossing / region until
tietze_simplify is asked to clean it up.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .diagram import Diagram
from .groups import FiniteGroup
from .snf import smith_diagonal
from .solve import search

Letter = tuple[int, int]


class NoCrossingsError(ValueError):
    """The region-based presentation needs at least one crossing."""


# ---------------------------------------------------------------- words


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def cyclic_reduce(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    w = list(letters)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def invert(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple((g, -e) for g, e in reversed(letters))


def canonical_letters(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Least rotation of the lexicographically smaller of a cyclic word
    and its inverse.  Two relators name the same unoriented cyclic word
    exactly when their canonical forms agree."""
    w = cyclic_reduce(free_reduce(letters))
    if not w:
        return ()
    best = None
    for cand in (w, invert(w)):
        for i in range(len(cand)):
            rot = cand[i:] + cand[:i]
            if best is None or rot < best:
                best = rot
    return best


class Word(NamedTuple):
    """A group word, exponents +-1 per letter; len() counts the
    letters, not the tuple's one field."""

    letters: tuple[Letter, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def render(self, names: Sequence[str]) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, e in self.letters:
            parts.append(names[g] if e > 0 else names[g] + "⁻¹")
        return " ".join(parts)


class Generator(NamedTuple):
    name: str
    role: str  # "arc", "meridian", "longitude" or "pillar"
    index: int | None = None


class GroupPresentation:
    def __init__(self, generators: tuple[Generator, ...],
                 relators: tuple[Word, ...]):
        self.generators = generators
        self.relators = relators
        n = len(generators)
        for w in relators:
            for g, e in w.letters:
                if not 0 <= g < n:
                    raise ValueError("relator names generator %d of %d" % (g, n))
                if e not in (-1, 1):
                    raise ValueError("letter exponents must be +-1")
            if w.letters != cyclic_reduce(free_reduce(w.letters)):
                raise ValueError("relators must be freely and cyclically reduced")

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def render_relators(self) -> list[str]:
        names = self.generator_names
        return [w.render(names) for w in self.relators]

    def json_dict(self) -> dict:
        names = self.generator_names
        return {
            "generators": list(names),
            "relators": [[[names[g], e] for g, e in w.letters] for w in self.relators],
        }


def make_presentation(generators: Sequence[Generator],
                      relators: Iterable[Sequence[Letter]]) -> GroupPresentation:
    words = tuple(Word(cyclic_reduce(free_reduce(r))) for r in relators)
    return GroupPresentation(tuple(generators), words)


# ------------------------------------------------- arc presentation


def wirtinger(d: Diagram) -> GroupPresentation:
    """One generator per arc, one relator per crossing.

    At a positive crossing with under-in arc a, over arc b, under-out
    arc c the relator is c^-1 b^-1 a b; at a negative one c^-1 b a b^-1.
    Duplicates and empties are kept so the relator count always equals
    the crossing count.
    """
    arcs = d.arcs
    gens = [Generator("x%d" % a.index, "arc", a.index) for a in arcs]
    rels = []
    for x in d.crossings:
        a = d.arc_of_edge[x.under_in]
        b = d.arc_of_edge[x.over_in]
        c = d.arc_of_edge[x.under_out]
        if x.sign > 0:
            rels.append([(c, -1), (b, -1), (a, 1), (b, 1)])
        else:
            rels.append([(c, -1), (b, 1), (a, 1), (b, -1)])
    return make_presentation(gens, rels)


# ---------------------------------------------- region presentation


def alexander_briggs(d: Diagram, base_edge: int | None = None) -> GroupPresentation:
    """Region-based presentation: M, L, one pillar per crossing, one
    relator per region plus the commutator [L, M].

    Each region relator reads the region's boundary walk.  At a corner
    the walk transfers between the two strands through the crossing's
    pillar: at an even quadrant it arrives on the under-strand and
    climbs, reading the pillar inverted; at an odd quadrant it descends,
    reading the pillar plain.  M marks where the walk sweeps across the
    meridian wall, a fence that runs along the left side of every
    strand: it is swept exactly when the region lies left of the
    transfer's under-strand edge, before the pillar on a climb (as M^-1)
    and after it on a descent (as M).  L marks the longitude collar on
    the base edge next to its head crossing: riding the base edge into
    that crossing reads L, backing out across the collar reads L^-1.
    The base edge defaults to the over-in edge of crossing 0.
    """
    n = d.crossing_count
    if n == 0:
        raise NoCrossingsError("diagram has no crossings")

    if base_edge is None:
        base_edge = d.crossings[0].over_in
    if not 1 <= base_edge <= d.edge_count:
        raise ValueError("base edge %d out of range 1..%d"
                         % (base_edge, d.edge_count))

    hc, role = d.edge_head[base_edge]
    if role == "U":
        arrival = 0
    else:
        arrival = 1 if d.crossings[hc].sign > 0 else 3

    M, L = 0, 1
    gens = [Generator("M", "meridian"), Generator("L", "longitude")]
    gens += [Generator("p%d" % i, "pillar", i) for i in range(n)]

    rels: list[list[Letter]] = [[(L, -1), (M, -1), (L, 1), (M, 1)]]
    for region in d.regions:
        word: list[Letter] = []
        walk = region.boundary
        for i, corner in enumerate(walk):
            q = corner.crossing
            s = corner.quadrant
            if s % 2 == 0:
                wall_side = corner.side
            else:
                wall_side = walk[(i + 1) % len(walk)].side
            swept = wall_side == "L"
            if q == hc and s == arrival:
                word.append((L, 1))
            if s % 2 == 0:
                if swept:
                    word.append((M, -1))
                word.append((2 + q, -1))
            else:
                word.append((2 + q, 1))
                if swept:
                    word.append((M, 1))
            if q == hc and (s + 1) % 4 == arrival:
                word.append((L, -1))
        rels.append(word)
    return make_presentation(gens, rels)


# ------------------------------------------------- Tietze moves

# a generator is not eliminated when substituting it would make some
# relator longer than this
MAX_RELATOR_LENGTH = 64


def _normalize(rels: list[list[Letter]]) -> list[list[Letter]]:
    out: list[list[Letter]] = []
    seen: set[tuple[Letter, ...]] = set()
    for r in rels:
        w = cyclic_reduce(free_reduce(r))
        if not w:
            continue
        key = canonical_letters(w)
        if key in seen:
            continue
        seen.add(key)
        out.append(list(w))
    return out


def _rotations(w: Sequence[Letter]):
    for i in range(len(w)):
        yield tuple(w[i:]) + tuple(w[:i])


def _shorten_once(rels: list[list[Letter]]) -> list[list[Letter]] | None:
    """Replace a chunk of one relator, more than half of another relator
    long, by the complementary shorter chunk.  Returns the new relator
    list on success."""
    for ri, r in enumerate(rels):
        for si, s in enumerate(rels):
            if si == ri or len(s) < 2:
                continue
            others = list(_rotations(s)) + list(_rotations(invert(s)))
            hi = min(len(r), len(s))
            for k in range(hi, len(s) // 2, -1):
                for rr in _rotations(r):
                    u = rr[:k]
                    for ss in others:
                        if ss[:k] != u:
                            continue
                        cand = cyclic_reduce(free_reduce(
                            invert(ss[k:]) + rr[k:]))
                        if len(cand) < len(r):
                            out = [list(x) for x in rels]
                            out[ri] = list(cand)
                            return out
    return None


def _substitute(r: Sequence[Letter], g: int,
                sol: Sequence[Letter]) -> tuple[Letter, ...]:
    inv_sol = invert(sol)
    out: list[Letter] = []
    for gi, e in r:
        if gi == g:
            out.extend(sol if e > 0 else inv_sol)
        else:
            out.append((gi, e))
    return free_reduce(out)


def _eliminate_once(gens: list[Generator], rels: list[list[Letter]]):
    order = sorted(range(len(rels)), key=lambda i: (len(rels[i]), i))
    for ridx in order:
        r = rels[ridx]
        counts: dict[int, int] = {}
        for gi, _ in r:
            counts[gi] = counts.get(gi, 0) + 1
        singles = sorted((gi for gi, c in counts.items() if c == 1),
                         reverse=True)
        for g in singles:
            pos = next(i for i, (gi, _) in enumerate(r) if gi == g)
            rot = tuple(r[pos:]) + tuple(r[:pos])
            rest = rot[1:]
            sol = invert(rest) if rot[0][1] > 0 else rest

            new_rels = []
            ok = True
            for i, other in enumerate(rels):
                if i == ridx:
                    continue
                sub = _substitute(other, g, sol)
                if len(sub) > MAX_RELATOR_LENGTH:
                    ok = False
                    break
                new_rels.append(list(sub))
            if not ok:
                continue

            # drop the defining relator and the generator, reindex
            del gens[g]
            remap = lambda gi: gi if gi < g else gi - 1
            final = [[(remap(gi), e) for gi, e in rr] for rr in new_rels]
            return gens, final
    return None


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Iteratively reduce a presentation: reduce and deduplicate
    relators, shorten relators against each other, and eliminate
    generators that occur exactly once in some relator (preferring short
    relators, and the highest-index generator within one) as long as no
    substituted relator grows past MAX_RELATOR_LENGTH letters."""
    gens = list(p.generators)
    rels = [list(w.letters) for w in p.relators]
    while True:
        rels = _normalize(rels)
        shorter = _shorten_once(rels)
        if shorter is not None:
            rels = shorter
            continue
        dropped = _eliminate_once(gens, rels)
        if dropped is not None:
            gens, rels = dropped
            continue
        break
    return make_presentation(gens, rels)


# ------------------------------------------------- invariants


def abelianize(p: GroupPresentation) -> tuple[int, ...]:
    """Invariant factors of the abelianized presentation, one entry per
    generator: the Smith diagonal padded with zeros."""
    n = len(p.generators)
    matrix = []
    for w in p.relators:
        row = [0] * n
        for g, e in w.letters:
            row[g] += e
        matrix.append(row)
    diag = smith_diagonal(matrix) if matrix and n else []
    return tuple(diag + [0] * (n - len(diag)))


def hom_count(p: GroupPresentation, g: FiniteGroup,
              stats: dict | None = None) -> int:
    """Number of homomorphisms from the presented group into g.  A
    relator in which a generator occurs once determines that
    generator's image from the others, so the search (solve.py)
    branches only on images nothing determines.  Generators missing
    from every relator contribute a free factor of |g| each.
    ``stats``, if given, collects branch points, forced steps and
    nodes."""
    n = len(p.generators)
    one = n     # a variable pinned to the identity
    mul = g.rows
    div = [[row[j] for j in g.inverses] for row in mul]   # a * x^-1

    def fold(word: Sequence[Letter]) -> tuple:
        return tuple((mul if e > 0 else div, gi) for gi, e in word)

    cons = []
    for r in (w.letters for w in p.relators):
        seen = Counter(gi for gi, _ in r)
        solvers = {}
        for i, (gi, e) in enumerate(r):
            if seen[gi] == 1:
                # gi^e * rest == 1
                rest = r[i + 1:] + r[:i]
                solvers[gi] = (one, fold(rest if e < 0 else invert(rest)))
        cons.append((one, fold(r), one, solvers))
    return search(n + 1, g.order, cons, known={one: g.identity},
                  stats=stats)
