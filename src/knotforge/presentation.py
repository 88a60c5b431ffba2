"""Finitely presented groups read off a knot diagram.

Two readings are implemented.  The arc-generator presentation has one
generator per arc and one conjugation relator per crossing.  The
region-based presentation has a meridian M, a longitude L, one pillar
generator per crossing, and one relator per region plus the commutator
[L, M]; it comes from the handle decomposition of the diagram's
complement, with the base edge picking where the longitude hangs.

A relator is a plain tuple of (generator index, +-1) letters, and a
presentation's relators are a tuple of them.  Relators are stored
freely and cyclically reduced but otherwise untouched, so a
presentation keeps one relator per crossing / region until
tietze_simplify is asked to clean it up.  That repeats, until none
applies: reduce the relators and drop empty and duplicate ones; replace
a chunk of one relator longer than half of another relator by the
complementary chunk, longest chunks first; otherwise eliminate a
generator that occurs once in some relator, shortest relator first,
unless a substituted relator would pass MAX_RELATOR_LENGTH letters.
The result is deterministic but not minimal.
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


def _cyclic_words(w: tuple[Letter, ...]) -> list[tuple[Letter, ...]]:
    """Every rotation of w, then every rotation of its inverse."""
    out = []
    for x in (w, invert(w)):
        out += [x[i:] + x[:i] for i in range(len(x))]
    return out


def _solve_for(r: tuple[Letter, ...], i: int) -> tuple[Letter, ...]:
    """The word that letter i's generator equals by relator r, when
    that generator occurs in r only once: g^e * rest == 1."""
    rest = r[i + 1:] + r[:i]
    return rest if r[i][1] < 0 else invert(rest)


def canonical_letters(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Least rotation of the lexicographically smaller of a cyclic word
    and its inverse.  Two relators name the same unoriented cyclic word
    exactly when their canonical forms agree."""
    w = cyclic_reduce(free_reduce(letters))
    return min(_cyclic_words(w)) if w else ()


class Generator(NamedTuple):
    name: str
    role: str  # "arc", "meridian", "longitude" or "pillar"


class GroupPresentation:
    def __init__(self, generators: tuple[Generator, ...],
                 relators: tuple[tuple[Letter, ...], ...]):
        self.generators = generators
        self.relators = relators
        n = len(generators)
        for w in relators:
            for g, e in w:
                if not 0 <= g < n:
                    raise ValueError("relator names generator %d of %d" % (g, n))
                if e not in (-1, 1):
                    raise ValueError("letter exponents must be +-1")
            if w != cyclic_reduce(free_reduce(w)):
                raise ValueError("relators must be freely and cyclically reduced")

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def render_relators(self) -> list[str]:
        names = self.generator_names
        return [" ".join(names[g] if e > 0 else names[g] + "⁻¹"
                         for g, e in w) or "1" for w in self.relators]

    def json_dict(self) -> dict:
        names = self.generator_names
        return {
            "generators": list(names),
            "relators": [[[names[g], e] for g, e in w] for w in self.relators],
        }


def make_presentation(generators: Sequence[Generator],
                      relators: Iterable[Sequence[Letter]]) -> GroupPresentation:
    return GroupPresentation(tuple(generators), tuple(
        cyclic_reduce(free_reduce(r)) for r in relators))


# ------------------------------------------------- arc presentation


def wirtinger(d: Diagram) -> GroupPresentation:
    """One generator per arc, one relator per crossing.

    At a positive crossing with under-in arc a, over arc b, under-out
    arc c the relator is c^-1 b^-1 a b; at a negative one c^-1 b a b^-1.
    Duplicates and empties are kept so the relator count always equals
    the crossing count.
    """
    gens = [Generator("x%d" % i, "arc") for i in range(len(d.arcs))]
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
    gens += [Generator("p%d" % i, "pillar") for i in range(n)]

    rels: list[list[Letter]] = [[(L, -1), (M, -1), (L, 1), (M, 1)]]
    for walk in d.regions:
        word: list[Letter] = []
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


def _normalize(rels: list[tuple[Letter, ...]]) -> list[tuple[Letter, ...]]:
    out = []
    seen: set[tuple[Letter, ...]] = set()
    for r in rels:
        w = cyclic_reduce(free_reduce(r))
        if not w:
            continue
        key = canonical_letters(w)
        if key in seen:
            continue
        seen.add(key)
        out.append(w)
    return out


def _shorten_once(rels: list[tuple[Letter, ...]]) -> bool:
    """Replace a chunk of one relator, more than half of another relator
    long, by the complementary shorter chunk, longest chunks first.
    Edits rels in place; returns whether it did."""
    cyclic = [_cyclic_words(r) for r in rels]
    for ri, r in enumerate(rels):
        rotations = cyclic[ri][:len(r)]
        for si, s in enumerate(rels):
            if si == ri or len(s) < 2:
                continue
            for k in range(min(len(r), len(s)), len(s) // 2, -1):
                tails: dict[tuple[Letter, ...], tuple[Letter, ...]] = {}
                for w in cyclic[si]:
                    tails.setdefault(w[:k], w[k:])
                for rr in rotations:
                    tail = tails.get(rr[:k])
                    if tail is not None:
                        # k > |s|/2, so this is at most |r|+|s|-2k < |r| long
                        rels[ri] = cyclic_reduce(free_reduce(
                            invert(tail) + rr[k:]))
                        return True
    return False


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


def _eliminate_once(gens: list[Generator],
                    rels: list[tuple[Letter, ...]]) -> bool:
    """Drop a generator that occurs once in some relator, and that
    relator, substituting the generator's solution everywhere else.
    Edits gens and rels in place; returns whether it did."""
    for ridx in sorted(range(len(rels)), key=lambda i: (len(rels[i]), i)):
        r = rels[ridx]
        counts = Counter(gi for gi, _ in r)
        singles = sorted(((gi, i) for i, (gi, _) in enumerate(r)
                          if counts[gi] == 1), reverse=True)
        for g, i in singles:
            sol = _solve_for(r, i)
            new_rels = []
            for j, other in enumerate(rels):
                if j == ridx:
                    continue
                sub = _substitute(other, g, sol)
                if len(sub) > MAX_RELATOR_LENGTH:
                    break
                new_rels.append(sub)
            else:
                # drop the defining relator and the generator, reindex
                del gens[g]
                rels[:] = [tuple((gi - 1 if gi > g else gi, e) for gi, e in w)
                           for w in new_rels]
                return True
    return False


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Iteratively reduce a presentation: reduce and deduplicate
    relators, shorten relators against each other, and eliminate
    generators that occur exactly once in some relator (preferring short
    relators, and the highest-index generator within one) as long as no
    substituted relator grows past MAX_RELATOR_LENGTH letters.  The
    result is deterministic but not minimal."""
    gens = list(p.generators)
    rels = list(p.relators)
    while True:
        rels = _normalize(rels)
        if not (_shorten_once(rels) or _eliminate_once(gens, rels)):
            return make_presentation(gens, rels)


# ------------------------------------------------- invariants


def abelianize(p: GroupPresentation) -> tuple[int, ...]:
    """Invariant factors of the abelianized presentation, one entry per
    generator: the Smith diagonal padded with zeros."""
    n = len(p.generators)
    matrix = []
    for w in p.relators:
        row = [0] * n
        for g, e in w:
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
    for r in p.relators:
        seen = Counter(gi for gi, _ in r)
        solvers = {gi: (one, fold(_solve_for(r, i)))
                   for i, (gi, _) in enumerate(r) if seen[gi] == 1}
        cons.append((one, fold(r), one, solvers))
    return search(n + 1, g.order, cons, known={one: g.identity},
                  stats=stats)
