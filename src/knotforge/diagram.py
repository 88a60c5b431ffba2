"""Planar diagram codes for oriented knots.

A diagram is written as a semicolon separated list of crossing tokens
``X[a,b,c,d]``, one per crossing, or the single token ``U`` for the
zero-crossing unknot (which has no crossings to encode).  Each token
lists the four edge labels around the crossing in cyclic order starting
at the incoming under-edge.  Edge labels run 1..2n consecutively along
the knot's orientation, so the successor of edge e is ``e % 2n + 1``;
the parser verifies the numbering rather than repairing it.

The crossing sign falls out of the slot order: the over-strand occupies
slots 1 and 3, and the crossing is positive exactly when slot 3 holds
the successor of slot 1 (the over-strand enters at slot 1).  With one
crossing both orientations are label-consistent and the tie is broken
by whether the over-strand enters on the edge that leaves the
under-strand.

Derived data are plain tuples, item i at position i: arc i is the
tuple of its edge labels, and region i is the tuple of Corners along
its boundary walk.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
import re
from typing import NamedTuple


class DiagramError(ValueError):
    """Base class for everything the parser or validator can reject."""


class MalformedTokenError(DiagramError):
    """Text does not scan as a PD code."""


class EdgeDegreeError(DiagramError):
    """An edge label is not used exactly twice, or a crossing's slot
    pairs are not consecutive along the strand."""


class MultiComponentError(DiagramError):
    """Edge labels do not trace a single closed strand (a link, not a knot)."""


class NonPlanarError(DiagramError):
    """Face tracing over the rotation system fails the Euler check."""


# ASCII only: Unicode \d would read other scripts' digits as labels
_TOKEN_RE = re.compile(
    r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]\Z", re.ASCII)


class Crossing(NamedTuple):
    """One crossing: slot 0 is the incoming under-edge, slots continue
    cyclically, and the sign is inferred from the slot order."""

    slots: tuple[int, int, int, int]
    sign: int

    @property
    def under_in(self) -> int:
        return self.slots[0]

    @property
    def under_out(self) -> int:
        return self.slots[2]

    @property
    def over_in(self) -> int:
        return self.slots[1] if self.sign > 0 else self.slots[3]

    @property
    def over_out(self) -> int:
        return self.slots[3] if self.sign > 0 else self.slots[1]

    def out_slots(self) -> tuple[int, int]:
        return (2, 3) if self.sign > 0 else (2, 1)


class Corner(NamedTuple):
    """One step of a region boundary: the edge traversed, which way it
    was traversed ('L' means along the knot's orientation), and the
    crossing plus quadrant the step arrives at.  Quadrant q is the
    sector between slots q and q+1 of that crossing."""

    edge: int
    side: str
    crossing: int
    quadrant: int


class Diagram:
    """A validated knot diagram; build one with parse_pd.  The derived
    tables below are computed on first use and kept."""

    def __init__(self, crossings: tuple[Crossing, ...], edge_count: int,
                 unknot_flag: bool = False):
        self.crossings = crossings
        self.edge_count = edge_count
        self.unknot_flag = unknot_flag

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def succ(self, edge: int) -> int:
        """The next edge along the knot's orientation."""
        return edge % self.edge_count + 1

    @cached_property
    def edge_head(self) -> dict[int, tuple[int, str]]:
        """edge label -> (crossing index, 'U' or 'O') of the passage the
        edge runs into."""
        heads: dict[int, tuple[int, str]] = {}
        for i, x in enumerate(self.crossings):
            heads[x.under_in] = (i, "U")
            heads[x.over_in] = (i, "O")
        return heads

    @cached_property
    def arcs(self) -> tuple[tuple[int, ...], ...]:
        """Arc i as its edge labels: a maximal run of edges from one
        undercrossing exit to the next undercrossing entry.  Arcs are
        what quandle colorings color."""
        if self.unknot_flag:
            # one arc covering the whole circle; there are no numbered edges
            return ((),)
        arcs = []
        for start in sorted(x.under_out for x in self.crossings):
            edges = [start]
            e = start
            while self.edge_head[e][1] == "O":
                e = self.succ(e)
                edges.append(e)
            arcs.append(tuple(edges))
        return tuple(arcs)

    @cached_property
    def arc_of_edge(self) -> dict[int, int]:
        return {e: i for i, a in enumerate(self.arcs) for e in a}

    @cached_property
    def regions(self) -> tuple[tuple[Corner, ...], ...]:
        """Region i, a complementary face of the diagram, as its cyclic
        boundary."""
        if self.unknot_flag:
            # the circle splits the plane into two faces with no corners
            return ((), ())
        # dart 4*i + s is slot s of crossing i; other[dart] is the dart
        # at the far end of the same edge.  A face turns from the dart
        # it arrives at to the next slot around that crossing.
        xs = self.crossings
        other = _dart_pairing(xs)
        seen = [False] * len(other)
        out: list[tuple[Corner, ...]] = []
        for start in range(len(other)):
            if seen[start]:
                continue
            boundary = []
            dart = start
            while not seen[dart]:
                seen[dart] = True
                x = xs[dart >> 2]
                s = dart & 3
                side = "L" if s in x.out_slots() else "R"
                far = other[dart]
                boundary.append(Corner(x.slots[s], side, far >> 2, far & 3))
                dart = far + 1 if far & 3 != 3 else far - 3
            out.append(tuple(boundary))
        return tuple(out)

    @property
    def writhe(self) -> int:
        return sum(x.sign for x in self.crossings)

    def render_pd(self) -> str:
        if self.unknot_flag:
            return "U"
        return ";".join("X[%d,%d,%d,%d]" % x.slots for x in self.crossings)

    def to_gauss(self) -> str:
        """Signed over/under sequence along the edge cycle, crossings
        numbered by first visit."""
        if self.unknot_flag:
            return ""
        names: dict[int, int] = {}
        parts = []
        for e in range(1, self.edge_count + 1):
            ci, role = self.edge_head[e]
            if ci not in names:
                names[ci] = len(names) + 1
            sign = "+" if self.crossings[ci].sign > 0 else "-"
            parts.append("%s%d%s" % (role if role == "U" else "O", names[ci], sign))
        return "".join(parts)

    def json_dict(self) -> dict:
        return {
            "crossings": [list(x.slots) for x in self.crossings],
            "signs": [x.sign for x in self.crossings],
        }


def _dart_pairing(crossings: tuple[Crossing, ...]) -> list[int]:
    """Pair each dart 4*i + s (slot s of crossing i) with the other
    occurrence of its edge label."""
    first = [-1] * (2 * len(crossings) + 1)
    other = [0] * (4 * len(crossings))
    for dart, e in enumerate(e for x in crossings for e in x.slots):
        mate = first[e]
        if mate < 0:
            first[e] = dart
        else:
            other[dart] = mate
            other[mate] = dart
    return other


def parse_pd(text: str) -> Diagram:
    """Parse and fully validate a PD code.

    Raises MalformedTokenError, EdgeDegreeError, MultiComponentError or
    NonPlanarError; a returned Diagram always satisfies the Euler check
    V - E + F = 2.
    """
    stripped = text.strip()
    if stripped == "U":
        return _from_quads([])
    if not stripped:
        raise MalformedTokenError("empty PD code")

    raw = [t.strip() for t in stripped.split(";")]
    quads = []
    for tok in raw:
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise MalformedTokenError("bad crossing token: %r" % tok)
        try:
            quads.append(tuple(int(g) for g in m.groups()))
        except ValueError:
            # past int()'s digit limit, and so past any edge count
            raise MalformedTokenError(
                "edge label too long: %d digits"
                % max(len(g) for g in m.groups())) from None
    return _from_quads(quads)


def _from_quads(quads: list[tuple[int, int, int, int]]) -> Diagram:
    """The diagram of the given crossing quads, each listing its edge
    labels from the incoming under-edge, after every check parse_pd
    makes; an empty list is the unknot.  Raises EdgeDegreeError,
    MultiComponentError or NonPlanarError."""
    if not quads:
        return Diagram((), 0, True)
    n = len(quads)
    counts = Counter(e for q in quads for e in q)
    for e in sorted(counts):
        if not 1 <= e <= 2 * n:
            raise EdgeDegreeError(
                "edge label %d outside 1..%d" % (e, 2 * n))
    for e in range(1, 2 * n + 1):
        if counts[e] != 2:
            raise EdgeDegreeError(
                "edge label %d used %d times, expected exactly 2" % (e, counts[e]))

    def succ(e: int) -> int:
        return e % (2 * n) + 1

    crossings = []
    for i, (a, b, c, d) in enumerate(quads):
        if c != succ(a):
            raise EdgeDegreeError(
                "crossing %d: under-edges (%d,%d) are not consecutive" % (i, a, c))
        pos = d == succ(b)
        neg = b == succ(d)
        if pos and neg:
            sign = 1 if b == c else -1
        elif pos:
            sign = 1
        elif neg:
            sign = -1
        else:
            raise EdgeDegreeError(
                "crossing %d: over-edges (%d,%d) are not consecutive" % (i, b, d))
        crossings.append(Crossing((a, b, c, d), sign))

    entered: dict[int, int] = {}
    for i, x in enumerate(crossings):
        for e in (x.under_in, x.over_in):
            if e in entered:
                raise MultiComponentError(
                    "edge %d enters two crossings; the labels do not trace "
                    "a single closed strand" % e)
            entered[e] = i

    d = Diagram(tuple(crossings), 2 * n, False)
    faces = len(d.regions)
    if n - 2 * n + faces != 2:
        raise NonPlanarError(
            "Euler check failed: V-E+F = %d-%d+%d != 2" % (n, 2 * n, faces))
    return d


def canonical_pd(d: Diagram) -> str:
    """Least PD text over all rotations of the edge numbering, tokens
    sorted by edge tuple; move round-trips are compared by it.

    The least text starts ``X[1,`` (``"X[1,"`` < ``"X[10,"`` <
    ``"X[2,"``), so only the n rotations that relabel some under-in
    edge to 1 are candidates, and each lists the crossings in under-in
    order from its start.  If the crossings' descriptors (slot offsets
    from the under-in edge, gap to the next under-in edge) repeat with
    period p, found by the KMP failure function, starts i and i + p
    give one text, so starts 0..p-1 suffice.  These play a tournament,
    token by token, keeping the starts whose token is least.  Token
    strings are compared, not tuples, as ``"10"`` < ``"9"``; no token is
    a prefix of another, so this orders the texts.  At most n * p
    tokens are rendered; p = 1 on T(2, k).
    """
    if d.unknot_flag:
        return "U"
    quads = sorted(x.slots for x in d.crossings)
    n, m = len(quads), d.edge_count
    under = [q[0] for q in quads]
    # slot 2 is always one past slot 0, so its offset is left out
    desc = [((q[1] - u) % m, (q[3] - u) % m, (under[(i + 1) % n] - u) % m)
            for i, (u, q) in enumerate(zip(under, quads))]
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and desc[i] != desc[k]:
            k = fail[k - 1]
        if desc[i] == desc[k]:
            k += 1
        fail[i] = k
    p = n - fail[-1]    # the descriptors' cyclic period when it divides n

    def token(start: int, i: int) -> str:
        base = under[start]
        return "X[%d,%d,%d,%d]" % tuple(
            (e - base) % m + 1 for e in quads[(start + i) % n])

    alive = list(range(n if n % p else p))
    for i in range(n):
        if len(alive) == 1:
            break
        toks = [token(s, i) for s in alive]
        least = min(toks)
        alive = [s for s, t in zip(alive, toks) if t == least]
    return ";".join(token(alive[0], i) for i in range(n))
