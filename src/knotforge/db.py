"""Built-in knot table, pairwise separation verdicts, and invariant
reports.

The table holds the three desk knots.  Reports compute every cell
through the library proper, so a report cell can always be checked
against a direct call; pair verdicts reuse the rows' coloring totals.
The JSON form uses plain dicts, lists, strings and ints and parses
back to itself.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

from .diagram import Diagram, parse_pd
from .groups import FiniteGroup
from .presentation import abelianize, hom_count, tietze_simplify, wirtinger
from .quandle import FiniteQuandle, count_colorings


class UnknownKnotError(KeyError):
    """Asked for a knot the built-in table does not have."""


class KnotRecord(NamedTuple):
    name: str
    pd: str
    note: str

    def diagram(self) -> Diagram:
        return parse_pd(self.pd)


_TABLE = (
    KnotRecord("unknot", "U", "round zero-crossing circle"),
    KnotRecord("trefoil", "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]",
               "three crossings, all positive"),
    KnotRecord("figure8", "X[1,4,2,5];X[3,7,4,6];X[5,8,6,1];X[7,3,8,2]",
               "alternating four-crossing diagram"),
)
_BY_NAME = {r.name: r for r in _TABLE}


def builtin_names() -> tuple[str, ...]:
    return tuple(r.name for r in _TABLE)


def builtin(name: str) -> KnotRecord:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownKnotError(
            "unknown knot %r (have: %s)"
            % (name, ", ".join(builtin_names()))) from None


# the table is data; parse it once, loudly, when the module loads
for _rec in _TABLE:
    _rec.diagram()


# ------------------------------------------------------- separation


class Verdict(NamedTuple):
    verdict: str  # "DISTINCT" or "INCONCLUSIVE"
    witness: str | None = None
    counts: tuple[int, int] | None = None

    def __str__(self) -> str:
        if self.verdict != "DISTINCT":
            return self.verdict
        return "DISTINCT (%s: %d vs %d)" % (
            self.witness, self.counts[0], self.counts[1])


def distinguish(a: KnotRecord, b: KnotRecord,
                quandles: Sequence[FiniteQuandle]) -> Verdict:
    """Compare coloring totals quandle by quandle; the first mismatch
    separates the knots.  Equal counts all the way down decide nothing
    (colorings can only tell knots apart, never confirm sameness), so
    that outcome is INCONCLUSIVE rather than any claim of equality.
    """
    da, db = a.diagram(), b.diagram()
    return _verdict(quandles, ((count_colorings(da, q).total,
                                count_colorings(db, q).total)
                               for q in quandles))


def _verdict(quandles: Sequence[FiniteQuandle], totals) -> Verdict:
    """The verdict for (total a, total b) pairs given in quandle order;
    a lazy iterable stops counting at the first mismatch."""
    for q, (ca, cb) in zip(quandles, totals):
        if ca != cb:
            return Verdict("DISTINCT", q.name, (ca, cb))
    return Verdict("INCONCLUSIVE")


# ---------------------------------------------------------- reports


def _h1_text(factors: Sequence[int]) -> str:
    parts = ["Z/%d" % d for d in factors if d > 1]
    parts += ["Z"] * list(factors).count(0)
    return "+".join(parts) if parts else "0"


class InvariantReport(NamedTuple):
    quandle_names: tuple[str, ...]
    group_names: tuple[str, ...]
    knots: tuple[dict, ...]
    pairwise: tuple[dict, ...]

    def json_dict(self) -> dict:
        return {
            "quandles": list(self.quandle_names),
            "groups": list(self.group_names),
            "knots": [dict(r) for r in self.knots],
            "pairwise": [dict(p) for p in self.pairwise],
        }

    def to_json(self) -> str:
        return json.dumps(self.json_dict(), indent=2, sort_keys=True)

    def text(self) -> str:
        if not self.knots:
            return "no knots\n"
        head = ["knot", "crossings", "writhe"]
        head += ["%s tot/non" % q for q in self.quandle_names]
        head += ["wirtinger", "simplified"]
        head += ["hom %s" % g for g in self.group_names]
        head += ["H1"]
        body = []
        for r in self.knots:
            row = [r["name"], str(r["crossings"]), str(r["writhe"])]
            for q in self.quandle_names:
                row.append("%d/%d" % tuple(r["colorings"][q]))
            row.append("%dg %dr" % tuple(r["wirtinger"]))
            row.append("%dg %dr" % tuple(r["simplified"]))
            for g in self.group_names:
                row.append(str(r["homs"][g]))
            row.append(_h1_text(r["h1"]))
            body.append(row)
        widths = [max(len(h), *(len(b[i]) for b in body))
                  for i, h in enumerate(head)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip()]
        for row in body:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if self.pairwise:
            lines.append("")
            for p in self.pairwise:
                v = Verdict(p["verdict"], p["witness"],
                            tuple(p["counts"]) if p["counts"] else None)
                lines.append("%s vs %s: %s" % (p["a"], p["b"], v))
        return "\n".join(lines) + "\n"


def report(knots: Sequence[KnotRecord],
           quandles: Sequence[FiniteQuandle],
           groups: Sequence[FiniteGroup]) -> InvariantReport:
    """One row per knot, one separation verdict per pair.

    Rows follow the input order.  Each pair's verdict is read off the
    coloring totals the rows already hold, by the same rule as
    ``distinguish``.
    """
    recs = list(knots)
    qs = list(quandles)
    gs = list(groups)

    rows: list[dict] = []
    totals: list[list[int]] = []
    for rec in recs:
        d = rec.diagram()
        pres = wirtinger(d)
        counts = [count_colorings(d, q) for q in qs]
        simple = tietze_simplify(pres)
        rows.append({
            "name": rec.name,
            "pd": rec.pd,
            "crossings": d.crossing_count,
            "writhe": d.writhe,
            "colorings": {q.name: list(c) for q, c in zip(qs, counts)},
            "wirtinger": [len(pres.generators), len(pres.relators)],
            "simplified": [len(simple.generators), len(simple.relators)],
            "homs": {g.name: hom_count(pres, g) for g in gs},
            "h1": list(abelianize(pres)),
        })
        totals.append([c.total for c in counts])

    pairs = []
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            v = _verdict(qs, zip(totals[i], totals[j]))
            pairs.append({
                "a": recs[i].name,
                "b": recs[j].name,
                "verdict": v.verdict,
                "witness": v.witness,
                "counts": list(v.counts) if v.counts else None,
            })

    return InvariantReport(
        tuple(q.name for q in qs), tuple(g.name for g in gs),
        tuple(rows), tuple(pairs))
