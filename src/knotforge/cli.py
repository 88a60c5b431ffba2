"""Command-line surface.

One verb per library operation so each can be scripted on its own.
Diagrams come from --pd (a PD code) or --knot (a built-in name), never
both.  Exit codes: 0 success, 1 the computation failed (bad PD, no
crossings where some are needed), 2 the request itself was wrong
(usage, unknown knot/quandle/group name).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import db
from .diagram import Diagram, DiagramError, parse_pd
from .groups import group_by_name
from .moves import KINDS, find_sites, random_walk
from .presentation import (NoCrossingsError, abelianize, alexander_briggs,
                           hom_count, tietze_simplify, wirtinger)
from .quandle import count_colorings, list_colorings, quandle_by_name


class _ResolutionError(Exception):
    """A name or option on the command line does not resolve."""


def _diagram(args) -> Diagram:
    if args.pd is not None:
        return parse_pd(args.pd)
    try:
        return db.builtin(args.knot).diagram()
    except db.UnknownKnotError as e:
        raise _ResolutionError(e.args[0]) from None


def _resolve(by_name, names: str) -> list:
    """Comma-separated quandle or group names, each looked up by
    by_name; blank entries are skipped."""
    out = []
    for tok in names.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(by_name(tok))
        except ValueError as e:
            raise _ResolutionError(str(e)) from None
    return out


def _record(token: str) -> db.KnotRecord:
    """A positional knot argument: built-in name or literal PD code."""
    try:
        return db.builtin(token)
    except db.UnknownKnotError:
        pass
    if token == "U" or "X[" in token:
        parse_pd(token)
        return db.KnotRecord(token, token, "given on the command line")
    raise _ResolutionError(
        "unknown knot %r (give a built-in name or a PD code)" % token)


def _emit(args, obj: dict, text: str, stats: dict | None = None) -> None:
    """Print obj as JSON with --json, else text; search stats, when
    given, go in obj or as a last JSON line."""
    if stats is not None:
        obj["stats"] = stats
        text += "\n" + json.dumps({"stats": stats}, sort_keys=True)
    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _presentation(args, d: Diagram):
    if args.presentation == "ab":
        return alexander_briggs(d)
    return wirtinger(d)


# ------------------------------------------------------------- verbs


def _cmd_validate(args) -> int:
    d = _diagram(args)
    info = d.json_dict()
    info["arcs"] = len(d.arcs)
    info["regions"] = len(d.regions)
    _emit(args, info,
          "ok: %d crossings, %d edges, writhe %d, %d arcs, %d regions"
          % (d.crossing_count, d.edge_count, d.writhe,
             len(d.arcs), len(d.regions)))
    return 0


def _cmd_invariants(args) -> int:
    if args.pd is not None or args.knot is not None:
        recs = [db.KnotRecord("input", args.pd, "given on the command line")
                if args.pd is not None else db.builtin(args.knot)]
    else:
        recs = [db.builtin(n) for n in db.builtin_names()]
    for r in recs:
        r.diagram()
    rep = db.report(recs, _resolve(quandle_by_name, args.quandles),
                    _resolve(group_by_name, args.groups))
    _emit(args, rep.json_dict(), rep.text())
    return 0


def _cmd_colorings(args) -> int:
    d = _diagram(args)
    q = _resolve(quandle_by_name, args.quandle)
    if len(q) != 1:
        raise _ResolutionError("--quandle wants exactly one name")
    q = q[0]
    if args.list is not None and args.list < 0:
        raise _ResolutionError("--list wants N >= 0, got %d" % args.list)
    stats = {} if args.stats else None
    count = count_colorings(d, q, stats=stats)
    obj = {"quandle": q.name, "total": count.total,
           "nontrivial": count.nontrivial}
    lines = ["%s: total %d, nontrivial %d"
             % (q.name, count.total, count.nontrivial)]
    if args.list is not None:
        limit = args.list if args.list > 0 else None
        cols = list_colorings(d, q, limit=limit)
        obj["colorings"] = [list(c) for c in cols]
        lines += [" ".join(map(str, c)) for c in cols]
    _emit(args, obj, "\n".join(lines), stats)
    return 0


def _cmd_wirtinger(args) -> int:
    d = _diagram(args)
    p = wirtinger(d)
    _emit(args, p.json_dict(), _pres_text(p))
    return 0


def _cmd_ab(args) -> int:
    d = _diagram(args)
    e = args.base_edge
    if e is not None and d.crossings and not 1 <= e <= d.edge_count:
        raise _ResolutionError(
            "base edge %d out of range 1..%d" % (e, d.edge_count))
    p = alexander_briggs(d, base_edge=e)
    _emit(args, p.json_dict(), _pres_text(p))
    return 0


def _pres_text(p) -> str:
    lines = ["generators: " + " ".join(p.generator_names)]
    lines += ["  %s" % r for r in p.render_relators()]
    return "\n".join(lines)


def _cmd_simplify(args) -> int:
    d = _diagram(args)
    before = _presentation(args, d)
    after = tietze_simplify(before)
    obj = {
        "before": {"generators": len(before.generators),
                   "relators": len(before.relators)},
        "after": after.json_dict(),
    }
    text = "%dg %dr -> %dg %dr\n%s" % (
        len(before.generators), len(before.relators),
        len(after.generators), len(after.relators), _pres_text(after))
    _emit(args, obj, text)
    return 0


def _cmd_homcount(args) -> int:
    d = _diagram(args)
    p = _presentation(args, d)
    groups = _resolve(group_by_name, args.groups)
    stats = {g.name: {} for g in groups} if args.stats else None
    counts = [(g.name, hom_count(p, g, stats and stats[g.name]))
              for g in groups]
    obj = {"presentation": args.presentation,
           "counts": {n: c for n, c in counts},
           "abelianization": list(abelianize(p))}
    text = "\n".join("%s: %d" % nc for nc in counts)
    _emit(args, obj, text, stats)
    return 0


def _cmd_moves(args) -> int:
    d = _diagram(args)
    if args.action == "sites":
        sites = find_sites(d, args.kind)
        obj = {"sites": [str(s) for s in sites]}
        _emit(args, obj, "\n".join(str(s) for s in sites) or "none")
        return 0
    if args.steps < 0:
        raise _ResolutionError("--steps must be >= 0, got %d" % args.steps)
    cap = args.cap
    if cap is None:
        cap = d.crossing_count + 6
    walk = random_walk(d, args.steps, seed=args.seed, max_crossings=cap)
    pds = [w.render_pd() for w in walk]
    _emit(args, {"seed": args.seed, "steps": args.steps, "walk": pds},
          "\n".join(pds))
    return 0


def _cmd_distinguish(args) -> int:
    a, b = _record(args.a), _record(args.b)
    v = db.distinguish(a, b, _resolve(quandle_by_name, args.quandles))
    obj = {"a": a.name, "b": b.name, "verdict": v.verdict,
           "witness": v.witness,
           "counts": list(v.counts) if v.counts else None}
    _emit(args, obj, "%s vs %s: %s" % (a.name, b.name, v))
    return 0


# ------------------------------------------------------------ parser


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="knotforge",
        description="knot diagram invariants from PD codes")
    sub = top.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    def diagram_verb(name, fn, helptext, required=True, extra=None):
        p = sub.add_parser(name, parents=[common], help=helptext)
        sel = p.add_mutually_exclusive_group(required=required)
        sel.add_argument("--pd", help="PD code, e.g. 'X[1,4,2,5];...' or U")
        sel.add_argument("--knot", help="built-in name: %s"
                         % ", ".join(db.builtin_names()))
        if extra:
            extra(p)
        p.set_defaults(func=fn)
        return p

    diagram_verb("validate", _cmd_validate,
                 "parse a diagram and print its shape")

    def inv_opts(p):
        p.add_argument("--quandles", default="R3,QS4")
        p.add_argument("--groups", default="S3,A4")
    diagram_verb("invariants", _cmd_invariants,
                 "full report (all built-ins when no diagram is given)",
                 required=False, extra=inv_opts)

    def col_opts(p):
        p.add_argument("--quandle", default="R3")
        p.add_argument("--list", type=int, nargs="?", const=0, default=None,
                       metavar="N", help="also print colorings (N = 0: all)")
        p.add_argument("--stats", action="store_true",
                       help="also print search stats as JSON")
    diagram_verb("colorings", _cmd_colorings,
                 "count quandle colorings", extra=col_opts)

    diagram_verb("wirtinger", _cmd_wirtinger,
                 "arc presentation of the knot group")

    def ab_opts(p):
        p.add_argument("--base-edge", type=int, default=None)
    diagram_verb("ab", _cmd_ab,
                 "region presentation of the knot group", extra=ab_opts)

    def pres_opts(p):
        p.add_argument("--presentation", choices=("wirtinger", "ab"),
                       default="wirtinger")
    diagram_verb("simplify", _cmd_simplify,
                 "eliminate generators until the presentation stabilizes",
                 extra=pres_opts)

    def hom_opts(p):
        pres_opts(p)
        p.add_argument("--groups", default="S3")
        p.add_argument("--stats", action="store_true",
                       help="also print search stats as JSON")
    diagram_verb("homcount", _cmd_homcount,
                 "count homomorphisms to finite groups", extra=hom_opts)

    def moves_opts(p):
        p.add_argument("action", choices=("walk", "sites"))
        p.add_argument("--kind", choices=KINDS, default=None,
                       help="restrict 'sites' to one move kind")
        p.add_argument("--steps", type=int, default=10)
        p.add_argument("--seed", type=int, default=0,
                       help="random seed for 'walk'")
        p.add_argument("--cap", type=int, default=None,
                       help="crossing-count cap for walks (default: current+6)")
    diagram_verb("moves", _cmd_moves,
                 "random Reidemeister walk or site listing",
                 extra=moves_opts)

    p = sub.add_parser("distinguish", parents=[common],
                       help="separate two knots by coloring counts")
    p.add_argument("a", help="built-in name or PD code")
    p.add_argument("b", help="built-in name or PD code")
    p.add_argument("--quandles", default="R3,QS4")
    p.set_defaults(func=_cmd_distinguish)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _ResolutionError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except db.UnknownKnotError as e:
        print("error: %s" % e.args[0], file=sys.stderr)
        return 2
    except (DiagramError, NoCrossingsError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
