import json
import subprocess
import sys

import pytest

import knotforge
from knotforge import (
    alexander_briggs,
    builtin,
    builtin_names,
    count_colorings,
    dihedral,
    distinguish,
    hom_count,
    list_colorings,
    parse_pd,
    report,
    symmetric_group,
    tetrahedral,
    tietze_simplify,
    wirtinger,
)
from knotforge.cli import main
from knotforge.db import UnknownKnotError, Verdict
from knotforge.groups import group_by_name
from knotforge.quandle import from_table, quandle_by_name
from oracles import braid_closure_pd


def test_builtin_lookup():
    assert builtin_names() == ("unknot", "trefoil", "figure8")
    rec = builtin("trefoil")
    assert rec.diagram().crossing_count == 3
    with pytest.raises(UnknownKnotError) as e:
        builtin("granny")
    assert "granny" in str(e.value) and "figure8" in str(e.value)


def test_plain_tuple_data():
    # relators, colorings, arcs and regions are plain tuples
    for name in builtin_names():
        d = builtin(name).diagram()
        pres = [wirtinger(d)]
        if d.crossing_count:
            pres.append(alexander_briggs(d))
        pres += [tietze_simplify(p) for p in pres]
        rows = [r for p in pres for r in p.relators]
        rows += list_colorings(d, dihedral(3)) + list(d.arcs) + list(d.regions)
        assert rows and all(type(r) is tuple for r in rows), name
    assert len(set(knotforge.__all__)) == len(knotforge.__all__)
    for attr in knotforge.__all__:
        assert hasattr(knotforge, attr), attr


def test_distinguish_pairs():
    u, t, f = (builtin(n) for n in builtin_names())
    qs = [dihedral(3), tetrahedral()]
    v = distinguish(u, t, qs)
    assert v.verdict == "DISTINCT" and v.witness == "R3"
    assert v.counts == (3, 9)
    v = distinguish(t, f, qs)
    assert (v.witness, v.counts) == ("R3", (9, 3))
    v = distinguish(u, f, qs)
    # three-colorings tie at 3, the tetrahedral quandle breaks it
    assert (v.witness, v.counts) == ("QS4", (4, 16))
    assert str(distinguish(t, t, qs)) == "INCONCLUSIVE"
    assert "9 vs 3" in str(distinguish(t, f, qs))


def test_distinguish_no_quandles_is_inconclusive():
    t, f = builtin("trefoil"), builtin("figure8")
    assert distinguish(t, f, []).verdict == "INCONCLUSIVE"


def test_report_cells_match_direct_calls():
    knots = [builtin(n) for n in builtin_names()]
    qs = [dihedral(3), tetrahedral()]
    gs = [symmetric_group(3)]
    rep = report(knots, qs, gs)
    assert len(rep.knots) == 3
    assert len(rep.pairwise) == 3
    for rec, row in zip(knots, rep.knots):
        d = rec.diagram()
        assert row["name"] == rec.name
        assert row["crossings"] == d.crossing_count
        assert row["writhe"] == d.writhe
        for q in qs:
            c = count_colorings(d, q)
            assert tuple(row["colorings"][q.name]) == (c.total, c.nontrivial)
        assert row["homs"]["S3"] == hom_count(wirtinger(d), symmetric_group(3))
    byp = {(p["a"], p["b"]): p for p in rep.pairwise}
    assert byp[("unknot", "trefoil")]["verdict"] == "DISTINCT"
    assert byp[("trefoil", "figure8")]["witness"] == "R3"


def test_report_json_and_text():
    knots = [builtin("trefoil"), builtin("figure8")]
    rep = report(knots, [dihedral(3)], [symmetric_group(3)])
    parsed = json.loads(rep.to_json())
    assert [k["name"] for k in parsed["knots"]] == ["trefoil", "figure8"]
    text = rep.text()
    assert "trefoil" in text and "9/6" in text
    assert "trefoil vs figure8: DISTINCT (R3: 9 vs 3)" in text
    assert report([], [], []).text() == "no knots\n"


def test_report_verdicts_match_distinguish():
    # a trivial quandle and QS4 both named "R3", then the real R3: the
    # verdicts must come from each quandle's own counts, not from the
    # last quandle that carries the name
    trivial = from_table([[0, 0], [1, 1]], name="R3")
    fake = from_table(tetrahedral().rows, name="R3")
    qs = [trivial, fake, dihedral(3)]
    knots = [builtin(n) for n in builtin_names()]
    rep = report(knots, qs, [])
    want = [distinguish(a, b, qs)
            for i, a in enumerate(knots) for b in knots[i + 1:]]
    got = [Verdict(p["verdict"], p["witness"],
                   tuple(p["counts"]) if p["counts"] else None)
           for p in rep.pairwise]
    assert got == want
    assert got[0] == Verdict("DISTINCT", "R3", (4, 16))


def test_verdict_str():
    assert str(Verdict("INCONCLUSIVE")) == "INCONCLUSIVE"
    assert str(Verdict("DISTINCT", "R5", (25, 5))) == "DISTINCT (R5: 25 vs 5)"


# ------------------------------------------------------------- CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--pd",
                           "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert code == 0
    assert "3 crossings" in out


def test_cli_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", "--json", "--pd",
                           "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["crossings"]) == 3
    assert doc["signs"] == [1, 1, 1]
    assert doc["arcs"] == 3 and doc["regions"] == 5


def test_cli_validate_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "validate", "--pd",
                           "X[1,2,3,4];X[1,2,3,4]")
    assert code == 1
    assert err.strip()


def test_cli_overlong_edge_label_ends_cleanly(capsys):
    pd = "X[%s,1,2,3]" % ("9" * 5000)
    proc = subprocess.run(
        [sys.executable, "-m", "knotforge", "validate", "--pd", pd],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    code, out, err = run_cli(capsys, "distinguish", "trefoil", pd)
    assert code == 1 and not out and err.startswith("error: ")


def test_cli_seed_belongs_to_moves(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--knot", "trefoil", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_colorings(capsys):
    code, out, _ = run_cli(capsys, "colorings", "--knot", "trefoil")
    assert code == 0
    assert "9" in out
    code, out, _ = run_cli(capsys, "colorings", "--knot", "trefoil",
                           "--quandle", "QS4", "--json")
    assert code == 0
    assert json.loads(out)["total"] == 16


def test_cli_colorings_list(capsys):
    code, out, _ = run_cli(capsys, "colorings", "--knot", "trefoil", "--list", "4")
    assert code == 0
    rows = [l for l in out.splitlines() if "->" in l or ":" in l]
    assert rows


def test_cli_unknown_quandle_names_offender(capsys):
    code, _, err = run_cli(capsys, "colorings", "--knot", "trefoil",
                           "--quandle", "K7")
    assert code == 2
    assert "K7" in err


def test_names_take_ascii_digits_only(capsys):
    # other scripts' digits, superscripts and the long s (whose upper
    # case is S) are not part of a name
    for verb, opt, by_name, kind, names in (
            ("colorings", "--quandle", quandle_by_name, "quandle",
             ("R\u0663", "R\u00b2")),
            ("homcount", "--groups", group_by_name, "group",
             ("Z\u0661\u0662", "S\u00b3", "\u017f3"))):
        for name in names:
            msg = "unknown %s name: %r" % (kind, name)
            with pytest.raises(ValueError) as e:
                by_name(name)
            assert str(e.value) == msg
            code, out, err = run_cli(capsys, verb, "--knot", "trefoil",
                                     opt, name)
            assert (code, out, err) == (2, "", "error: %s\n" % msg)


def test_names_past_the_int_digit_limit_are_unknown(capsys):
    # int() refuses more than 4,300 digits; "R0...03" would name R3
    for verb, opt, by_name, kind, name in (
            ("homcount", "--groups", group_by_name, "group", "Z" + "9" * 4400),
            ("colorings", "--quandle", quandle_by_name, "quandle",
             "R" + "0" * 4399 + "3")):
        msg = "unknown %s name: %r" % (kind, name)
        with pytest.raises(ValueError) as e:
            by_name(name)
        assert str(e.value) == msg
        code, out, err = run_cli(capsys, verb, "--knot", "trefoil", opt, name)
        assert (code, out, err) == (2, "", "error: %s\n" % msg)


def test_cli_rejects_quandle_order_over_cap(capsys):
    code, out, err = run_cli(capsys, "colorings", "--knot", "trefoil",
                             "--quandle", "R121")
    assert code == 2
    assert out == "" and "121" in err


def test_cli_unknown_knot(capsys):
    code, _, err = run_cli(capsys, "colorings", "--knot", "granny")
    assert code == 2
    assert "granny" in err


def test_cli_invariants_defaults(capsys):
    code, out, _ = run_cli(capsys, "invariants")
    assert code == 0
    for name in ("unknot", "trefoil", "figure8"):
        assert name in out
    assert "INCONCLUSIVE" not in out  # the three builtins all separate


def test_cli_wirtinger_and_simplify(capsys):
    code, out, _ = run_cli(capsys, "wirtinger", "--knot", "trefoil")
    assert code == 0
    assert "x0" in out
    code, out, _ = run_cli(capsys, "simplify", "--knot", "trefoil",
                           "--presentation", "ab")
    assert code == 0
    assert "-> 2g1r" in out.replace(" r", "r").replace("g ", "g") or "2g" in out


def test_cli_ab_and_homcount(capsys):
    code, out, _ = run_cli(capsys, "ab", "--knot", "trefoil")
    assert code == 0
    assert "M" in out and "p0" in out
    code, out, _ = run_cli(capsys, "ab", "--knot", "unknot")
    assert code == 1
    code, out, _ = run_cli(capsys, "homcount", "--knot", "trefoil",
                           "--groups", "S3,A4,S4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [doc["counts"][g] for g in ("S3", "A4", "S4")] == [12, 36, 96]


def test_cli_ab_base_edge_out_of_range(capsys):
    for edge in ("99", "0"):
        code, out, err = run_cli(capsys, "ab", "--knot", "trefoil",
                                 "--base-edge", edge)
        assert code == 2
        assert not out
        assert err == "error: base edge %s out of range 1..6\n" % edge
    code, _, _ = run_cli(capsys, "ab", "--knot", "trefoil", "--base-edge", "6")
    assert code == 0


def test_cli_rejects_negative_counts(capsys):
    code, out, err = run_cli(capsys, "moves", "walk", "--knot", "trefoil",
                             "--steps", "-3")
    assert code == 2
    assert not out and "--steps" in err
    code, out, err = run_cli(capsys, "colorings", "--knot", "trefoil",
                             "--list", "-2")
    assert code == 2
    assert not out and "--list" in err


def test_cli_moves_walk(capsys):
    code, out, _ = run_cli(capsys, "moves", "walk", "--knot", "trefoil",
                           "--steps", "6", "--seed", "7", "--cap", "9")
    assert code == 0
    pd_lines = [l for l in out.splitlines() if "X[" in l]
    assert len(pd_lines) == 7
    code2, out2, _ = run_cli(capsys, "moves", "walk", "--knot", "trefoil",
                             "--steps", "6", "--seed", "7", "--cap", "9")
    assert out2 == out


def test_cli_moves_sites(capsys):
    code, out, _ = run_cli(capsys, "moves", "sites", "--knot", "trefoil",
                           "--kind", "R2_ADD")
    assert code == 0
    assert "R2_ADD" in out


def test_cli_distinguish(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "trefoil", "figure8")
    assert code == 0
    assert "DISTINCT" in out and "R3" in out
    code, out, _ = run_cli(capsys, "distinguish", "trefoil", "trefoil")
    assert code == 0
    assert "INCONCLUSIVE" in out
    # raw PD text works anywhere a name does
    code, out, _ = run_cli(capsys, "distinguish", "trefoil",
                           "X[1,4,2,5];X[3,7,4,6];X[5,8,6,1];X[7,3,8,2]")
    assert code == 0
    assert "DISTINCT" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knotforge", "colorings", "--knot", "trefoil", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 9


def test_cli_large_inputs_end_cleanly(capsys):
    # T(2,1201): deep enough that a recursive search would overflow
    pd = braid_closure_pd([1] * 1201, 2)
    code, out, _ = run_cli(capsys, "colorings", "--pd", pd, "--quandle",
                           "R3", "--json")
    assert code == 0
    assert json.loads(out)["total"] == 3
    code, out, _ = run_cli(capsys, "homcount", "--pd", pd, "--groups", "S3",
                           "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"S3": 6}


def test_cli_stats(capsys):
    code, plain, _ = run_cli(capsys, "colorings", "--knot", "figure8",
                             "--quandle", "QS4")
    code, out, _ = run_cli(capsys, "colorings", "--knot", "figure8",
                           "--quandle", "QS4", "--stats")
    assert code == 0
    head, last = out.rstrip("\n").rsplit("\n", 1)
    assert head + "\n" == plain
    stats = json.loads(last)["stats"]
    assert set(stats) == {"branch_points", "forced_steps", "nodes"}
    # 4 arcs: each is branched on or forced
    assert stats["branch_points"] + stats["forced_steps"] == 4
    code, out, _ = run_cli(capsys, "homcount", "--knot", "trefoil",
                           "--groups", "S3,A4", "--stats", "--json")
    obj = json.loads(out)
    assert obj["counts"] == {"S3": 12, "A4": 36}
    assert set(obj["stats"]) == {"S3", "A4"}
    assert obj["stats"]["S3"]["nodes"] > 0
