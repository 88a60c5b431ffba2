import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotforge
from knotforge import (
    check_axioms,
    conjugation_quandle,
    count_colorings,
    dihedral,
    is_isomorphic,
    list_colorings,
    parse_pd,
    quandle_by_name,
    symmetric_group,
    tetrahedral,
)
from knotforge.groups import MAX_VALIDATED_ORDER
from knotforge.quandle import NotClosedError, OutOfRangeError, from_table
from conftest import FIG8_PD, TREFOIL_PD
from oracles import brute_color_total

# the tetrahedral table, row a column b, as printed
QS4_TABLE = [
    [0, 3, 1, 2],
    [2, 1, 3, 0],
    [3, 0, 2, 1],
    [1, 2, 0, 3],
]


def test_qs4_table_cells():
    q = tetrahedral()
    assert q.order == 4
    assert q.rows == QS4_TABLE


def test_axioms_pass_on_builtins():
    for n in range(2, 10):
        assert check_axioms(dihedral(n).rows).passed
    assert check_axioms(QS4_TABLE).passed


def test_axiom_one_failure():
    rep = check_axioms([[1, 1], [0, 0]])
    assert not rep.passed
    failed = [c for c in rep.checks if not c.ok]
    assert failed[0].axiom == "I"
    assert failed[0].witness == (0,)


def test_axiom_two_failure():
    # column 0 repeats an entry
    rep = check_axioms([[0, 0, 2], [2, 1, 1], [2, 2, 2]])
    assert not rep.passed
    assert any(c.axiom == "II" and not c.ok for c in rep.checks)
    # rows 1 and 2 of column 0 both hold 2
    assert rep.witness("II") == (1, 2, 0)


def test_axiom_three_failure():
    # idempotent, columns are permutations, but not self-distributive
    table = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]
    rep = check_axioms(table)
    byid = {c.axiom: c for c in rep.checks}
    assert byid["I"].ok and byid["II"].ok
    assert not byid["III"].ok
    a, b, c = byid["III"].witness
    lhs = table[table[a][b]][c]
    rhs = table[table[a][c]][table[b][c]]
    assert lhs != rhs


def test_axioms_out_of_range():
    with pytest.raises(OutOfRangeError):
        check_axioms([[0, 5], [1, 1]])
    with pytest.raises(OutOfRangeError, match="square"):
        check_axioms([[0, 1], [0]])
    with pytest.raises(OutOfRangeError, match="nonempty"):
        check_axioms([])


def test_building_qs4_skips_numpy_ma():
    # importing numpy.ma alone takes longer than criterion 01's 1 ms
    # budget for building QS4 in a fresh process.  The runtime needs no
    # numpy at all: with every numpy import made to fail, the package
    # still builds its quandles and groups and prints a report.  Nor
    # does it load dataclasses or inspect, which cost start-up time.
    src = os.path.dirname(os.path.dirname(knotforge.__file__))
    probe = (
        "import sys; sys.modules['numpy'] = None; sys.path.insert(0, %r)\n"
        "import knotforge\n"
        "from knotforge import cli\n"
        "knotforge.dihedral(3); knotforge.tetrahedral()\n"
        "for k in (2, 3, 4, 5): knotforge.symmetric_group(k)\n"
        "for k in (3, 4, 5): knotforge.alternating_group(k)\n"
        "knotforge.cyclic_group(7)\n"
        "rc = cli.main(['invariants', '--json'])\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)),"
        " file=sys.stderr)\n"
        "sys.exit(rc)\n" % src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["knots"]
    assert out.stderr.splitlines()[-1:] == ["[]"]


def test_dihedral_formula():
    r3 = dihedral(3)
    assert r3.rows[0][1] == 2  # 2*1 - 0 mod 3
    for a in range(3):
        assert r3.rows[a][a] == a
    with pytest.raises(ValueError):
        dihedral(1)


@given(st.integers(min_value=2, max_value=15))
@settings(max_examples=14, deadline=None)
def test_dihedral_axioms_property(n):
    q = dihedral(n)
    assert check_axioms(q.rows).passed
    # involutory: pushing a color through the same over-arc twice
    # returns it
    for a in range(n):
        for b in range(n):
            assert q.rows[q.rows[a][b]][b] == a


def test_order_capped_before_the_cubic_check():
    assert dihedral(MAX_VALIDATED_ORDER).order == MAX_VALIDATED_ORDER
    n = MAX_VALIDATED_ORDER + 1
    with pytest.raises(ValueError, match="2..%d" % MAX_VALIDATED_ORDER):
        dihedral(n)
    with pytest.raises(ValueError, match="exceeds"):
        from_table([[(2 * b - a) % n for b in range(n)] for a in range(n)])
    with pytest.raises(ValueError, match="exceeds"):
        check_axioms([[(2 * b - a) % n for b in range(n)] for a in range(n)])


def test_inverse_table_round_trip():
    for q in (dihedral(3), dihedral(5), tetrahedral()):
        for a in range(q.order):
            for b in range(q.order):
                assert q.rows[q.inv_rows[a][b]][b] == a
                assert q.inv_rows[q.rows[a][b]][b] == a


def test_conjugation_quandle_transpositions():
    s3 = symmetric_group(3)
    swaps = [i for i in range(6)
             if s3.mul(i, i) == s3.identity and i != s3.identity]
    q = conjugation_quandle(s3, swaps)
    assert q.order == 3
    assert check_axioms(q.rows).passed
    assert is_isomorphic(q, dihedral(3))


def test_conjugation_quandle_singleton():
    s3 = symmetric_group(3)
    q = conjugation_quandle(s3, [s3.identity])
    assert q.order == 1
    assert q.rows == [[0]]


def test_conjugation_quandle_not_closed():
    s3 = symmetric_group(3)
    swaps = [i for i in range(6)
             if s3.mul(i, i) == s3.identity and i != s3.identity]
    with pytest.raises(NotClosedError):
        conjugation_quandle(s3, swaps[:2])


def test_coloring_counts_match_knowns(trefoil, fig8, unknot):
    assert count_colorings(trefoil, dihedral(3)) == (9, 6)
    assert count_colorings(fig8, dihedral(3)) == (3, 0)
    assert count_colorings(fig8, tetrahedral()) == (16, 12)
    assert count_colorings(trefoil, tetrahedral()) == (16, 12)
    for q in (dihedral(3), dihedral(7), tetrahedral()):
        assert count_colorings(unknot, q).total == q.order


def test_coloring_counts_match_brute_force(trefoil, fig8, unknot):
    for d in (trefoil, fig8, unknot):
        for q in (dihedral(2), dihedral(3), dihedral(4), tetrahedral()):
            assert count_colorings(d, q).total == brute_color_total(d, q)


def test_counts_stable_under_quandle_relabeling(trefoil, fig8):
    # conjugating the table by a permutation gives an isomorphic
    # quandle, which must color identically
    import random
    rng = random.Random(11)
    for q in (dihedral(5), tetrahedral()):
        perm = list(range(q.order))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(q.order)]
        table = [[perm[q.rows[inv[a]][inv[b]]] for b in range(q.order)]
                 for a in range(q.order)]
        q2 = from_table(table, name=q.name + "-relabeled")
        for d in (trefoil, fig8):
            assert count_colorings(d, q2) == count_colorings(d, q)


def test_counts_stable_under_edge_rotation():
    # relabeling edges by a cyclic shift moves the arc indexing but
    # cannot change any count
    base = parse_pd(TREFOIL_PD)
    q = tetrahedral()
    want = count_colorings(base, q)
    rotated = "X[2,5,3,6];X[4,1,5,2];X[6,3,1,4]"
    assert count_colorings(parse_pd(rotated), q) == want


def test_list_colorings_order_and_limits(trefoil, fig8):
    r3 = dihedral(3)
    first3 = list_colorings(trefoil, r3, limit=3)
    assert len(first3) == 3
    assert first3[0] == (0, 0, 0)
    allc = list_colorings(trefoil, r3)
    assert len(allc) == 9
    assert allc == sorted(allc)
    fig = list_colorings(fig8, r3, limit=10)
    assert fig == [(0,) * 4, (1,) * 4, (2,) * 4]


def test_quandle_by_name():
    assert quandle_by_name("R3").rows == dihedral(3).rows
    assert quandle_by_name("qs4").rows == tetrahedral().rows
    with pytest.raises(ValueError):
        quandle_by_name("K7")


def test_quandle_json(trefoil):
    q = dihedral(3)
    j = q.json_dict()
    assert j == {"order": 3, "table": q.rows}
