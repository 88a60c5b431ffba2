import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge import (
    alternating_group,
    cyclic_group,
    group_by_name,
    symmetric_group,
)
from knotforge.groups import MAX_VALIDATED_ORDER, conjugate, from_table

# S3 in lexicographic one-line order, "do row, then column"
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]


def test_symmetric_orders():
    assert [symmetric_group(n).order for n in (2, 3, 4, 5)] == [2, 6, 24, 120]


def test_alternating_orders():
    assert [alternating_group(n).order for n in (3, 4, 5)] == [3, 12, 60]


def test_degree_ranges():
    for bad in (1, 6):
        with pytest.raises(ValueError):
            symmetric_group(bad)
    for bad in (2, 6):
        with pytest.raises(ValueError):
            alternating_group(bad)
    with pytest.raises(ValueError):
        cyclic_group(0)
    with pytest.raises(ValueError):
        cyclic_group(MAX_VALIDATED_ORDER + 1)


def test_s2_is_xor():
    s2 = symmetric_group(2)
    assert s2.order == 2
    for a in range(2):
        for b in range(2):
            assert s2.mul(a, b) == a ^ b


def test_s3_involutions():
    s3 = symmetric_group(3)
    flips = [i for i in range(6)
             if i != s3.identity and s3.mul(i, i) == s3.identity]
    assert len(flips) == 3
    # conjugation permutes the set of transpositions
    for g in range(6):
        for t in flips:
            assert conjugate(s3, t, g) in flips


def test_group_laws_all_builtins():
    groups = [symmetric_group(n) for n in (2, 3, 4, 5)]
    groups += [alternating_group(n) for n in (3, 4, 5)]
    groups += [cyclic_group(n) for n in range(1, 13)]
    for g in groups:
        n = g.order
        e = g.identity
        for a in range(n):
            assert g.mul(a, e) == a
            assert g.mul(e, a) == a
            assert g.mul(a, g.inverses[a]) == e
            assert g.mul(g.inverses[a], a) == e
        t = g.rows
        for a, b, c in itertools.product(range(min(n, 24)), repeat=3):
            assert t[t[a][b]][c] == t[a][t[b][c]]


def test_s3_table_pinned():
    s3 = symmetric_group(3)
    assert s3.json_dict() == {"order": 6, "table": S3_TABLE, "identity": 0}
    assert from_table(S3_TABLE).inverses == (0, 1, 2, 4, 3, 5)


def test_from_table_rejects_malformed():
    for bad in ([[0, 1], [1]], [], [[0, 1, 2], [1, 2, 0]], [[]], 5):
        with pytest.raises(ValueError, match="square|empty"):
            from_table(bad)
    with pytest.raises(ValueError, match="0..1"):
        from_table([[0, 2], [1, 0]])
    with pytest.raises(ValueError, match="0..1"):
        from_table([[0, 1], [1, -1]])
    with pytest.raises(ValueError, match="integer"):
        from_table([[0, 1], [1, 1.5]])
    with pytest.raises(ValueError, match="integer"):
        from_table([[0.0, 1], [1, 0]])


def test_from_table_rejects_non_groups():
    with pytest.raises(ValueError, match="identity"):
        from_table([[0, 0], [0, 0]])
    # an order-5 loop: identity 0, every row and column a permutation
    # (so unique two-sided inverses), but (1*1)*2 = 2 != 1*(1*2) = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        from_table(loop)
    # powers of one generator capped at the square (1*1 = 1*2 = 2*1 =
    # 2*2 = 2): associative with identity 0, but nothing sends 1 back to 0
    with pytest.raises(ValueError, match="inverse"):
        from_table([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    n = MAX_VALIDATED_ORDER + 1
    with pytest.raises(ValueError, match="exceeds"):
        from_table([[(i + j) % n for j in range(n)] for i in range(n)])


def test_conjugate_by_identity():
    s4 = symmetric_group(4)
    for x in range(24):
        assert conjugate(s4, x, s4.identity) == x


def test_composition_is_left_to_right():
    s3 = symmetric_group(3)
    names = s3.element_names
    a = names.index("102")  # swap first two
    b = names.index("021")  # swap last two
    # applying a then b sends 0 -> 1 -> 2
    assert names[s3.mul(a, b)][0] == "2"


def test_cyclic_is_abelian():
    z6 = cyclic_group(6)
    for a in range(6):
        for b in range(6):
            assert z6.mul(a, b) == z6.mul(b, a)
            assert z6.mul(a, b) == (a + b) % 6


def test_alternating_inside_symmetric():
    a4 = alternating_group(4)
    s4 = symmetric_group(4)
    even = set(a4.element_names)
    assert even <= set(s4.element_names)
    assert len(even) == 12


def test_group_by_name():
    assert group_by_name("S3").order == 6
    assert group_by_name("a4").order == 12
    assert group_by_name("Z5").order == 5
    for bad in ("Q8", "S", "Z", "S99", ""):
        with pytest.raises(ValueError):
            group_by_name(bad)


def test_element_names_are_one_line_perms():
    s3 = symmetric_group(3)
    assert s3.element_names[s3.identity] == "012"
    assert sorted(s3.element_names) == list(s3.element_names)


def test_group_json():
    z3 = cyclic_group(3)
    j = z3.json_dict()
    assert j["order"] == 3
    assert j["table"] == z3.rows


@given(st.integers(min_value=1, max_value=24))
@settings(max_examples=24, deadline=None)
def test_cyclic_laws_property(n):
    g = cyclic_group(n)
    assert g.order == n
    for a in range(n):
        assert g.mul(a, g.inverses[a]) == g.identity
