"""The coloring and hom-count search checked against answers it does
not compute: the Fox matrix over GF(p) on braid closures of up to ~300
crossings, closed forms on T(2,k) up to k = 2001, and brute-force
enumeration on small diagrams."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotforge import (count_colorings, dihedral, hom_count, list_colorings,
                       parse_pd, symmetric_group, tetrahedral, wirtinger)
from oracles import braid_closure_pd, brute_color_total, brute_colorings, \
    fox_total, random_braid_knot


@pytest.mark.parametrize("strands,length", [(3, 20), (4, 41), (3, 100),
                                            (4, 151), (3, 300)])
def test_fox_matrix_on_braid_closures(strands, length):
    r3, r5 = dihedral(3), dihedral(5)
    rng = random.Random(1000 * strands + length)
    for _ in range(4):
        d = parse_pd(random_braid_knot(rng, strands, length))
        assert count_colorings(d, r3).total == fox_total(d, 3)
        assert count_colorings(d, r5).total == fox_total(d, 5)


@pytest.mark.parametrize("k", [3, 5, 9, 15, 51, 301, 999, 1201, 2001])
def test_torus_knots_closed_form(k):
    d = parse_pd(braid_closure_pd([1] * k, 2))
    stats = {}
    r3 = count_colorings(d, dihedral(3), stats=stats).total
    assert r3 == (9 if k % 3 == 0 else 3)
    # two arcs next to each other fix the rest
    assert stats["branch_points"] == 2
    assert hom_count(wirtinger(d), symmetric_group(3)) == r3 + 3


def test_hom_count_on_long_closures():
    # hom(G, S3) = R3 colorings + 3: the abelian homs, plus one per
    # nontrivial coloring (the image of a meridian is a transposition)
    s3 = symmetric_group(3)
    rng = random.Random(7)
    for _ in range(3):
        d = parse_pd(random_braid_knot(rng, 3, 150))
        assert hom_count(wirtinger(d), s3) == fox_total(d, 3) + 3


braid_words = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([s * i for i in range(1, n) for s in (1, -1)]),
             min_size=1, max_size=7)))


@given(braid_words, st.sampled_from(["R3", "R4", "QS4"]))
@settings(max_examples=60, deadline=None)
def test_list_colorings_matches_brute_force(strands_word, qname):
    strands, word = strands_word
    try:
        d = parse_pd(braid_closure_pd(word, strands))
    except ValueError:
        assume(False)       # a link, not a knot
    q = {"R3": dihedral(3), "R4": dihedral(4), "QS4": tetrahedral()}[qname]
    want = brute_colorings(d, q)
    assert len(want) == brute_color_total(d, q)
    assert count_colorings(d, q).total == len(want)
    assert list_colorings(d, q) == want
    for limit in (0, 1, len(want)):
        got = list_colorings(d, q, limit=limit)
        assert got == want[:limit]
