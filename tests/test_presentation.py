import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge import (
    abelianize,
    alternating_group,
    hom_count,
    symmetric_group,
    tietze_simplify,
    wirtinger,
)
from knotforge.presentation import (
    Generator,
    canonical_letters,
    cyclic_reduce,
    free_reduce,
    invert,
    make_presentation,
)
from oracles import brute_hom_count


def gens(*names):
    return [Generator(n, "arc") for n in names]


def test_free_reduce():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))
    assert free_reduce([]) == ()


def test_cyclic_reduce():
    w = ((0, 1), (1, 1), (0, -1))
    assert cyclic_reduce(w) == ((1, 1),)
    assert cyclic_reduce(((0, 1), (1, 1))) == ((0, 1), (1, 1))


def test_canonical_picks_word_or_inverse():
    w = [(0, 1), (1, 1), (2, 1)]
    assert canonical_letters(w) == canonical_letters(invert(w))
    assert canonical_letters(w) == canonical_letters(w[1:] + w[:1])


def test_wirtinger_shapes(unknot, trefoil, fig8):
    p0 = wirtinger(unknot)
    assert len(p0.generators) == 1 and len(p0.relators) == 0
    p3 = wirtinger(trefoil)
    assert len(p3.generators) == 3 and len(p3.relators) == 3
    p4 = wirtinger(fig8)
    assert len(p4.generators) == 4 and len(p4.relators) == 4
    assert p3.generator_names == ("x0", "x1", "x2")


def test_wirtinger_relator_patterns(trefoil, fig8):
    # positive crossing: c^-1 b^-1 a b, negative: c^-1 b a b^-1
    for d in (trefoil, fig8):
        p = wirtinger(d)
        for x, w in zip(d.crossings, p.relators):
            a = d.arc_of_edge[x.under_in]
            b = d.arc_of_edge[x.over_in]
            c = d.arc_of_edge[x.under_out]
            if x.sign > 0:
                want = [(c, -1), (b, -1), (a, 1), (b, 1)]
            else:
                want = [(c, -1), (b, 1), (a, 1), (b, -1)]
            assert w == free_reduce(want)


def test_hom_counts_known(unknot, trefoil, fig8):
    s3 = symmetric_group(3)
    a4 = alternating_group(4)
    s4 = symmetric_group(4)
    assert hom_count(wirtinger(unknot), s3) == 6
    assert hom_count(wirtinger(unknot), a4) == 12
    pt = wirtinger(trefoil)
    assert [hom_count(pt, g) for g in (s3, a4, s4)] == [12, 36, 96]
    pf = wirtinger(fig8)
    assert [hom_count(pf, g) for g in (s3, a4, s4)] == [6, 36, 48]


def test_hom_counts_match_brute(trefoil, fig8):
    s3 = symmetric_group(3)
    for d in (trefoil, fig8):
        p = wirtinger(d)
        assert hom_count(p, s3) == brute_hom_count(p, s3)
    assert hom_count(wirtinger(trefoil), alternating_group(4)) == \
        brute_hom_count(wirtinger(trefoil), alternating_group(4))


def test_abelianize_knot_groups(unknot, trefoil, fig8):
    assert abelianize(wirtinger(unknot)) == (0,)
    assert abelianize(wirtinger(trefoil)) == (1, 1, 0)
    assert abelianize(wirtinger(fig8)) == (1, 1, 1, 0)


def test_tietze_shrinks_knot_groups(trefoil, fig8):
    s3 = symmetric_group(3)
    for d in (trefoil, fig8):
        p = wirtinger(d)
        q = tietze_simplify(p)
        assert (len(q.generators), len(q.relators)) == (2, 1)
        assert hom_count(q, s3) == hom_count(p, s3)
        assert abelianize(q) == (1, 0)


def test_tietze_leaves_unknot_alone(unknot):
    q = tietze_simplify(wirtinger(unknot))
    assert (len(q.generators), len(q.relators)) == (1, 0)


def test_tietze_drops_empty_and_duplicate_relators():
    p = make_presentation(
        gens("a", "b"),
        [[(0, 1), (0, -1)],
         [(0, 1), (1, -1)],
         [(1, -1), (0, 1)]])
    q = tietze_simplify(p)
    # a = b collapses everything down to one free generator
    assert len(q.generators) == 1
    assert len(q.relators) == 0


def test_trivializable_presentation():
    # a^2 = b^3 = ab = 1 forces the trivial group
    p = make_presentation(
        gens("a", "b"),
        [[(0, 1), (0, 1)],
         [(1, 1), (1, 1), (1, 1)],
         [(0, 1), (1, 1)]])
    for g in (symmetric_group(3), alternating_group(4)):
        assert hom_count(p, g) == 1
    assert all(f == 1 for f in abelianize(p))


def test_hom_count_free_generators():
    p = make_presentation(gens("a", "b"), [])
    s3 = symmetric_group(3)
    assert hom_count(p, s3) == 36


def test_presentation_validation():
    with pytest.raises(ValueError):
        make_presentation(gens("a"), [[(1, 1)]])


def test_render_uses_superscript(trefoil):
    p = wirtinger(trefoil)
    text = p.render_relators()
    assert len(text) == 3
    assert all("⁻¹" in t for t in text)
    assert "x0" in " ".join(text)


def test_json_round_trip(trefoil):
    import json
    p = wirtinger(trefoil)
    j = json.loads(json.dumps(p.json_dict()))
    assert j["generators"] == ["x0", "x1", "x2"]
    assert len(j["relators"]) == 3
    assert all(e in (1, -1) for w in j["relators"] for _, e in w)


letter = st.tuples(st.integers(min_value=0, max_value=2),
                   st.sampled_from([-1, 1]))


@given(st.lists(letter, max_size=12), st.integers(min_value=0, max_value=11))
@settings(max_examples=80, deadline=None)
def test_canonical_is_rotation_and_inverse_invariant(word, k):
    base = canonical_letters(word)
    if word:
        k %= len(word)
        assert canonical_letters(word[k:] + word[:k]) == base
    assert canonical_letters(invert(word)) == base
    # conjugating by a fresh letter never changes the class
    conj = [(2, 1)] + list(word) + [(2, -1)]
    assert canonical_letters(conj) == base
