import pytest

from knotforge import (
    NoCrossingsError,
    abelianize,
    alexander_briggs,
    alternating_group,
    apply_move,
    find_sites,
    hom_count,
    symmetric_group,
    tietze_simplify,
    wirtinger,
)
from knotforge.presentation import canonical_letters

# region relators of the standard trefoil diagram, derived by hand by
# walking each face of a drawing (M=0, L=1, p0=2, p1=3, p2=4)
TREFOIL_REGION_RELATORS = [
    [(1, -1), (0, -1), (1, 1), (0, 1)],
    [(3, 1), (4, 1), (2, 1)],
    [(3, 1), (1, 1), (2, 1), (0, 1)],
    [(4, 1), (0, 1), (3, 1), (0, 1), (1, 1), (2, 1), (0, 1)],
    [(4, 1), (0, 1), (2, 1)],
    [(4, 1), (3, 1), (0, 1)],
]

GROUPS = None


def groups():
    global GROUPS
    if GROUPS is None:
        GROUPS = (symmetric_group(3), alternating_group(4), symmetric_group(4))
    return GROUPS


def test_shape_and_names(trefoil):
    p = alexander_briggs(trefoil)
    assert p.generator_names == ("M", "L", "p0", "p1", "p2")
    assert len(p.relators) == 6  # commutator + one per region
    roles = [g.role for g in p.generators]
    assert roles == ["meridian", "longitude", "pillar", "pillar", "pillar"]


def test_first_relator_is_commutator(trefoil, fig8):
    for d in (trefoil, fig8):
        p = alexander_briggs(d)
        assert p.relators[0] == ((1, -1), (0, -1), (1, 1), (0, 1))


def test_trefoil_relators_match_hand_walk(trefoil):
    p = alexander_briggs(trefoil)
    got = sorted(canonical_letters(w) for w in p.relators)
    want = sorted(canonical_letters(r) for r in TREFOIL_REGION_RELATORS)
    assert got == want


def test_hom_counts_agree_with_arc_presentation(trefoil, fig8, mirror_trefoil):
    for d in (trefoil, fig8, mirror_trefoil):
        pw = wirtinger(d)
        pr = alexander_briggs(d)
        for g in groups():
            assert hom_count(pr, g) == hom_count(pw, g)


def test_abelianization(trefoil, fig8):
    # one infinite factor, everything else dead, as for any knot group
    assert abelianize(alexander_briggs(trefoil)) == (1, 1, 1, 1, 0)
    assert abelianize(alexander_briggs(fig8)) == (1, 1, 1, 1, 1, 0)


def test_base_edge_choice_is_cosmetic(trefoil, fig8):
    s3 = symmetric_group(3)
    for d in (trefoil, fig8):
        want = hom_count(alexander_briggs(d), s3)
        for e in range(1, 2 * d.crossing_count + 1):
            assert hom_count(alexander_briggs(d, base_edge=e), s3) == want


def test_base_edge_validation(trefoil, unknot):
    with pytest.raises(NoCrossingsError):
        alexander_briggs(unknot)
    for bad in (0, 7, -1):
        with pytest.raises(ValueError):
            alexander_briggs(trefoil, base_edge=bad)


def test_simplified_forms(trefoil, fig8, mirror_trefoil):
    expected = {
        "trefoil": "M⁻¹ p0⁻¹ M p0 M p0⁻¹",
        "fig8": "p0 p0 M⁻¹ p0⁻¹ M p0 M p0⁻¹ M⁻¹",
        "mirror": "p0 M p0⁻¹ M p0",
    }
    for key, d in (("trefoil", trefoil), ("fig8", fig8),
                   ("mirror", mirror_trefoil)):
        q = tietze_simplify(alexander_briggs(d))
        assert q.generator_names == ("M", "p0")
        assert q.render_relators() == [expected[key]]


def test_counts_survive_r2_padding(trefoil):
    # sliding a strand over a neighbor must not change the group
    s3 = symmetric_group(3)
    a4 = alternating_group(4)
    d = trefoil
    base = (hom_count(alexander_briggs(d), s3),
            hom_count(alexander_briggs(d), a4))
    for _ in range(2):
        site = find_sites(d, "R2_ADD")[0]
        d = apply_move(d, site)
    assert d.crossing_count == 7
    got = (hom_count(alexander_briggs(d), s3),
           hom_count(alexander_briggs(d), a4))
    assert got == base
