import random
import time

import pytest

from knotforge import (
    Diagram,
    DiagramError,
    EdgeDegreeError,
    MalformedTokenError,
    MultiComponentError,
    NonPlanarError,
    apply_move,
    builtin,
    builtin_names,
    canonical_pd,
    find_sites,
    parse_pd,
    random_walk,
)
from knotforge.diagram import _from_quads
from conftest import FIG8_PD, TREFOIL_PD
from oracles import braid_closure_pd, canonical_pd_brute, random_braid_knot


def test_trefoil_shape(trefoil):
    assert trefoil.crossing_count == 3
    assert trefoil.edge_count == 6
    assert [x.sign for x in trefoil.crossings] == [1, 1, 1]
    assert trefoil.writhe == 3


def test_fig8_shape(fig8):
    assert fig8.crossing_count == 4
    assert fig8.edge_count == 8
    assert [x.sign for x in fig8.crossings] == [1, -1, 1, -1]
    assert fig8.writhe == 0


def test_unknot_shape(unknot):
    assert unknot.crossing_count == 0
    assert unknot.writhe == 0
    assert len(unknot.arcs) == 1
    assert len(unknot.regions) == 2
    assert unknot.to_gauss() == ""


def test_arcs_partition_edges(trefoil, fig8):
    for d in (trefoil, fig8):
        assert len(d.arcs) == d.crossing_count
        seen = sorted(e for a in d.arcs for e in a)
        assert seen == list(range(1, d.edge_count + 1))


def test_region_counts(trefoil, fig8, unknot):
    assert len(trefoil.regions) == 5  # 6 - 3 + 2
    assert len(fig8.regions) == 6
    assert len(unknot.regions) == 2


def test_corner_bookkeeping(trefoil, fig8):
    # every edge shows up on region boundaries exactly twice, once per
    # side, and the total corner count is 4V
    for d in (trefoil, fig8):
        corners = [c for r in d.regions for c in r]
        assert len(corners) == 4 * d.crossing_count
        by_edge = {}
        for c in corners:
            by_edge.setdefault(c.edge, []).append(c.side)
        assert set(by_edge) == set(range(1, d.edge_count + 1))
        for sides in by_edge.values():
            assert sorted(sides) == ["L", "R"]


def test_render_round_trip(trefoil, fig8, unknot):
    for d in (trefoil, fig8, unknot):
        again = parse_pd(d.render_pd())
        assert again.render_pd() == d.render_pd()
        assert canonical_pd(again) == canonical_pd(d)


def test_deterministic_rebuild():
    a, b = parse_pd(TREFOIL_PD), parse_pd(TREFOIL_PD)
    assert a.render_pd() == b.render_pd()
    assert [x.slots for x in a.crossings] == [x.slots for x in b.crossings]
    assert a.regions == b.regions
    assert a.arcs == b.arcs


def test_gauss_trefoil(trefoil):
    code = trefoil.to_gauss()
    # six passages, alternating over/under, all positive
    assert len(code) == 18
    parts = [code[i:i + 3] for i in range(0, 18, 3)]
    assert [p[0] for p in parts] == ["U", "O", "U", "O", "U", "O"]
    assert all(p.endswith("+") for p in parts)
    # each crossing number appears once as O and once as U
    assert sorted(p[1] for p in parts if p[0] == "O") == ["1", "2", "3"]
    assert sorted(p[1] for p in parts if p[0] == "U") == ["1", "2", "3"]


def test_gauss_fig8_alternates(fig8):
    code = fig8.to_gauss()
    parts = [code[i:i + 3] for i in range(0, len(code), 3)]
    assert len(parts) == 8
    roles = [p[0] for p in parts]
    assert all(roles[i] != roles[(i + 1) % 8] for i in range(8))


def test_json_export(trefoil):
    j = trefoil.json_dict()
    assert j["crossings"] == [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
    assert j["signs"] == [1, 1, 1]


def test_malformed_tokens():
    for bad in ("X[1,2,3]", "X[a,b,c,d]", "Y[1,2,3,4]", "", "X[1,2,3,4,5]"):
        with pytest.raises(MalformedTokenError):
            parse_pd(bad)


def test_non_ascii_digits_rejected():
    # Arabic-Indic one in place of the trefoil's first label
    with pytest.raises(MalformedTokenError):
        parse_pd("X[\u0661,4,2,5];X[3,6,4,1];X[5,2,6,3]")


def test_overlong_edge_label_is_malformed():
    # 5,000 digits is past int()'s default string limit on 3.11
    with pytest.raises(DiagramError, match="edge label too long"):
        parse_pd("X[%s,1,2,3]" % ("9" * 5000))


def test_edge_degree_errors():
    # labels each appear twice here, but the under-strand through the
    # first crossing would need succ(1) = 3
    with pytest.raises(EdgeDegreeError):
        parse_pd("X[1,2,3,4];X[1,2,3,4]")
    with pytest.raises(EdgeDegreeError):
        parse_pd("X[1,2,3,4]")
    with pytest.raises(EdgeDegreeError):
        parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,1]")


def test_multi_component_error():
    # two separate loops: labels pair up fine but the edge cycle splits
    with pytest.raises(MultiComponentError):
        parse_pd("X[1,2,2,1];X[3,4,4,3]")


def test_non_planar_error():
    # interleaved OUOU passage pattern on two crossings: a fine Gauss
    # sequence with no planar realization
    with pytest.raises(NonPlanarError):
        parse_pd("X[1,3,2,4];X[2,4,3,1]")


@pytest.mark.parametrize("pd", [
    # the inputs of the three tests above
    "X[1,2,3,4];X[1,2,3,4]", "X[1,2,3,4]",
    "X[1,4,2,5];X[3,6,4,1];X[5,2,6,1]",
    "X[1,2,2,1];X[3,4,4,3]",
    "X[1,3,2,4];X[2,4,3,1]",
])
def test_quads_rejected_like_their_text(pd):
    # moves rebuild diagrams from integer quads, not PD text, and must
    # meet the same validation as parsed input
    quads = [tuple(map(int, tok[2:-1].split(","))) for tok in pd.split(";")]
    with pytest.raises(DiagramError) as from_text:
        parse_pd(pd)
    with pytest.raises(DiagramError) as from_quads:
        _from_quads(quads)
    assert type(from_quads.value) is type(from_text.value)
    assert str(from_quads.value) == str(from_text.value)


def test_crossing_slot_roles(trefoil):
    x = trefoil.crossings[0]
    assert x.under_in == 1 and x.under_out == 2
    assert x.over_in == 4 and x.over_out == 5
    assert x.out_slots() == (2, 3)


def test_succ_wraps(trefoil):
    assert trefoil.succ(6) == 1
    assert trefoil.succ(1) == 2


def canonical_corpus():
    """Diagrams on which canonical_pd must match canonical_pd_brute."""
    ds = []
    for name in builtin_names():
        # the criterion-08 walks: walk seeds 0..19, cap 12
        d0 = builtin(name).diagram()
        for seed in range(20):
            ds += random_walk(d0, seed % 30 + 1, seed=seed, max_crossings=12)
    rng = random.Random(17)
    for strands in range(2, 7):
        for length in (12, 40, 120, 300):
            ds.append(parse_pd(random_braid_knot(rng, strands, length)))
    torus = [parse_pd(braid_closure_pd([1] * k, 2))
             for k in (*range(1, 30, 2), 99, 201, 401)]
    ds += torus
    # periodic words whose closures are not torus knots
    for word, strands in (([1, -2], 3), ([1, 1, -2], 3), ([1, -2, 3], 4),
                          ([1, 2, -3, -2], 4), ([1, -2, 3, -4], 5)):
        for r in range(1, 40):
            try:
                ds.append(parse_pd(braid_closure_pd(word * r, strands)))
            except ValueError:  # a link, not a knot
                pass
    for d in torus:
        if d.crossing_count in (5, 11, 29, 99, 201):
            for kind in ("R1_ADD", "R2_ADD"):
                for site in rng.sample(find_sites(d, kind), 2):
                    ds.append(apply_move(d, site))
    return ds


def test_canonical_pd_matches_brute_force():
    for d in canonical_corpus():
        assert canonical_pd(d) == canonical_pd_brute(d), d.render_pd()


def test_canonical_pd_ignores_edge_rotation_and_token_order():
    rng = random.Random(3)
    for pd in (TREFOIL_PD, FIG8_PD, braid_closure_pd([1, -2] * 4, 3),
               random_braid_knot(rng, 4, 15)):
        d = parse_pd(pd)
        want = canonical_pd(d)
        m = d.edge_count
        for shift in range(m):
            quads = [tuple((e + shift - 1) % m + 1 for e in x.slots)
                     for x in d.crossings]
            rng.shuffle(quads)
            assert canonical_pd(_from_quads(quads)) == want, (pd, shift)


def test_canonical_pd_budget():
    for pd in (braid_closure_pd([1] * 1201, 2),
               random_braid_knot(random.Random(5), 3, 300)):
        d = parse_pd(pd)
        t0 = time.perf_counter()
        canonical_pd(d)
        assert time.perf_counter() - t0 < 0.05
