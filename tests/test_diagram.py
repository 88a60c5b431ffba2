import pytest

from knotforge import (
    Diagram,
    DiagramError,
    EdgeDegreeError,
    MalformedTokenError,
    MultiComponentError,
    NonPlanarError,
    canonical_pd,
    parse_pd,
)
from knotforge.diagram import _from_quads
from conftest import FIG8_PD, TREFOIL_PD


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
    assert x.in_slots() == (0, 1)
    assert x.out_slots() == (2, 3)


def test_succ_wraps(trefoil):
    assert trefoil.succ(6) == 1
    assert trefoil.succ(1) == 2
