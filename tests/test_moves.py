import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge import (
    KINDS,
    MoveSite,
    StaleSiteError,
    apply_move,
    builtin,
    builtin_names,
    count_colorings,
    dihedral,
    find_sites,
    parse_pd,
    random_walk,
    tetrahedral,
)
from knotforge.cli import main
from oracles import braid_closure_pd, random_braid_knot

# stdout of `knotforge <key>` for site listings and walks, recorded
# before move sites became plain payloads; the listings and walks must
# not change
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_moves_cli.json").read_text())


def kinds_of(sites):
    return sorted({s.kind for s in sites})


def test_kind_list():
    assert list(KINDS) == [
        "R1_ADD", "R1_REMOVE", "R2_ADD", "R2_REMOVE", "R3"]
    with pytest.raises(ValueError):
        find_sites(parse_pd("U"), "R4")


def test_unknot_sites(unknot):
    # a bare loop offers only kink additions
    sites = find_sites(unknot)
    assert kinds_of(sites) == ["R1_ADD"]
    assert len(sites) == 2  # one per sign; a bare loop has no sides


def test_alternating_diagrams_have_no_shrinking_sites(trefoil, fig8):
    # alternating and reduced: no kinks, no bigons with matched roles,
    # no triangle with a pure over-edge
    for d in (trefoil, fig8):
        assert find_sites(d, "R1_REMOVE") == []
        assert find_sites(d, "R2_REMOVE") == []
        assert find_sites(d, "R3") == []


def test_r1_round_trip(trefoil):
    r3 = dihedral(3)
    want = count_colorings(trefoil, r3)
    for site in find_sites(trefoil, "R1_ADD")[:6]:
        grown = apply_move(trefoil, site)
        assert grown.crossing_count == 4
        assert count_colorings(grown, r3) == want
        # the new kink is removable and removal lands back at 3 crossings
        back_sites = find_sites(grown, "R1_REMOVE")
        assert back_sites
        back = apply_move(grown, back_sites[0])
        assert back.crossing_count == 3
        assert count_colorings(back, r3) == want


def test_r1_kink_pd():
    kink = apply_move(parse_pd("U"), find_sites(parse_pd("U"), "R1_ADD")[0])
    assert kink.crossing_count == 1
    assert kink.writhe in (1, -1)
    undone = apply_move(kink, find_sites(kink, "R1_REMOVE")[0])
    assert undone.crossing_count == 0


def test_r2_round_trips(trefoil, fig8):
    qs4 = tetrahedral()
    for d in (trefoil, fig8):
        want = count_colorings(d, qs4)
        sites = find_sites(d, "R2_ADD")
        assert sites
        for site in sites[:8]:
            grown = apply_move(d, site)
            assert grown.crossing_count == d.crossing_count + 2
            assert count_colorings(grown, qs4) == want
            shrink = find_sites(grown, "R2_REMOVE")
            assert shrink
            back = apply_move(grown, shrink[0])
            assert back.crossing_count == d.crossing_count
            assert count_colorings(back, qs4) == want


def test_r3_appears_after_growth_and_preserves_counts(trefoil):
    # the bare trefoil has no triangle sites; pushing a strand across
    # makes some
    r3q = dihedral(3)
    qs4 = tetrahedral()
    want = (count_colorings(trefoil, r3q), count_colorings(trefoil, qs4))
    found = 0
    for site in find_sites(trefoil, "R2_ADD"):
        grown = apply_move(trefoil, site)
        for tri in find_sites(grown, "R3"):
            slid = apply_move(grown, tri)
            assert slid.crossing_count == grown.crossing_count
            assert (count_colorings(slid, r3q),
                    count_colorings(slid, qs4)) == want
            found += 1
        if found >= 4:
            break
    assert found >= 4


def test_stale_site_rejected(trefoil, fig8):
    site = find_sites(trefoil, "R2_ADD")[0]
    with pytest.raises(StaleSiteError):
        apply_move(fig8, site)


def test_walk_is_deterministic(trefoil):
    a = random_walk(trefoil, 12, seed=5, max_crossings=9)
    b = random_walk(trefoil, 12, seed=5, max_crossings=9)
    assert [d.render_pd() for d in a] == [d.render_pd() for d in b]
    assert len(a) == 13
    assert a[0].render_pd() == trefoil.render_pd()


def test_walk_rejects_negative_steps(trefoil):
    with pytest.raises(ValueError):
        random_walk(trefoil, -3, seed=0)
    assert len(random_walk(trefoil, 0, seed=0)) == 1


def test_walk_seeds_diverge(trefoil):
    a = random_walk(trefoil, 12, seed=1, max_crossings=9)
    b = random_walk(trefoil, 12, seed=2, max_crossings=9)
    assert [d.render_pd() for d in a] != [d.render_pd() for d in b]


def test_walk_respects_cap(fig8):
    walk = random_walk(fig8, 20, seed=3, max_crossings=7)
    assert max(d.crossing_count for d in walk) <= 7


def test_walk_with_starved_cap_idles(trefoil):
    # cap at the current size: growth is forbidden and the reduced
    # trefoil has nothing else, so every step stays put
    walk = random_walk(trefoil, 5, seed=0, max_crossings=3)
    assert all(d.render_pd() == trefoil.render_pd() for d in walk)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_walks_preserve_three_colorings(seed):
    from conftest import FIG8_PD
    d = parse_pd(FIG8_PD)
    r3 = dihedral(3)
    want = count_colorings(d, r3)
    walk = random_walk(d, 8, seed=seed, max_crossings=9)
    assert count_colorings(walk[-1], r3) == want


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_moves_cli_output_is_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN[command]


def reference_walk(d, steps, seed, max_crossings):
    """random_walk spelled out with the public API: list the sites of
    every kind the cap allows, pick one with the seeded rng, apply it."""
    rng = random.Random(seed)
    out = [d]
    for _ in range(steps):
        n = d.crossing_count
        sites = [s for s in find_sites(d)
                 if not (s.kind == "R1_ADD" and n + 1 > max_crossings
                         or s.kind == "R2_ADD" and n + 2 > max_crossings)]
        if sites:
            d = apply_move(d, sites[rng.randrange(len(sites))])
        out.append(d)
    return out


def test_walk_matches_site_listing_and_apply():
    # the criterion-08 walks: walk seeds 0..19 from each built-in, cap 12
    for name in builtin_names():
        d0 = builtin(name).diagram()
        for seed in range(20):
            steps = seed % 30 + 1
            got = random_walk(d0, steps, seed=seed, max_crossings=12)
            want = reference_walk(d0, steps, seed, 12)
            assert ([d.render_pd() for d in got]
                    == [d.render_pd() for d in want]), (name, seed)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_no_region_meets_an_edge_twice(seed):
    # a connected 4-regular plane graph has no bridge, so the two sides
    # of an edge lie in different faces; R2 pushes, bigons and
    # triangles rely on every corner of a region having its own edge
    rng = random.Random(seed)
    d0 = builtin(rng.choice(builtin_names())).diagram()
    diagrams = random_walk(d0, rng.randint(1, 30), seed=seed,
                           max_crossings=12)
    diagrams.append(parse_pd(random_braid_knot(
        rng, rng.randint(2, 4), rng.randint(8, 60))))
    for d in diagrams:
        for r in d.regions:
            edges = [c.edge for c in r]
            assert len(set(edges)) == len(edges), d.render_pd()


def assert_parses_back(d):
    """The diagram a move rebuilt from integer quads has the tables
    parse_pd gives its PD text."""
    again = parse_pd(d.render_pd())
    assert again.crossings == d.crossings
    assert again.arcs == d.arcs
    assert again.regions == d.regions


def test_walk_diagrams_parse_back():
    # every 7th diagram the criterion-08 walks visit
    visited = []
    for name in builtin_names():
        d0 = builtin(name).diagram()
        for seed in range(100):
            visited += random_walk(d0, seed % 30 + 1, seed=seed,
                                   max_crossings=12)[1:]
    for d in visited[::7]:
        assert_parses_back(d)


def test_large_move_results_parse_back():
    # one applied site of each kind on T(2,201); the kink offers an R1
    # removal, and pushing edge 202 over edge 200 across the outer
    # face leaves a bigon and a slidable triangle
    d0 = parse_pd(braid_closure_pd([1] * 201, 2))
    kink = apply_move(d0, find_sites(d0, "R1_ADD")[0])
    push = next(s for s in find_sites(d0, "R2_ADD")
                if s.payload[0] == 202 and s.payload[2] == 200
                and s.payload[4])
    pushed = apply_move(d0, push)
    results = [kink, pushed,
               apply_move(kink, find_sites(kink, "R1_REMOVE")[0]),
               apply_move(pushed, find_sites(pushed, "R2_REMOVE")[0]),
               apply_move(pushed, find_sites(pushed, "R3")[0])]
    for d in results:
        assert_parses_back(d)


def r2_add_payloads(d):
    """R2_ADD payloads as the plain nested loop over ordered corner
    pairs of each region."""
    out = []
    for ri, corners in enumerate(d.regions):
        for ai, ca in enumerate(corners):
            for bi, cb in enumerate(corners):
                if ai != bi:
                    for over in (True, False):
                        out.append((ca.edge, ca.side, cb.edge, cb.side,
                                    over, ri))
    return out


def test_find_sites_shape():
    diagrams = [builtin(name).diagram() for name in builtin_names()]
    diagrams.append(parse_pd(random_braid_knot(random.Random(7), 3, 300)))
    for d in diagrams:
        every = find_sites(d)
        assert all(type(s) is MoveSite for s in every)
        assert every == [s for k in KINDS for s in find_sites(d, k)]
        r2 = find_sites(d, "R2_ADD")
        assert [s.payload for s in r2] == r2_add_payloads(d)
        assert {s.signature for s in every} == {d.render_pd()}
