"""End-to-end checks, one test per shipped claim, each with its own
time budget.  Every test prints a single PASS line with the measured
time so a -s run reads as a checklist."""

import time

from knotforge import (
    abelianize,
    alternating_group,
    builtin,
    builtin_names,
    check_axioms,
    conjugation_quandle,
    count_colorings,
    dihedral,
    distinguish,
    hom_count,
    random_walk,
    symmetric_group,
    tetrahedral,
    tietze_simplify,
    wirtinger,
    alexander_briggs,
)
from knotforge.presentation import canonical_letters, invert, make_presentation
from oracles import brute_color_total, brute_hom_count

QS4_TABLE = [
    [0, 3, 1, 2],
    [2, 1, 3, 0],
    [3, 0, 2, 1],
    [1, 2, 0, 3],
]

# region relators of the standard trefoil diagram (M=0, L=1, p0..p2=2..4)
TREFOIL_REGION_RELATORS = [
    [(1, -1), (0, -1), (1, 1), (0, 1)],
    [(3, 1), (4, 1), (2, 1)],
    [(3, 1), (1, 1), (2, 1), (0, 1)],
    [(4, 1), (0, 1), (3, 1), (0, 1), (1, 1), (2, 1), (0, 1)],
    [(4, 1), (0, 1), (2, 1)],
    [(4, 1), (3, 1), (0, 1)],
]


def report_pass(num, label, elapsed, budget):
    if elapsed >= 1.0:
        shown = "%.1f s" % elapsed
    else:
        shown = "%.3f ms" % (elapsed * 1e3)
    if budget >= 1.0:
        limit = "%.0f s" % budget
    else:
        limit = "%.0f ms" % (budget * 1e3)
    print("PASS  criterion %2d: %s (%s < %s)" % (num, label, shown, limit))


def canonical_set(relators):
    return sorted(canonical_letters(r) for r in relators)


def test_criterion_01_tetrahedral_table():
    s4 = symmetric_group(4)
    # the four oriented 3-cycles, listed by the vertex each one fixes
    names = ["0231", "3102", "1320", "2013"]
    cycles = [s4.element_names.index(n) for n in names]
    t0 = time.perf_counter()
    q = conjugation_quandle(s4, cycles)
    assert q.rows == QS4_TABLE
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.001
    report_pass(1, "tetrahedral quandle table, 16 cells exact",
                elapsed, 0.001)


def test_criterion_02_axiom_suites():
    tables = [dihedral(n).rows for n in range(2, 10)] + [QS4_TABLE]
    t0 = time.perf_counter()
    for table in tables:
        assert check_axioms(table).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010
    report_pass(2, "axioms I-III exhaustive on R2..R9 and QS4",
                elapsed, 0.010)


def test_criterion_03_coloring_counts():
    trefoil = builtin("trefoil").diagram()
    fig8 = builtin("figure8").diagram()
    r3, qs4 = dihedral(3), tetrahedral()
    t0 = time.perf_counter()
    c = count_colorings(trefoil, r3)
    assert (c.total, c.nontrivial) == (9, 6)
    assert c.total == brute_color_total(trefoil, r3)
    c = count_colorings(fig8, r3)
    assert (c.total, c.nontrivial) == (3, 0)
    assert c.total == brute_color_total(fig8, r3)
    c = count_colorings(fig8, qs4)
    assert c.nontrivial > 0
    assert c.total == brute_color_total(fig8, qs4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.100
    report_pass(3, "coloring counts vs exhaustive oracle", elapsed, 0.100)


def test_criterion_04_distinctness():
    recs = [builtin(n) for n in builtin_names()]
    qs = [dihedral(3), tetrahedral()]
    t0 = time.perf_counter()
    for i in range(3):
        for j in range(i + 1, 3):
            assert distinguish(recs[i], recs[j], qs).verdict == "DISTINCT"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(4, "all three built-in pairs DISTINCT", elapsed, 1.0)


def test_criterion_05_wirtinger_fidelity():
    import itertools
    trefoil = builtin("trefoil").diagram()
    # x z^-1 y^-1 z, z y^-1 x^-1 y, y x^-1 z^-1 x with x,y,z = 0,1,2
    reference = [
        [(0, 1), (2, -1), (1, -1), (2, 1)],
        [(2, 1), (1, -1), (0, -1), (1, 1)],
        [(1, 1), (0, -1), (2, -1), (0, 1)],
    ]
    t0 = time.perf_counter()
    p = wirtinger(trefoil)
    got = canonical_set(p.relators)
    hit = False
    for perm in itertools.permutations(range(3)):
        relabeled = [[(perm[g], e) for g, e in r] for r in reference]
        if canonical_set(relabeled) == got:
            hit = True
            break
    assert hit
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010
    report_pass(5, "trefoil Wirtinger relators match the classic triple",
                elapsed, 0.010)


def test_criterion_06_simplification_fidelity():
    trefoil = builtin("trefoil").diagram()
    # x y x (y x y)^-1 on two letters, either assignment
    braid = [(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)]
    swapped = [(1 - g, e) for g, e in braid]
    targets = {canonical_letters(braid), canonical_letters(swapped)}
    t0 = time.perf_counter()
    qa = tietze_simplify(wirtinger(trefoil))
    assert (len(qa.generators), len(qa.relators)) == (2, 1)
    assert canonical_letters(qa.relators[0]) in targets
    qb = tietze_simplify(alexander_briggs(trefoil))
    assert (len(qb.generators), len(qb.relators)) == (2, 1)
    assert canonical_letters(qb.relators[0]) in targets
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010
    report_pass(6, "both trefoil presentations simplify to xyx(yxy)⁻¹",
                elapsed, 0.010)


def test_criterion_07_region_presentation_fidelity():
    trefoil = builtin("trefoil").diagram()
    fig8 = builtin("figure8").diagram()
    groups = (symmetric_group(3), symmetric_group(4), alternating_group(4))
    t0 = time.perf_counter()
    p = alexander_briggs(trefoil)
    assert len(p.generators) == 5 and len(p.relators) == 6
    assert canonical_set(p.relators) \
        == canonical_set(TREFOIL_REGION_RELATORS)
    for d in (trefoil, fig8):
        pw, pr = wirtinger(d), alexander_briggs(d)
        for g in groups:
            assert hom_count(pr, g) == hom_count(pw, g)
        factors = abelianize(pr)
        assert factors[-1] == 0 and set(factors[:-1]) == {1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(7, "region presentation: frozen relators, hom counts, H1",
                elapsed, 1.0)


def test_criterion_08_move_invariance():
    r3, qs4, s3 = dihedral(3), tetrahedral(), symmetric_group(3)
    t0 = time.perf_counter()
    for name in builtin_names():
        d0 = builtin(name).diagram()
        want = (count_colorings(d0, r3).total,
                count_colorings(d0, qs4).total,
                hom_count(wirtinger(d0), s3))
        for seed in range(100):
            steps = seed % 30 + 1
            walk = random_walk(d0, steps, seed=seed, max_crossings=12)
            for d in walk[1:]:
                got = (count_colorings(d, r3).total,
                       count_colorings(d, qs4).total,
                       hom_count(wirtinger(d), s3))
                assert got == want, (name, seed, d.render_pd())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(8, "300 random walks preserve colorings and hom counts",
                elapsed, 60.0)


def test_criterion_09_one_fewer_relator():
    s3, a4 = symmetric_group(3), alternating_group(4)
    t0 = time.perf_counter()
    for name in builtin_names():
        p = wirtinger(builtin(name).diagram())
        full = (hom_count(p, s3), hom_count(p, a4))
        for drop in range(len(p.relators)):
            rest = [w for i, w in enumerate(p.relators) if i != drop]
            q = make_presentation(p.generators, rest)
            assert (hom_count(q, s3), hom_count(q, a4)) == full
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(9, "every single Wirtinger relator is redundant",
                elapsed, 1.0)


def test_criterion_10_bridge_identity():
    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    flips = [i for i in range(s3.order)
             if i != s3.identity and s3.mul(i, i) == s3.identity]
    three_cycles = [i for i in range(s4.order)
                    if i != s4.identity
                    and s4.mul(i, s4.mul(i, i)) == s4.identity]
    assert len(flips) == 3 and len(three_cycles) == 8
    t0 = time.perf_counter()
    pairs = [(s3, conjugation_quandle(s3, flips), flips),
             (s4, conjugation_quandle(s4, three_cycles), three_cycles)]
    for name in builtin_names():
        d = builtin(name).diagram()
        p = wirtinger(d)
        for g, q, cls in pairs:
            assert count_colorings(d, q).total == brute_hom_count(p, g, cls)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(10, "colorings = class-constrained hom counts", elapsed, 1.0)
