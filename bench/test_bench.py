"""Tests of the benchmark's own corpus generator, oracle and spans.

    python3 -m pytest bench -q
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

from knotforge import count_colorings, dihedral, parse_pd

from corpus import (braid_closure_pd, random_knot_word, simplify_corpus,
                    torus_2_pd)
from oracle import fox_coloring_total
from spans import Tracer
from speed import Speed


@pytest.mark.parametrize("word, strands, total", [
    ([1, 1, 1], 2, 9),             # trefoil
    ([1, -2, 1, -2], 3, 3),        # figure-eight
    ([1] * 5, 2, 3),               # T(2,5)
    ([-1, -1, -1], 2, 9),          # mirror trefoil
    ([1, 2] * 2, 3, 9),            # T(3,2), the trefoil again
])
def test_known_closures(word, strands, total):
    pd = braid_closure_pd(word, strands)
    d = parse_pd(pd)
    assert d.crossing_count == len(word)
    assert count_colorings(d, dihedral(3)).total == total
    assert fox_coloring_total(pd, 3) == total


def test_links_are_rejected():
    with pytest.raises(ValueError):
        braid_closure_pd([1, 1], 2)             # Hopf link
    with pytest.raises(ValueError):
        braid_closure_pd([1, 1, 1], 3)          # strand 3 never moves


@pytest.mark.parametrize("strands", [2, 3, 4, 5])
@pytest.mark.parametrize("length", [6, 7])
def test_word_parity_is_fixed_first(strands, length):
    # a length of the wrong parity can never close to a knot; the
    # generator must bump it instead of resampling forever
    word = random_knot_word(random.Random(length), strands, length)
    assert len(word) % 2 == (strands - 1) % 2
    assert len(word) - length in (0, 1)
    parse_pd(braid_closure_pd(word, strands))


def test_generated_codes_parse():
    for seed in range(4):
        for pd in simplify_corpus(seed, 10):
            assert 12 <= parse_pd(pd).crossing_count <= 16
    rng = random.Random(7)
    for n in (100, 300):
        assert parse_pd(braid_closure_pd(
            random_knot_word(rng, 3, n), 3)).crossing_count == n
    assert parse_pd(torus_2_pd(201)).crossing_count == 201


def test_corpus_is_seeded():
    assert simplify_corpus(3, 5) == simplify_corpus(3, 5)
    assert simplify_corpus(3, 5) != simplify_corpus(4, 5)


def test_fox_oracle_matches_coloring_search():
    rng = random.Random(11)
    r3, r5 = dihedral(3), dihedral(5)
    for _ in range(40):
        strands = rng.choice([3, 4])
        pd = braid_closure_pd(
            random_knot_word(rng, strands, rng.randrange(2, 10)), strands)
        d = parse_pd(pd)
        assert fox_coloring_total(pd, 3) == count_colorings(d, r3).total
        assert fox_coloring_total(pd, 5) == count_colorings(d, r5).total
    assert fox_coloring_total("U", 3) == 3
    # T(2,k): 9 three-colorings exactly when 3 divides k
    assert fox_coloring_total(torus_2_pd(201), 3) == 9
    assert fox_coloring_total(torus_2_pd(101), 3) == 3


def test_self_time_subtracts_children():
    tr = Tracer(True)

    def inner():
        return 1

    def outer():
        return tr.call("inner", inner) + tr.call("inner", inner)

    assert tr.call("outer", outer) == 2
    total, calls = tr.self_times()
    assert calls == {"outer": 1, "inner": 2}
    span = tr.spans[0]
    assert total["outer"] == pytest.approx(
        span[2] - span[1] - sum(e - s for _, s, e, p, _ in tr.spans if p == 0))
    assert all(v >= 0 for v in total.values())

    off = Tracer(False)
    assert off.call("outer", lambda: 3) == 3 and off.spans == []


def test_speed_factor_is_reference_over_mean():
    s = Speed(0.5)
    for t in (1.0, 0.5, 1.5):
        s.add(t)
    assert s.factor() == pytest.approx(0.5)
    s.sample_kernel(0.0)              # always at least one sample
    assert len(s.samples) == 4
