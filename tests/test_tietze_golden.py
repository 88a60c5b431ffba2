"""tietze_simplify pinned move for move.

golden_tietze.json holds, for each input PD code, the simplified
arc (Wirtinger) and region presentations: generator names and relators
in order.  The inputs are the built-in knots, 20 seeded 3- and
4-strand braid closures of 8-16 crossings, and every 50th diagram the
criterion-08 walks visit.  A change that reorders the Tietze moves on
purpose regenerates the file with

    PYTHONPATH=src:tests python tests/test_tietze_golden.py
"""

import json
import random
import sys
from pathlib import Path

from knotforge import (
    alexander_briggs,
    builtin,
    builtin_names,
    parse_pd,
    random_walk,
    tietze_simplify,
    wirtinger,
)

GOLDEN_PATH = Path(__file__).parent / "golden_tietze.json"


def golden_inputs() -> list[str]:
    from oracles import random_braid_knot
    pds = [builtin(name).diagram().render_pd() for name in builtin_names()]
    rng = random.Random(7)
    for _ in range(20):
        # lengths of 8..15 stay at most 16 after the parity bump
        pds.append(random_braid_knot(rng, rng.choice((3, 4)),
                                     rng.randint(8, 15)))
    visited = []
    for name in builtin_names():
        d0 = builtin(name).diagram()
        for seed in range(100):
            visited += random_walk(d0, seed % 30 + 1, seed=seed,
                                   max_crossings=12)[1:]
    pds += [d.render_pd() for d in visited[::50]]
    return pds


def simplified(pd: str) -> dict:
    d = parse_pd(pd)
    return {
        "wirtinger": tietze_simplify(wirtinger(d)).json_dict(),
        "region": (tietze_simplify(alexander_briggs(d)).json_dict()
                   if d.crossing_count else None),
    }


def test_tietze_output_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) > 100
    for entry in golden:
        got = simplified(entry["pd"])
        assert got == {"wirtinger": entry["wirtinger"],
                       "region": entry["region"]}, entry["pd"]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    GOLDEN_PATH.write_text(json.dumps(
        [dict(pd=pd, **simplified(pd)) for pd in golden_inputs()],
        indent=1) + "\n")
