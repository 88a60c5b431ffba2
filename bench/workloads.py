"""The four benchmark workloads.

Each workload is a closed loop: one client, one process, no threads,
each unit of work starting after the previous one ends.  A workload
gives the loop rounds of units; ``run`` does one unit and returns one
record per item, timed; ``check`` then tests the records outside the
timed region against answers the library did not compute.  Every call
into a layer goes through ``tr.call`` so a traced run sees it.
``in_process`` says whether the timed work runs in this process or in
child processes, which decides how speed.py measures the machine's
speed next to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import knotforge as kf
from knotforge import cli as kf_cli, db as kf_db

from corpus import (braid_closure_pd, random_knot_word, simplify_corpus,
                    torus_2_pd)
from oracle import fox_coloring_total

WALK_CAP = 12
VERBS = ("validate", "invariants", "colorings", "homcount", "walk",
         "distinguish")
ROOT = Path(kf.__file__).resolve().parents[2]     # the checkout


def _build(quandles: list[str], groups: list[str]) -> tuple[dict, dict]:
    return ({n: kf.quandle_by_name(n) for n in quandles},
            {n: kf.group_by_name(n) for n in groups})


def _is_z(factors) -> bool:
    """H1 of a knot complement: one Z and nothing else."""
    return sorted(factors) == [0] + [1] * (len(factors) - 1)


def _size(p) -> tuple[int, int]:
    return len(p.generators), sum(len(w) for w in p.relators)


class WalkCheck:
    """Criterion-08 shape: seeded Reidemeister walks from each built-in
    knot, every visited diagram's R3, QS4 and hom(W, S3) compared with
    the start diagram's.  One item is one visited diagram; its latency
    is its three invariants (the walk itself counts in the throughput).

    A round is the criterion-08 walks with walk seeds 0..19 from each
    knot (steps = walk seed % 30 + 1), in an order drawn from the run's
    seed.  The population is fixed because the cost of a walk is too
    heavy-tailed for a 20 s sample of seed-drawn walks to be steady:
    walk seed 7191447 from the unknot (28 steps) visits 12-crossing
    diagrams whose QS4 search alone takes 8-12 s each."""

    name = "walk-check"
    in_process = True
    quandles = ["R3", "QS4"]
    groups = ["S3"]
    min_rounds = 1
    WALK_SEEDS = range(20)

    def __init__(self, seed: int):
        self.q, self.g = _build(self.quandles, self.groups)
        self.rng = random.Random(seed)
        self.names = kf.builtin_names()
        self.start = {}
        for n in self.names:
            d = kf.builtin(n).diagram()
            self.start[n] = (kf.count_colorings(d, self.q["R3"]).total,
                             kf.count_colorings(d, self.q["QS4"]).total,
                             kf.hom_count(kf.wirtinger(d), self.g["S3"]))

    def rounds(self):
        walks = [(n, s, s % 30 + 1)
                 for n in self.names for s in self.WALK_SEEDS]
        while True:
            self.rng.shuffle(walks)
            yield list(walks)

    def run(self, unit, tr):
        name, walk_seed, steps = unit
        d0 = tr.call("diagram.parse_pd", kf.parse_pd, kf.builtin(name).pd)
        walk = tr.call("moves.random_walk", kf.random_walk, d0, steps,
                       seed=walk_seed, max_crossings=WALK_CAP)
        out = []
        for d in walk[1:]:
            t0 = perf_counter()
            r3 = tr.call("quandle.count_colorings.R3", kf.count_colorings,
                         d, self.q["R3"]).total
            qs4 = tr.call("quandle.count_colorings.QS4", kf.count_colorings,
                          d, self.q["QS4"]).total
            w = tr.call("presentation.wirtinger", kf.wirtinger, d)
            h = tr.call("presentation.hom_count", kf.hom_count, w,
                        self.g["S3"])
            out.append((perf_counter() - t0, (d, r3, qs4, h)))
            tr.count("diagram.crossings", d.crossing_count)
        return out

    def check(self, unit, result, tr) -> str | None:
        d, r3, qs4, h = result
        if (r3, qs4, h) != self.start[unit[0]]:
            return "walk changed an invariant: %r" % ((r3, qs4, h),)
        if r3 != fox_coloring_total(d.render_pd(), 3):
            return "R3 total disagrees with the Fox matrix"
        if h != r3 + 3:
            return "hom(G, S3) != R3 total + 3"
        return None

    @staticmethod
    def checksums(pairs) -> dict:
        return {"quandle.colorings_total": sum(r[1] + r[2] for _, r in pairs),
                "presentation.hom_total": sum(r[3] for _, r in pairs)}


class Simplify:
    """Tietze simplification of both presentations of 12..16-crossing
    3- and 4-braid closures, with H1 and hom counts before and after."""

    name = "simplify"
    in_process = True
    quandles: list[str] = []
    groups = ["S3", "A4"]
    ROUND = 5       # one closure of each (strands, length) class
    min_rounds = 2

    def __init__(self, seed: int):
        self.q, self.g = _build(self.quandles, self.groups)
        self.seed = seed

    def rounds(self):
        # every other round comes from one fixed stream shared by all
        # runs, which halves the input share of run-to-run spread
        k = 0
        while True:
            stream = self.seed if k % 2 else "shared"
            yield simplify_corpus("%s/%d" % (stream, k // 2), self.ROUND)
            k += 1

    def run(self, pd, tr):
        s3, a4 = self.g["S3"], self.g["A4"]
        t0 = perf_counter()
        d = tr.call("diagram.parse_pd", kf.parse_pd, pd)
        tr.call("diagram.regions", lambda: d.regions)
        w = tr.call("presentation.wirtinger", kf.wirtinger, d)
        ab = tr.call("presentation.alexander_briggs", kf.alexander_briggs, d)
        h1 = tr.call("presentation.abelianize", kf.abelianize, w)
        hw = tr.call("presentation.hom_count", kf.hom_count, w, s3)
        sw = tr.call("presentation.tietze_simplify.wirtinger",
                     kf.tietze_simplify, w)
        sab = tr.call("presentation.tietze_simplify.ab",
                      kf.tietze_simplify, ab)
        h1w = tr.call("presentation.abelianize", kf.abelianize, sw)
        h1ab = tr.call("presentation.abelianize", kf.abelianize, sab)
        hsw = tr.call("presentation.hom_count", kf.hom_count, sw, s3)
        hab = tr.call("presentation.hom_count", kf.hom_count, sab, a4)
        dt = perf_counter() - t0
        tr.count("diagram.crossings", d.crossing_count)
        for p in (w, ab):
            gens, letters = _size(p)
            tr.count("presentation.gens_in", gens)
            tr.count("presentation.letters_in", letters)
        return [(dt, (h1, h1w, h1ab, hw, hsw, hab, sw, sab))]

    def check(self, pd, result, tr) -> str | None:
        h1, h1w, h1ab, hw, hsw, hab, sw, sab = result
        if not (_is_z(h1) and _is_z(h1w) and _is_z(h1ab)):
            return "H1 is not Z before and after Tietze"
        if hw != fox_coloring_total(pd, 3) + 3:
            return "hom(W, S3) != Fox R3 total + 3"
        if hsw != hw:
            return "Tietze changed hom(G, S3)"
        if hab != kf.hom_count(sw, self.g["A4"]):
            return "simplified region and Wirtinger disagree on hom(G, A4)"
        return None

    @staticmethod
    def checksums(pairs) -> dict:
        # what Tietze leaves, over both presentations: exact counts, so a
        # faster Tietze that simplifies less shows here
        out = {"presentation.hom_total": 0, "presentation.tietze.gens_out": 0,
               "presentation.tietze.letters_out": 0}
        for _, (_, _, _, hw, hsw, hab, sw, sab) in pairs:
            out["presentation.hom_total"] += hw + hsw + hab
            for p in (sw, sab):
                gens, letters = _size(p)
                out["presentation.tietze.gens_out"] += gens
                out["presentation.tietze.letters_out"] += letters
        return out


class Scale:
    """A few large diagrams through every layer but the coloring
    search: T(2,101), T(2,201) and seeded 3-braid closures with 100, 200
    and 300 crossings.  hom_count runs on the torus knots only."""

    name = "scale"
    in_process = True
    quandles: list[str] = []
    groups = ["S3"]
    min_rounds = 1

    def __init__(self, seed: int):
        self.q, self.g = _build(self.quandles, self.groups)
        self.seed = seed

    def rounds(self):
        # as in simplify, every other round's braids come from one fixed
        # stream shared by all runs
        k = 0
        while True:
            stream = self.seed if k % 2 else "shared"
            rng = random.Random("%s/%d" % (stream, k // 2))
            unit = [("T(2,%d)" % n, torus_2_pd(n), n) for n in (101, 201)]
            unit += [("B3x%d" % n,
                      braid_closure_pd(random_knot_word(rng, 3, n), 3), None)
                     for n in (100, 200, 300)]
            yield [(label, pd, torus, rng.random())
                   for label, pd, torus in unit]
            k += 1

    def run(self, unit, tr):
        label, pd, torus, pick = unit
        t0 = perf_counter()
        d = tr.call("diagram.parse_pd", kf.parse_pd, pd)
        tr.call("diagram.arcs", lambda: d.arcs)
        tr.call("diagram.regions", lambda: d.regions)
        canon = tr.call("diagram.canonical_pd", kf.canonical_pd, d)
        sites, moved = {}, {}
        for kind in kf.KINDS:
            found = tr.call("moves.find_sites." + kind, kf.find_sites, d, kind)
            sites[kind] = len(found)
            tr.count("moves.sites." + kind, len(found))
            if found:
                moved[kind] = tr.call("moves.apply", kf.apply_move, d,
                                      found[int(pick * len(found))])
            del found
        w = tr.call("presentation.wirtinger", kf.wirtinger, d)
        tr.call("presentation.alexander_briggs", kf.alexander_briggs, d)
        h1 = tr.call("presentation.abelianize", kf.abelianize, w)
        h = None
        if torus:
            h = tr.call("presentation.hom_count", kf.hom_count, w,
                        self.g["S3"])
        dt = perf_counter() - t0
        tr.count("diagram.crossings", d.crossing_count)
        gens, letters = _size(w)
        tr.count("presentation.gens_in", gens)
        tr.count("presentation.letters_in", letters)
        return [(dt, (d.crossing_count, canon, sites,
                      {k: m.render_pd() for k, m in moved.items()}, h1, h))]

    DELTA = {"R1_ADD": 1, "R1_REMOVE": -1, "R2_ADD": 2, "R2_REMOVE": -2,
             "R3": 0}

    def check(self, unit, result, tr) -> str | None:
        label, pd, torus, _ = unit
        n, canon, sites, moved, h1, h = result
        if n != pd.count("X["):
            return "%s: crossing count %d" % (label, n)
        r3 = fox_coloring_total(pd, 3)
        if fox_coloring_total(canon, 3) != r3 or canon.count("X[") != n:
            return "%s: canonical_pd is not the same diagram" % label
        if sites["R1_ADD"] != 8 * n:
            return "%s: %d R1_ADD sites, expected 8n" % (
                label, sites["R1_ADD"])
        for kind, moved_pd in moved.items():
            if moved_pd.count("X[") != n + self.DELTA[kind]:
                return "%s: %s changed the size wrongly" % (label, kind)
            if fox_coloring_total(moved_pd, 3) != r3:
                return "%s: %s changed the R3 total" % (label, kind)
        if not _is_z(h1):
            return "%s: H1 is not Z" % label
        if torus:
            # T(2,k): 9 three-colorings when 3 | k, else 3; the two big
            # k-gon faces and k bigons give 4k^2 R2_ADD sites
            if r3 != (9 if torus % 3 == 0 else 3) or h != r3 + 3:
                return "%s: hom(G, S3) %r, R3 %d" % (label, h, r3)
            if sites["R2_ADD"] != 4 * torus * torus:
                return "%s: %d R2_ADD sites" % (label, sites["R2_ADD"])
        return None

    @staticmethod
    def checksums(pairs) -> dict:
        return {"presentation.hom_total": sum(r[5] or 0 for _, r in pairs)}


class CliCold:
    """Fresh ``python -m knotforge ... --json`` processes, one at a
    time, over a fixed verb mix; each output is compared with the same
    command run in this process and with the Fox oracle."""

    name = "cli-cold"
    in_process = False
    quandles = ["R3", "QS4"]
    groups = ["S3", "A4"]
    min_rounds = 1

    def __init__(self, seed: int):
        self.q, self.g = _build(self.quandles, self.groups)
        self.rng = random.Random(seed)
        self.env = dict(os.environ)
        self.env.pop("KNOTFORGE_THREADS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.peak_rss_kb = 0

    def _pd(self) -> str:
        return braid_closure_pd(
            random_knot_word(self.rng, 3, self.rng.randrange(6, 11)), 3)

    def rounds(self):
        names = kf.builtin_names()
        while True:
            yield [
                ("validate", ["validate", "--pd", self._pd()]),
                ("invariants", ["invariants"]),
                ("colorings", ["colorings", "--pd", self._pd(),
                               "--quandle", "R3", "--list"]),
                ("homcount", ["homcount", "--pd", self._pd(),
                              "--groups", "S3,A4"]),
                ("walk", ["moves", "walk", "--knot", self.rng.choice(names),
                          "--steps", str(self.rng.randrange(5, 21)),
                          "--seed", str(self.rng.randrange(10 ** 6)),
                          "--cap", str(WALK_CAP)]),
                ("distinguish", ["distinguish", self._pd(),
                                 self.rng.choice(names)]),
            ]

    def run(self, unit, tr):
        return [tr.call("cli.child", self._spawn, unit[1])]

    def _spawn(self, argv):
        cmd = [sys.executable, "-m", "knotforge", *argv, "--json"]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env,
                                cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        # reap it here to read its peak memory
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        dt = perf_counter() - t0
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return dt, (proc.returncode, out)

    def warm(self, argv, tr, verb):
        """The same command run by cli.main in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli.main." + verb, kf_cli.main, [*argv, "--json"])
        return code, json.loads(buf.getvalue())

    def check(self, unit, result, tr) -> str | None:
        verb, argv = unit
        code, out = result
        if code != 0:
            return "%s exited %d" % (verb, code)
        got = json.loads(out)
        if (0, got) != self.warm(argv, tr, verb):
            return "%s: child and in-process output differ" % verb
        if verb == "validate":
            ok = len(got["crossings"]) == argv[2].count("X[")
        elif verb == "invariants":
            ok = all(r["colorings"]["R3"][0]
                     == fox_coloring_total(r["pd"], 3)
                     and r["homs"]["S3"] == r["colorings"]["R3"][0] + 3
                     for r in got["knots"])
        elif verb == "colorings":
            total = fox_coloring_total(argv[2], 3)
            ok = got["total"] == total == len(got["colorings"])
        elif verb == "homcount":
            ok = got["counts"]["S3"] == fox_coloring_total(argv[2], 3) + 3
        elif verb == "walk":
            want = {fox_coloring_total(pd, 3) for pd in got["walk"]}
            ok = len(got["walk"]) == int(argv[5]) + 1 and len(want) == 1
        else:
            a = fox_coloring_total(argv[1], 3)
            b = fox_coloring_total(kf_db.builtin(argv[2]).pd, 3)
            ok = a == b or (got["verdict"], got["witness"],
                            got["counts"]) == ("DISTINCT", "R3", [a, b])
        return None if ok else "%s output fails the oracle" % verb

    @staticmethod
    def checksums(pairs) -> dict:
        out = {"quandle.colorings_total": 0, "presentation.hom_total": 0}
        for (verb, _), (code, text) in pairs:
            if code != 0:
                continue
            got = json.loads(text)
            if verb == "colorings":
                out["quandle.colorings_total"] += got["total"]
            elif verb == "homcount":
                out["presentation.hom_total"] += sum(got["counts"].values())
        return out

    def report_probe(self, threads: str | None, reps: int = 5) -> float:
        """Median in-process time of the built-in invariants report."""
        recs = [kf.builtin(n) for n in kf.builtin_names()]
        qs = [self.q[n] for n in self.quandles]
        gs = [self.g[n] for n in self.groups]
        old = os.environ.pop("KNOTFORGE_THREADS", None)
        if threads is not None:
            os.environ["KNOTFORGE_THREADS"] = threads
        try:
            times = []
            for _ in range(reps):
                t0 = perf_counter()
                kf_db.report(recs, qs, gs)
                times.append(perf_counter() - t0)
        finally:
            os.environ.pop("KNOTFORGE_THREADS", None)
            if old is not None:
                os.environ["KNOTFORGE_THREADS"] = old
        times.sort()
        return times[len(times) // 2]


WORKLOADS = {w.name: w for w in (WalkCheck, Simplify, Scale, CliCold)}
