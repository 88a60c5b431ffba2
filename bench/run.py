"""knotforge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload walk-check --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced run, whose
spans are also written to ``.bench_out/``.  Exits 2 without a result
when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import Tracer
from speed import CHILD_IMPORT_S, CHILD_WALL_S, KERNEL_S, Speed, ref_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "KNOTFORGE_THREADS"}

SETUP_PROBES = 7
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import knotforge
t1 = time.perf_counter()
for name in filter(None, sys.argv[2].split(",")):
    knotforge.quandle_by_name(name)
t2 = time.perf_counter()
for name in filter(None, sys.argv[3].split(",")):
    knotforge.group_by_name(name)
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""

# span names whose summed self time is reported; cli.main.<verb> are
# the warm in-process runs made while checking cli-cold
SPANS = ["diagram.parse_pd", "diagram.arcs", "diagram.regions",
         "diagram.canonical_pd", "moves.find_sites.<kind>", "moves.apply",
         "moves.random_walk", "quandle.count_colorings.R3",
         "quandle.count_colorings.QS4", "presentation.wirtinger",
         "presentation.alexander_briggs",
         "presentation.tietze_simplify.wirtinger",
         "presentation.tietze_simplify.ab", "presentation.hom_count",
         "presentation.abelianize", "cli.child", "cli.main.<verb>"]
CALLS = ["quandle.count_colorings.R3", "quandle.count_colorings.QS4",
         "presentation.hom_count"]
PER_ITEM = ["diagram.crossings", "presentation.gens_in",
            "presentation.letters_in", "moves.sites.<kind>"]
CHECKSUMS = ("quandle.colorings_total", "presentation.hom_total",
             "presentation.tietze.gens_out", "presentation.tietze.letters_out")


def fail(msg: str) -> None:
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def setup_probes(quandles: list[str], groups: list[str]) -> list[list[float]]:
    """[import, quandles, groups, reference import] seconds: fresh
    interpreters one at a time, each right after a reference child
    (speed.py); the first pair, which may write bytecode caches, is
    dropped."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC),
           ",".join(quandles), ",".join(groups)]
    out = []
    for i in range(SETUP_PROBES + 1):
        ref = ref_child(CHILD_ENV)[1]
        res = subprocess.run(cmd, capture_output=True, text=True,
                             env=CHILD_ENV, cwd=ROOT, timeout=60)
        if res.returncode != 0:
            fail("set-up probe failed:\n" + res.stderr)
        if i:
            out.append(json.loads(res.stdout) + [ref])
    return out


class Run:
    """What the timed loop measured and what the checks found."""

    def __init__(self):
        self.units: list = []
        self.unit_secs: list[float] = []
        self.round_secs: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.attempted = 0
        self.sums: Counter = Counter()     # checksums of the first rounds
        self.speed: Speed

    @property
    def elapsed(self) -> float:
        return sum(self.round_secs)


def measure(wl, tr: Tracer, seconds: float) -> Run:
    """Whole rounds while the next one is expected to fit in `seconds`,
    at least wl.min_rounds.  Each round is checked after its clock
    stops, so results never pile up across rounds."""
    run = Run()
    rounds = wl.rounds()
    if wl.in_process:
        run.speed = Speed(KERNEL_S)
        sample = run.speed.sample_kernel
    else:
        run.speed = Speed(CHILD_WALL_S)
        sample = lambda work_s: run.speed.add(ref_child(CHILD_ENV)[0])
    while True:
        done = len(run.round_secs)
        if done >= wl.min_rounds and \
                run.elapsed * (done + 1) / done > seconds:
            return run
        recs = []
        for unit in next(rounds):
            ui = len(run.units)
            tr.item = ui
            t0 = perf_counter()
            try:
                out = tr.call("bench.unit", wl.run, unit, tr)
            except Exception as e:      # RecursionError included
                out = ()
                run.failures.append((ui, "%s: %s" % (type(e).__name__, e)))
                run.attempted += 1
            run.unit_secs.append(perf_counter() - t0)
            sample(run.unit_secs[-1])
            run.units.append(unit)
            recs += [(ui, dt, res) for dt, res in out]
        # work time only: the speed samples are not part of it
        run.round_secs.append(sum(run.unit_secs) - run.elapsed)

        for ui, dt, res in recs:
            tr.item = ui
            try:
                why = wl.check(run.units[ui], res, tr)
            except Exception as e:
                why = "check raised %s: %s" % (type(e).__name__, e)
            if why:
                run.failures.append((ui, why))
            run.latencies.append(dt)
        run.attempted += len(recs)
        if done < wl.min_rounds:
            run.sums.update(wl.checksums(
                [(run.units[ui], res) for ui, _, res in recs]))


def percentile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "knotforge").rglob("*.py")))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("walk-check", "simplify", "scale", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "knotforge" / "__init__.py").is_file():
        fail("no library at %s; run from a checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import knotforge
    if Path(knotforge.__file__).resolve().parent != SRC / "knotforge":
        fail("imported knotforge from %s, not this checkout"
             % knotforge.__file__)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    probes = setup_probes(cls.quandles, cls.groups)
    tr = Tracer(bool(args.trace))
    wl = cls(args.seed)
    run = measure(wl, tr, args.seconds)
    for ui, why in run.failures[:10]:
        print(("FAIL unit %d %r: %s" % (ui, run.units[ui], why))[:400],
              file=sys.stderr)
    if not run.latencies:
        fail("no item finished")

    lat = sorted(run.latencies)
    rss_kb = getattr(wl, "peak_rss_kb", None) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "setup_s": statistics.median(sum(p[:3]) for p in probes),
        "items_per_s": len(lat) / run.elapsed,
        "item_p50_ms": statistics.median(lat) * 1e3,
    }
    # times at the reference machine speed, see speed.py
    f = run.speed.factor()
    e2e = {
        "setup_s": (statistics.median(
            sum(p[:3]) / p[3] for p in probes) * CHILD_IMPORT_S, "s"),
        "items_per_s": (raw["items_per_s"] / f, "1/s"),
        "item_p50_ms": (raw["item_p50_ms"] * f, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    print("workload %s seed %d: %d items in %d units, %d rounds, %.2f s;"
          " speed factor %.3f"
          % (args.workload, args.seed, len(lat), len(run.units),
             len(run.round_secs), run.elapsed, f))
    for name, (v, unit) in e2e.items():
        print("  %-12s %12.4f %-4s %s" % (
            name, v, unit, "(raw %.4f)" % raw[name] if name in raw else ""))
    if len(lat) >= 100:
        print("  item_p90_ms  %12.4f ms   (n=%d)"
              % (percentile(lat, 90) * f * 1e3, len(lat)))
    print("  fail_ratio   %12.4f      (%d of %d)"
          % (len(run.failures) / run.attempted, len(run.failures),
             run.attempted))

    if args.trace:
        metrics = layer_metrics(args, wl, tr, probes, run)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))


def layer_metrics(args, wl, tr: Tracer, probes, run: Run) -> dict:
    from knotforge import KINDS
    from workloads import VERBS

    def expand(names):
        for n in names:
            if "<kind>" in n:
                yield from (n.replace("<kind>", k) for k in KINDS)
            elif "<verb>" in n:
                yield from (n.replace("<verb>", v) for v in VERBS)
            else:
                yield n

    out: dict[str, tuple[float, str]] = {}
    self_s, calls = tr.self_times()
    for name in expand(SPANS):
        out[name + ".s"] = (self_s.get(name, 0.0), "s")
    for name in CALLS:
        out[name + ".calls"] = (calls.get(name, 0), "count")
    for name in expand(PER_ITEM):      # per item, the input mix
        out[name] = (tr.counts.get(name, 0) / len(run.latencies), "count")
    # exact counts over the first rounds: the same inputs on every
    # commit for a given seed
    for name in CHECKSUMS:
        out[name] = (run.sums[name], "count")
    for i, name in enumerate(("setup.import.s", "quandle.construct.s",
                              "groups.construct.s")):
        out[name] = (statistics.median(p[i] for p in probes), "s")
    # the report's thread pool, which is not a gate: median per call
    probe = getattr(wl, "report_probe", lambda threads: 0.0)
    out["db.report.s"] = (probe(None), "s")
    out["db.report.threads2.s"] = (probe("2"), "s")
    out["src.lines"] = (src_lines(), "count")
    out["bench.loop.s"] = (run.elapsed, "s")
    out["bench.speed_factor"] = (run.speed.factor(), "ratio")
    out["bench.items"] = (len(run.latencies), "count")
    out["trace.overhead_pct"] = (overhead_pct(wl, run, args.seconds), "%")
    loop_spans = sum(1 for sp in tr.spans if sp[0] != "bench.unit" and
                     not sp[0].startswith("cli.main."))
    out["trace.span_cost_pct"] = (
        100 * loop_spans * span_cost() / run.elapsed, "%")

    dump_dir = ROOT / ".bench_out"
    dump_dir.mkdir(exist_ok=True)
    path = dump_dir / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
    tr.dump(str(path))
    print("  traced: %d spans -> %s" % (len(tr.spans), path.relative_to(ROOT)))
    top = sorted(((v, k) for k, (v, u) in out.items() if u == "s" and v
                  and not k.startswith(("bench.", "setup.", "cli.main.",
                                        "db.", "quandle.construct",
                                        "groups.construct"))),
                 reverse=True)[:6]
    for v, k in top:
        print("  self %-44s %8.3f s  %5.1f%% of the loop"
              % (k, v, 100 * v / run.elapsed))
    print("  tracing overhead %.2f%% (traced vs untraced replay), "
          "%.4f%% (span count x cost per span)"
          % (out["trace.overhead_pct"][0], out["trace.span_cost_pct"][0]))
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def span_cost(n: int = 20000) -> float:
    """Seconds a traced call adds over an untraced one."""
    def noop():
        return None
    cost = {}
    for traced in (False, True):
        tr = Tracer(traced)
        t0 = perf_counter()
        for _ in range(n):
            tr.call("noop", noop)
        cost[traced] = (perf_counter() - t0) / n
    return max(cost[True] - cost[False], 0.0)


def overhead_pct(wl, run: Run, seconds: float) -> float:
    """Run the first units again, untraced and traced in turn (which
    goes first alternates), for about a quarter of the run; interleaving
    keeps machine drift out of the difference."""
    failed = {ui for ui, _ in run.failures}
    modes = {False: 0.0, True: 0.0}
    for ui, unit in enumerate(run.units):
        if modes[False] > seconds / 8:
            break
        if ui in failed:
            continue
        for traced in (ui % 2 == 0, ui % 2 == 1):
            t0 = perf_counter()
            wl.run(unit, Tracer(traced))
            modes[traced] += perf_counter() - t0
    return 100 * (modes[True] / modes[False] - 1)


if __name__ == "__main__":
    main()
