"""Machine speed, sampled next to the work it scales.

The benchmark was defined on a 2-core sandbox that shares its cores
with other tenants: the same work runs up to 40% faster or slower from
one minute to the next, so raw times of two runs of one commit differ
by more than a regression gate can allow.  Next to the work, a fixed
probe is timed over and over; a time multiplied by ``factor()``
(the probe's reference time over its mean measured time) is the time
the work would take at the reference speed.

Work done in the benchmark process is scaled by ``kernel``, pure Python
doing what the library's loops do: table lookups, dict updates, integer
row operations, and building and sorting many short-lived records.
Work done in child processes (set-up, cli-cold) is scaled by
``ref_child``, a fresh interpreter importing a fixed set of standard
modules.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

# probe times at the reference speed: their means on the sandbox in a
# quiet minute, only a fixed scale since runs are compared with each
# other
KERNEL_S = 0.006
CHILD_WALL_S = 0.15
CHILD_IMPORT_S = 0.09

SHARE = 0.02        # kernel time per second of measured work

REF_CHILD = """\
import time
t0 = time.perf_counter()
import argparse, asyncio, concurrent.futures, dataclasses, decimal
import email.message, email.parser, fractions, http.client, json, logging
import statistics, typing, unittest, xml.dom.minidom
print(json.dumps(time.perf_counter() - t0))
"""


def kernel() -> int:
    table = [[(a * 7 + b * 3) % 24 for b in range(24)] for a in range(24)]
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(4000):
        a = table[i % 24][(i * 5) % 24]
        key = (a, i & 63)
        seen[key] = seen.get(key, 0) + 1
        acc = table[acc % 24][a]
    rows = [[(i * j) % 7 - 3 for j in range(40)] for i in range(40)]
    for i in range(1, 40):
        q = rows[i][0] // 2
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[0])]
    labels = sorted("X[%d,%d]" % (i % 97, i) for i in range(1000))
    # many short-lived records, as site and word lists are built
    sites = [("R2", (i, "L", i % 91), "edge %d over %d" % (i, i % 91))
             for i in range(6000)]
    sites.sort(key=lambda t: t[2])
    return acc + len(seen) + len(labels) + rows[-1][-1] + len(sites)


def ref_child(env: dict) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing the fixed modules,
    and the import time it measured itself."""
    t0 = perf_counter()
    res = subprocess.run([sys.executable, "-c", REF_CHILD],
                         capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    return perf_counter() - t0, json.loads(res.stdout)


class Speed:
    """Probe times collected over a run, against the probe's reference
    time."""

    def __init__(self, ref_s: float):
        self.ref_s = ref_s
        self.samples: list[float] = []

    def add(self, probe_s: float) -> None:
        self.samples.append(probe_s)

    def sample_kernel(self, work_s: float) -> None:
        """Time the kernel for about SHARE of the work just done, at
        least once, so samples spread evenly over measured time."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
            spent += self.samples[-1]
            if spent >= SHARE * work_s:
                return

    def factor(self) -> float:
        """Reference time per measured second."""
        return self.ref_s * len(self.samples) / sum(self.samples)
