"""The host's speed, gauged by fixed reference work, and times in reference
seconds.

On a shared 2-core x86-64 host the same pure-Python work ran at two speeds
about 1.7x apart, switching every few seconds or staying slow for minutes;
whole runs fell in slow stretches, so no statistic of raw times over a run
was steady.  The ratio of a piece of the program's work to this module's
fixed reference work, timed just before and just after it, held within about
10% in either speed.  So the benchmark reports its times in reference
seconds: measured seconds x REF_S / the seconds the probe took around them.
A reference second is a second on a host where one probe takes REF_S.

The probe is the benchmark's own code, not the program's: a change to the
program cannot change it.  It runs with the garbage collector off, so that
a collection of the program's heap is never charged to the probe.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REF_S = 0.0025         # one probe on the reference host at its fast speed
PROBE_EVERY_S = 0.2    # in a pass, a probe between ops at least this often

_INVERT = str.maketrans("aAbB", "AaBb")


def kernel() -> int:
    """Fixed reference work in the program's idiom: a breadth-first ball of
    reduced words, long string rewriting and exact fractions."""
    seen = {"": 0}
    frontier = [""]
    for depth in range(1, 8):
        found = []
        for w in frontier:
            for x in "aAbB":
                if w and w[-1] == x.swapcase():
                    continue
                u = w + x
                if u not in seen:
                    seen[u] = depth
                    found.append((len(u), u))
        found.sort()
        frontier = [u for _, u in found]
    s = "ab"
    for _ in range(17):
        s = s.translate(_INVERT)[::-1] + s[:len(s) // 2 + 1]
    q = Fraction(0)
    for k in range(1, 300):
        q += Fraction(k % 7 - 3, k % 5 + 1)
    return len(seen) + len(s) + q.numerator


def probe() -> float:
    """Seconds the reference work takes now: the faster of two runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, before: float, after: float) -> float:
    """Measured seconds in reference seconds, given the probes taken just
    before and just after them."""
    return seconds * REF_S * 2 / (before + after)


def ops_to_reference(times: list[float], probes: list) -> list[float]:
    """Each op's time in reference seconds.  `probes` holds (index of the
    next op, probe seconds) in increasing index, from 0 to len(times): op k
    is scaled by the last probe before it and the first after it."""
    out = []
    j = 0
    for k, t in enumerate(times):
        while probes[j + 1][0] <= k:
            j += 1
        out.append(to_reference(t, probes[j][1], probes[j + 1][1]))
    return out
