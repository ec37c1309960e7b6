"""One trial of a workload in a fresh process: set-up, a cold pass, then warm
passes over the same ops on the same engine.

Reads {"src", "workload", "inputs", "trace", "setup_only"} as JSON on stdin
and writes one JSON object on stdout.  run.py starts one of these per trial.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import speed
import workloads
from tracer import Tracer


def cache_sizes(qc) -> dict:
    """Entries in the engine's caches after the trial; a cache the package
    no longer has reads as zero."""
    def size(obj, attr):
        return len(getattr(obj, attr, ()))
    return {"words.psi_cache.entries": size(qc.graph.psi, "_apply_cache"),
            "graph.dist_cache.entries": size(qc.graph, "_dist_cache"),
            "graph.geo_cache.entries": size(qc.graph, "_geo_cache"),
            "moebius.point_cache.entries": size(qc.eps.hyp, "_point_cache"),
            "fill.cache.entries": size(qc.engine, "_fill_cache"),
            "quasicocycle.anchor_cache.entries": size(qc, "_anchor_cache")}


def run_pass(wl, qc, ops, failures, tracer):
    """(raw results, per-op seconds, per-op reference seconds, pass
    summary); an op that raises one of `failures` records the exception as
    its result.  The host's speed is probed at both ends of the pass and
    between ops at least every speed.PROBE_EVERY_S."""
    wl.begin_pass(qc)
    raws, times = [], []
    probes = [(0, speed.probe())]
    last = perf_counter()
    for arg in ops:
        if perf_counter() - last > speed.PROBE_EVERY_S \
                and probes[-1][0] < len(times):
            probes.append((len(times), speed.probe()))
            last = perf_counter()
        t0 = perf_counter()
        try:
            raw = tracer.span("op", wl.op, qc, arg) if tracer \
                else wl.op(qc, arg)
        except failures as exc:
            raw = exc
        times.append(perf_counter() - t0)
        raws.append(raw)
    probes.append((len(times), speed.probe()))
    return (raws, times, speed.ops_to_reference(times, probes),
            wl.end_pass(qc, raws))


def execute(name: str, inputs, trace: bool, setup_only: bool = False) -> dict:
    wl = workloads.WORKLOADS[name]
    before = speed.probe()
    t0 = perf_counter()
    qc = wl.setup()
    setup_raw_s = perf_counter() - t0
    setup_s = speed.to_reference(setup_raw_s, before, speed.probe())
    if setup_only:
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

    from cuspedforms import errors
    failures = tuple(getattr(errors, exc)
                     for exc in workloads.FAILURE_TYPES)
    ops = wl.decode(inputs)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        cold = run_pass(wl, qc, ops, failures, tracer)
        warms = [run_pass(wl, qc, ops, failures, tracer)
                 for _ in range(wl.warm_passes)]
        unbound = tracer.unbound_originals() if tracer else []
    finally:
        if tracer:
            tracer.uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def encoded(p):
        outputs = [{"failed": type(r).__name__} if isinstance(r, failures)
                   else wl.encode(qc, arg, r) for arg, r in zip(ops, p[0])]
        return {"outputs": outputs, "summary": p[3]}

    cold_out = encoded(cold)
    warm_outs = [encoded(w) for w in warms]
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
              "cold_raw_s": sum(cold[1]), "op_times": cold[2],
              "warm_raw_s": min(sum(w[1]) for w in warms),
              "warm_op_times": [w[2] for w in warms],
              "peak_rss_mib": peak, "cold": cold_out,
              # the first warm pass that disagrees with the cold pass, if any
              "warm": next((w for w in warm_outs if w != cold_out),
                           warm_outs[0])}
    if tracer:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "raised": [[stat, exc, n]
                       for (stat, exc), n in sorted(tracer.raised.items())],
            "caches": cache_sizes(qc),
            "absent": tracer.absent,
            "unbound": unbound,
            "spans": tracer.span_summary()}
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    json.dump(execute(spec["workload"], spec["inputs"], spec["trace"],
                      spec["setup_only"]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
