"""cuspedforms benchmark.

    python3 perfbench/run.py --workload defect --seed 7 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then runs trials in fresh
processes until --seconds have passed, at least three.  Each trial times
set-up, a cold pass and warm passes on one engine, in one thread, in
reference seconds (speed.py).  Every exact output is checked before
anything is reported.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it is the
run record.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_TRIALS = 3
MIN_TRACED = 2         # traced trials per traced run, so counts are compared
RUN_LIMIT_S = 150      # no new trial starts after this; a run must end in 180
OVERRUN = 1.25         # nor after this many times --seconds
SETUPS_PER_TRIAL = 1   # set-up-only processes started before each trial
TAIL_BEYOND = 10       # ops beyond the tail percentile

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mib", "MiB"), ("ok_frac", "ratio"))

# (metric, unit, source): source is ("calls"|"self_s", traced name),
# ("count"|"cache", counter), ("raised", traced name, exception type),
# or ("derived",)
PER_LAYER = (
    ("words.mul.calls", "count", ("calls", "words.mul")),
    ("words.mul.self_s", "s", ("self_s", "words.mul")),
    ("words.mul.letters_out", "count", ("count", "words.mul.letters_out")),
    ("words.psi.calls", "count", ("calls", "words.psi")),
    ("words.psi.self_s", "s", ("self_s", "words.psi")),
    ("words.psi.letters_out", "count", ("count", "words.psi.letters_out")),
    ("words.max_word_len", "count", ("count", "words.max_word_len")),
    ("words.psi_cache.entries", "count",
     ("cache", "words.psi_cache.entries")),
    ("graph.neighbors.calls", "count", ("calls", "graph.neighbors")),
    ("graph.neighbors.deep_calls", "count",
     ("count", "graph.neighbors.deep_calls")),
    ("graph.neighbors.out_vertices", "count",
     ("count", "graph.neighbors.out_vertices")),
    ("graph.neighbors.self_s", "s", ("self_s", "graph.neighbors")),
    ("graph.distance.calls", "count", ("calls", "graph.distance")),
    ("graph.distance.searches", "count",
     ("calls", "graph.distance.searches")),
    ("graph.distance.self_s", "s", ("self_s", "graph.distance")),
    ("graph.distance.cap_exceeded", "count",
     ("raised", "graph.distance", "CapExceeded")),
    ("graph.geodesic.calls", "count", ("calls", "graph.geodesic")),
    ("graph.geodesic.self_s", "s", ("self_s", "graph.geodesic")),
    ("graph.ball.calls", "count", ("calls", "graph.ball")),
    ("graph.ball.vertices", "count", ("count", "graph.ball.vertices")),
    ("graph.dist_cache.entries", "count",
     ("cache", "graph.dist_cache.entries")),
    ("graph.geo_cache.entries", "count",
     ("cache", "graph.geo_cache.entries")),
    ("moebius.eps.calls", "count", ("calls", "moebius.eps")),
    ("moebius.eps.self_s", "s", ("self_s", "moebius.eps")),
    ("moebius.point_cache.entries", "count",
     ("cache", "moebius.point_cache.entries")),
    ("chains.orbit_canonical.calls", "count",
     ("calls", "chains.orbit_canonical")),
    ("chains.orbit_canonical.self_s", "s",
     ("self_s", "chains.orbit_canonical")),
    ("chains.boundary.self_s", "s", ("self_s", "chains.boundary")),
    ("chains.translate.self_s", "s", ("self_s", "chains.translate")),
    ("chains.pair.self_s", "s", ("self_s", "chains.pair")),
    ("fill.anchored.calls", "count", ("calls", "fill.anchored")),
    ("fill.anchored.self_s", "s", ("self_s", "fill.anchored")),
    ("fill.cache.hit_ratio", "ratio", ("derived",)),
    ("fill.cache.entries", "count", ("cache", "fill.cache.entries")),
    ("fill.method.unit_simplex", "count",
     ("count", "fill.method.unit_simplex")),
    ("fill.method.cone_split", "count", ("count", "fill.method.cone_split")),
    ("fill.method.degenerate", "count", ("count", "fill.method.degenerate")),
    ("fill.combing.self_s", "s", ("self_s", "fill.combing")),
    ("fill.lp.self_s", "s", ("self_s", "fill.lp")),
    ("fill.lp.window_vertices", "count", ("count", "fill.lp.window_vertices")),
    ("fill.lp.simplices", "count", ("count", "fill.lp.simplices")),
    ("fill.lp.window_too_large", "count",
     ("raised", "fill.lp", "WindowTooLarge")),
    ("lp.exact.calls", "count", ("calls", "lp.exact")),
    ("lp.exact.self_s", "s", ("self_s", "lp.exact")),
    ("lp.float.calls", "count", ("calls", "lp.float")),
    ("lp.float.self_s", "s", ("self_s", "lp.float")),
    ("lp.cols.sum", "count", ("count", "lp.cols.sum")),
    ("lp.cols.max", "count", ("count", "lp.cols.max")),
    ("lp.rows.max", "count", ("count", "lp.rows.max")),
    ("lp.infeasible", "count", ("raised", "fill.lp", "Infeasible")),
    ("lp.improved", "ratio", ("derived",)),
    ("quasicocycle.alpha.calls", "count", ("calls", "quasicocycle.alpha")),
    ("quasicocycle.alpha.self_s", "s", ("self_s", "quasicocycle.alpha")),
    ("quasicocycle.F.calls", "count", ("calls", "quasicocycle.F")),
    ("quasicocycle.F.self_s", "s", ("self_s", "quasicocycle.F")),
    ("quasicocycle.build_A.self_s", "s",
     ("self_s", "quasicocycle.build_A")),
    ("quasicocycle.anchor_cache.entries", "count",
     ("cache", "quasicocycle.anchor_cache.entries")),
    ("lipschitz.calls", "count", ("calls", "lipschitz")),
    ("lipschitz.self_s", "s", ("self_s", "lipschitz")),
    ("trace.overhead", "ratio", ("derived",)),
)

NOTES = (
    "lpfill calls FillEngine.fill_cycle_lp directly: the filler = lp config "
    "key is parsed but never passed to FillEngine, so it silently runs cone "
    "splits.",
    "On a shared 2-core machine measured times shifted by up to 1.7x for "
    "minutes at a time; the times reported are in reference seconds "
    "(speed.py), and the record keeps the measured ones.  Compare medians "
    "over many runs, never single runs.",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    if not (SRC / "cuspedforms" / "__init__.py").is_file():
        raise BenchError(f"no cuspedforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuspedforms
    if Path(cuspedforms.__file__).resolve().parent != SRC / "cuspedforms":
        raise BenchError(f"imported cuspedforms from {cuspedforms.__file__}")


def run_trial(workload: str, inputs, trace: bool, timeout: float,
              setup_only: bool = False) -> dict:
    spec = json.dumps({"src": str(SRC), "workload": workload,
                       "inputs": inputs, "trace": trace,
                       "setup_only": setup_only})
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "trial.py")],
                          input=spec, capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"trial failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def run_trials(wl, inputs, seconds: float, trace: bool,
               start: float) -> tuple[list[dict], list[dict]]:
    """(set-ups, full trials).  Trials start until `seconds` have passed
    and at least MIN_TRIALS have run; each op counts with its median over
    them, which does not drift with their number.  A traced run alternates
    untraced and traced trials, at least MIN_TRACED of each, so that the
    tracing overhead is measured in the same run and counts are compared.
    Before each trial, SETUPS_PER_TRIAL processes only set up, so that
    set-up is sampled all through the run; a traced run reports no set-up
    time.  On a host so slow that the trials overrun `seconds` by a quarter
    (or RUN_LIMIT_S), no further trial starts once one trial (a traced run:
    MIN_TRACED traced trials) has run."""
    limit = min(RUN_LIMIT_S, OVERRUN * seconds)
    setups: list[dict] = []
    trials: list[dict] = []
    while True:
        kind = trace and len(trials) % 2 == 1
        if trace:
            least = sum(t["traced"] for t in trials) >= MIN_TRACED
            done = least and not kind
        else:
            least, done = bool(trials), len(trials) >= MIN_TRIALS
        elapsed = perf_counter() - start
        if (done and elapsed >= seconds) or (least and elapsed > limit):
            break
        for _ in range(0 if trace else SETUPS_PER_TRIAL):
            setups.append(run_trial(wl.name, None, False, RUN_LIMIT_S,
                                    setup_only=True))
        timeout = 175 - (perf_counter() - start)
        trials.append(dict(run_trial(wl.name, inputs, kind, timeout),
                           traced=kind))
        if not kind:
            setups.append(trials[-1])
    return setups, trials


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(p / 100 * len(ordered), 9))
    return ordered[max(0, rank - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_BEYOND ops beyond it: the op
    of rank n - TAIL_BEYOND, or the median when there are too few ops.  The
    exact rank, not one from a list of round percentiles: on growth, p75
    falls on the one op between the cheap repeated ops and the first op of
    each m, whose neighbours take half and four times its time."""
    return max(50.0, 100 * (n - TAIL_BEYOND) / n)


def check_trials(wl, seed: int, inputs, trials: list[dict]) -> list[str]:
    errors = []
    ref = trials[0]["cold"]
    for k, trial in enumerate(trials):
        for name in ("cold", "warm"):
            if trial[name] != ref:
                errors.append(f"trial {k} {name} pass differs from trial 0 "
                              "cold pass")
    errors += wl.check(seed, inputs, ref["outputs"], ref["summary"])
    return errors


def failures(trials: list[dict]) -> dict:
    out: dict = {}
    for trial in trials:
        for res in trial["cold"]["outputs"]:
            if isinstance(res, dict) and "failed" in res:
                out[res["failed"]] = out.get(res["failed"], 0) + 1
    return out


def cold_times(trials: list[dict]) -> list[float]:
    """Each op's median cold time over the trials, in reference seconds."""
    return [statistics.median(ts) for ts in zip(*(t["op_times"]
                                                  for t in trials))]


def warm_times(trials: list[dict]) -> list[float]:
    """Each op's median time over every warm pass of every trial."""
    passes = [p for t in trials for p in t["warm_op_times"]]
    return [statistics.median(ts) for ts in zip(*passes)]


def end_to_end(setups: list[float], trials: list[dict], tail: float,
               attempted: int, failed: int) -> dict:
    """Times are in reference seconds (see speed.py): each op counts with
    its median over the trials (cold) or over every warm pass (warm), and
    pass times are sums of these.  Set-up time and memory are medians over
    the run."""
    cold = cold_times(trials)
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": sum(cold),
        "warm_s": sum(warm_times(trials)),
        "op_p50_ms": percentile(cold, 50) * 1e3,
        "op_tail_ms": percentile(cold, tail) * 1e3,
        "peak_rss_mib": statistics.median(t["peak_rss_mib"] for t in trials),
        "ok_frac": 1 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def layer_value(trace: dict, source: tuple):
    kind = source[0]
    if kind in ("calls", "self_s"):
        return trace[kind].get(source[1], 0)
    if kind == "count":
        return trace["counts"].get(source[1], 0)
    if kind == "cache":
        return trace["caches"].get(source[1], 0)
    return sum(n for name, exc, n in trace["raised"]
               if (name, exc) == source[1:])


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics and the errors found: counts must repeat exactly
    across traced trials; self times are the fastest trial's."""
    errors = []
    if len(traced) < MIN_TRACED:
        errors.append(f"{len(traced)} traced trials ran, fewer than "
                      f"{MIN_TRACED}: counts were not compared")
    values = {}
    for name, unit, source in PER_LAYER:
        if source[0] == "derived":
            continue
        seen = [layer_value(t["trace"], source) for t in traced]
        if unit == "s":
            values[name] = min(seen)
        elif len(set(seen)) > 1:
            errors.append(f"{name} differs between traced trials: {seen}")
        else:
            values[name] = seen[0]
    trace = traced[0]["trace"]
    anchored = trace["calls"].get("fill.anchored", 0)
    values["fill.cache.hit_ratio"] = (
        trace["counts"].get("fill.cache.no_new_entry", 0) / anchored
        if anchored else 0)
    lps = [out for out in traced[0]["cold"]["outputs"]
           if isinstance(out, dict) and out.get("cycle_terms")]
    values["lp.improved"] = (
        sum(Fraction(o["lp_norm"]) < Fraction(o["cone_norm"]) for o in lps)
        / len(lps) if lps else 0)
    values["trace.overhead"] = (sum(cold_times(traced))
                                / sum(cold_times(untraced)))
    for t in traced:
        if t["trace"]["unbound"]:
            errors.append("tracer left unwrapped bindings: "
                          + ", ".join(t["trace"]["unbound"]))
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit, _ in PER_LAYER}
    return metrics, errors


def versions() -> dict:
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0))}
    for mod in ("scipy", "numpy"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = None
    try:
        from scipy.optimize._highspy import _core
        out["highs"] = (f"{_core.HIGHS_VERSION_MAJOR}."
                        f"{_core.HIGHS_VERSION_MINOR}."
                        f"{_core.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        out["highs"] = None
    out["commit"] = None  # a checkout that is not a git repository has none
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            out["commit"] = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    sha = hashlib.sha256()
    for path in sorted((SRC / "cuspedforms").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    out["src_sha256"] = sha.hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    try:
        import_package()
        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.generate(args.seed)
        errors = wl.input_errors(args.seed, inputs)
        setups, trials = run_trials(wl, inputs, args.seconds,
                                    bool(args.trace), start)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    untraced = [t for t in trials if not t["traced"]]
    traced = [t for t in trials if t["traced"]]
    n_ops = len(untraced[0]["op_times"])
    tail = tail_percentile(n_ops)
    errors += check_trials(wl, args.seed, inputs, trials)
    fails = failures(untraced)
    attempted = n_ops * len(untraced)
    failed = sum(fails.values())
    if args.trace:
        metrics, trace_errors = per_layer(traced, untraced)
        errors += trace_errors
    else:
        metrics = end_to_end([s["setup_s"] for s in setups], untraced, tail,
                             attempted, failed)

    record = dict(
        workload=wl.name, why=wl.why, seed=args.seed, seconds=args.seconds,
        trace=args.trace, **versions(), ops_per_pass=n_ops,
        trials={"untraced": len(untraced), "traced": len(traced)},
        tail_percentile=tail, failures=fails,
        summary=untraced[0]["cold"]["summary"], errors=errors,
        setup_s=[s["setup_s"] for s in setups],
        setup_raw_s=[s["setup_raw_s"] for s in setups],
        per_trial={key: [t[key] for t in untraced]
                   for key in ("cold_raw_s", "warm_raw_s", "peak_rss_mib")},
        notes=NOTES)
    if traced:
        record["trace_overhead"] = metrics["trace.overhead"]["value"]
        record["absent"] = traced[0]["trace"]["absent"]
        record["spans"] = traced[0]["trace"]["spans"]
    print(json.dumps({"record": record}))
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
