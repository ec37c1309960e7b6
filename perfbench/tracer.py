"""Layer tracer that wraps cuspedforms functions at run time.

The program's source is not edited.  `Tracer.install()` replaces each traced
function with a wrapper that counts calls and accumulates self time (time in
the call minus time in traced calls made from inside it).  A module-level
function is replaced under every name that binds it in any cuspedforms module,
because `from .words import mul` copies the binding into the importing module.

Calls at layer boundaries (`SPAN_NAMES`) are also kept as span records
(name, parent span, start, end) in memory; hot leaf calls keep only their
aggregates, since they run hundreds of thousands of times per workload.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer-boundary calls recorded as individual spans
SPAN_NAMES = frozenset({"op", "quasicocycle.alpha", "fill.anchored",
                        "graph.distance", "lp.exact", "lp.float",
                        "quasicocycle.build_A"})


def _words_out(stat: str):
    """Hook adding the output word's length to `stat` and to the longest
    word seen."""
    def hook(tracer, args, out, state):
        tracer.counts[stat] += len(out)
        if len(out) > tracer.counts["words.max_word_len"]:
            tracer.counts["words.max_word_len"] = len(out)
    return hook


def _sizes(stat: str):
    """Hook adding the size of the output to `stat`."""
    def hook(tracer, args, out, state):
        tracer.counts[stat] += len(out)
    return hook


def _neighbors(tracer, args, out, state):
    tracer.counts["graph.neighbors.out_vertices"] += len(out)
    if args[1].depth >= 1:
        tracer.counts["graph.neighbors.deep_calls"] += 1


def _fill_cache_size(tracer, args):
    return len(getattr(args[0], "_fill_cache", ()))


def _fill_anchored(tracer, args, out, state):
    if _fill_cache_size(tracer, args) == state:
        tracer.counts["fill.cache.no_new_entry"] += 1
    method = out[3].replace("-", "_")
    tracer.counts[f"fill.method.{method}"] += 1


def _lp_size(tracer, args, out, state):
    cols, rows = len(args[0]), args[2]
    tracer.counts["lp.cols.sum"] += cols
    tracer.counts["lp.cols.max"] = max(tracer.counts["lp.cols.max"], cols)
    tracer.counts["lp.rows.max"] = max(tracer.counts["lp.rows.max"], rows)


# (module, owner, attribute, stat name, timed, before hook, after hook);
# owner None means a module-level function, else a class in the module
TARGETS = (
    ("words", None, "mul", "words.mul", True, None,
     _words_out("words.mul.letters_out")),
    ("words", "Automorphism", "apply", "words.psi", True, None,
     _words_out("words.psi.letters_out")),
    ("graph", "CuspedGraph", "neighbors", "graph.neighbors", True, None,
     _neighbors),
    ("graph", "CuspedGraph", "distance", "graph.distance", True, None, None),
    ("graph", "CuspedGraph", "_bidirectional", "graph.distance.searches",
     False, None, None),
    ("graph", "CuspedGraph", "canonical_geodesic", "graph.geodesic", True,
     None, None),
    ("graph", "CuspedGraph", "ball", "graph.ball", True, None,
     _sizes("graph.ball.vertices")),
    ("moebius", "OrientationCocycle", "on_words", "moebius.eps", True, None,
     None),
    ("chains", None, "orbit_canonical", "chains.orbit_canonical", True, None,
     None),
    ("chains", "Chain", "boundary", "chains.boundary", True, None, None),
    ("chains", "CoinvariantChain", "boundary", "chains.boundary", True, None,
     None),
    ("chains", "Chain", "translate", "chains.translate", True, None, None),
    ("chains", None, "pair", "chains.pair", True, None, None),
    ("fill", "FillEngine", "fill_anchored", "fill.anchored", True,
     _fill_cache_size, _fill_anchored),
    ("fill", "FillEngine", "combing_path", "fill.combing", True, None, None),
    ("fill", "FillEngine", "fill_cycle_lp", "fill.lp", True, None, None),
    ("fill", "FillEngine", "rips_window", "fill.lp.window", False, None,
     _sizes("fill.lp.window_vertices")),
    ("fill", "FillEngine", "_rips_simplices", "fill.lp.rips", False, None,
     _sizes("fill.lp.simplices")),
    ("lp", None, "solve_exact", "lp.exact", True, None, _lp_size),
    ("lp", None, "solve_float_then_verify", "lp.float", True, None, _lp_size),
    ("quasicocycle", "QuasiCocycle", "alpha", "quasicocycle.alpha", True,
     None, None),
    ("quasicocycle", "QuasiCocycle", "F", "quasicocycle.F", True, None, None),
    ("quasicocycle", None, "build_A", "quasicocycle.build_A", True, None,
     None),
    ("lipschitz", "LipFn", "__call__", "lipschitz", True, None, None),
)


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "cuspedforms" or name.startswith("cuspedforms."))
            and mod is not None]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()   # (stat name, exception type)
        self.spans: list[tuple[str, int, float, float]] = []
        self.absent: list[str] = []
        self._children = [0.0]     # time in traced children, per open frame
        self._open_spans = [-1]    # index of the innermost open span
        self._undo: list[tuple[object, str, object]] = []
        self._originals: list[object] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, timed: bool = True, before=None,
             after=None):
        """Return fn wrapped to count calls, self time, raised exceptions and
        whatever the hooks record."""
        calls, self_s, raised = self.calls, self.self_s, self.raised
        children, open_spans, spans = (self._children, self._open_spans,
                                       self.spans)
        span = name in SPAN_NAMES
        tracer = self

        if not timed:
            def counted(*args, **kwargs):
                state = before(tracer, args) if before else None
                out = fn(*args, **kwargs)
                calls[name] += 1
                if after:
                    after(tracer, args, out, state)
                return out
            return counted

        def traced(*args, **kwargs):
            state = before(tracer, args) if before else None
            if span:
                idx = len(spans)
                spans.append(None)
                open_spans.append(idx)
            children.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if after:
                    after(tracer, args, out, state)
                return out
            except Exception as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = children.pop()
                children[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
                if span:
                    open_spans.pop()
                    spans[idx] = (name, open_spans[-1], t0, t1)
        return traced

    def install(self) -> None:
        """Wrap every target present in the imported package.  A target the
        package no longer has is listed in `absent` and reads as zero."""
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for modname, owner, attr, name, timed, before, after in TARGETS:
            mod = mods.get(modname)
            holder = mod if owner is None or mod is None \
                else getattr(mod, owner, None)
            original = holder.__dict__.get(attr) if holder is not None \
                else None
            if original is None:
                self.absent.append(f"{modname}.{owner + '.' if owner else ''}"
                                   f"{attr}")
                continue
            wrapper = self.wrap(original, name, timed, before, after)
            self._originals.append(original)
            if owner is not None:
                self._bind(holder, attr, wrapper)
                continue
            for module in mods.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

    def _bind(self, holder, attr: str, wrapper) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def unbound_originals(self) -> list[str]:
        """Names under which a package module still binds an unwrapped
        original; empty when the wrapping is complete."""
        out = []
        for module in package_modules():
            for key, value in vars(module).items():
                if any(value is orig for orig in self._originals):
                    out.append(f"{module.__name__}.{key}")
        return out

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args):
        """Run fn(*args) as one traced call under `name`."""
        return self.wrap(fn, name)(*args)

    def span_summary(self) -> dict:
        """Per span name: count, total seconds and the parent span names."""
        out: dict = {}
        for name, parent, t0, t1 in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "parents": Counter()})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["parents"][self.spans[parent][0] if parent >= 0
                           else "root"] += 1
        for row in out.values():
            row["parents"] = dict(row["parents"])
        return out
