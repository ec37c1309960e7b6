"""The four benchmark workloads: inputs from a seed, the timed operation, and
the exact checks on its outputs.

Inputs are generated here, before the engine under test is built, from a
benchmark-owned copy of the library's samplers.  Walks choose from the output
of `CuspedGraph.neighbors` re-sorted by `bench_key`, so a change to the order
in which `neighbors` returns vertices cannot change a workload.

`defect`, `delta` and `lpfill` draw a pool of ops once, at a fixed pool seed.
Each seed then runs the pool in a seeded order, each op left-translated by a
seeded word of length 8 of its own.  The program anchors every query, so
every seed must give the same answers, and with a word per op the cost of a
seed averages over many translates; fresh samples would not do,
because the cost of an op is heavy-tailed (200 fresh delta quadruples cost
2-5 s depending on the seed).  The pools equal the library's own
`sample_tuple` and `_random_vertex` outputs at the pinned seeds (see
test_perfbench.py), and every run checks its pool against a frozen digest.
The exact answers of the `defect` and `delta` pools are pinned op by op in
pins.json, in pool order.

This module imports cuspedforms only inside functions: a trial process times
the first import as part of its set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

# exact pins, copied from tests/_pins.py; the benchmark keeps its own copy
# so that its correctness gate does not move with the test suite
KHAT = Fraction(1)                    # defect, seed 7, 2000 tuples
KHAT_THETA_WINDOW = [-9, 13]
DELTAHAT = Fraction(1)                # delta, seed 3, 200 quadruples

STRATA = ("cayley", "mixed", "cross")
FAILURE_TYPES = ("CapExceeded", "WindowTooLarge", "Infeasible",
                 "FillDepthExceeded")
PINS = Path(__file__).resolve().parent / "pins.json"


def failed(out) -> bool:
    """Whether an encoded op result records a failed op."""
    return isinstance(out, dict) and "failed" in out


def bench_key(v) -> tuple:
    """The benchmark's own vertex order; equal to today's `vertex_key`."""
    return (v[2], len(v[0]), v[0], v[1])


def digest(data) -> str:
    text = json.dumps(data, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- seeded samplers ---------------------------------------------------------


def random_word(rng: random.Random, max_len: int) -> str:
    """A reduced word of length at most max_len, drawn as
    `graph.random_gamma0_word` draws it."""
    return reduced_word(rng, rng.randrange(max_len + 1))


def reduced_word(rng: random.Random, length: int) -> str:
    out: list[str] = []
    for _ in range(length):
        choices = [x for x in "aAbB" if not out or x != out[-1].swapcase()]
        out.append(rng.choice(choices))
    return "".join(out)


def left_mul(g: str, w: str) -> str:
    """Reduced product g*w of two reduced words."""
    k = 0
    while k < min(len(g), len(w)) and g[-1 - k] == w[k].swapcase():
        k += 1
    return g[:len(g) - k] + w[k:]


class Sampler:
    """Seeded walks in the cusped graph, consuming the random stream exactly
    as `quasicocycle.sample_tuple` and `CuspedGraph._random_vertex` do."""

    def __init__(self, seed: int):
        from cuspedforms.graph import CuspedGraph, Vertex
        self.graph = CuspedGraph()
        self.vertex = Vertex
        self.rng = random.Random(seed)

    def neighbors(self, v) -> list:
        return sorted(self.graph.neighbors(v), key=bench_key)

    def start(self, stratum: str):
        rng = self.rng
        word, texp = random_word(rng, 6), rng.randrange(-3, 4)
        if stratum == "cayley":
            return self.vertex(word, texp, 0)
        if stratum == "mixed":
            return self.vertex(word, texp, rng.randrange(0, 3))
        word = left_mul(word, rng.choice(("a", "b", "A", "B")))
        return self.vertex(word, texp, rng.randrange(0, 2))

    def sample_tuple(self, stratum: str, size: int) -> tuple:
        out = [self.start(stratum)]
        for _ in range(size - 1):
            v = out[self.rng.randrange(len(out))]
            for _ in range(self.rng.randrange(1, 3)):
                nbrs = self.neighbors(v)
                if stratum == "cayley":
                    nbrs = [u for u in nbrs if u.depth == 0] or nbrs
                v = nbrs[self.rng.randrange(len(nbrs))]
            out.append(v)
        return tuple(out)

    def walk(self, steps: int):
        v = self.vertex("", 0, 0)
        for _ in range(self.rng.randrange(steps + 1)):
            nbrs = self.neighbors(v)
            v = nbrs[self.rng.randrange(len(nbrs))]
        return v


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    config: dict = {}
    # warm passes per trial: enough to make the warm time of a trial
    # several tenths of a second
    warm_passes = 1

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def input_errors(self, seed: int, inputs) -> list[str]:
        return []

    def setup(self):
        """Import the package (and what the first op would import lazily)
        and build the engine; timed as set-up."""
        from cuspedforms.config import RunConfig
        return RunConfig(**self.config).build()

    def decode(self, inputs: list) -> list:
        from cuspedforms.graph import Vertex
        return [tuple(Vertex(*v) for v in pts) for pts in inputs]

    def begin_pass(self, qc) -> None:
        pass

    def op(self, qc, arg):
        raise NotImplementedError

    def encode(self, qc, arg, raw):
        """Exact, JSON-able form of one op's result (untimed)."""
        raise NotImplementedError

    def end_pass(self, qc, raws: list) -> dict:
        return {}

    def check(self, seed: int, inputs: list, outputs: list,
              summary: dict) -> list[str]:
        """Errors in one pass's outputs; empty when every check holds."""
        return []


class Translated(Workload):
    """Ops are a pool drawn at `pool_seed`, in a seeded order, each
    left-translated by a seeded reduced word of length 8 of its own.  The
    words are never empty, because translation lengthens the words every
    psi-power acts on: the untranslated pool would be a cheaper workload than
    any translate.  One word for all ops made the cost of a seed depend on
    that word (lpfill: 1.63 or 1.79 s); a word per op averages it out."""

    pool_seed = 0
    pool_digest = ""

    def pool(self, sampler: Sampler) -> list:
        raise NotImplementedError

    def translation(self, seed: int,
                    size: int) -> tuple[list[str], list[int]]:
        """(the word each op is translated by, the pool index of each op),
        in run order."""
        rng = random.Random(seed)
        order = list(range(size))
        rng.shuffle(order)
        return [reduced_word(rng, 8) for _ in order], order

    def generate(self, seed):
        pool = self.pool(Sampler(self.pool_seed))
        words, order = self.translation(seed, len(pool))
        return [[[left_mul(g, v[0]), v[1], v[2]] for v in pool[i]]
                for g, i in zip(words, order)]

    def pinned(self, seed: int, n: int) -> list:
        """The pinned answers of the first n ops at this seed."""
        pins = json.loads(PINS.read_text())[self.name]
        _, order = self.translation(seed, self.count)
        return [pins[i] for i in order[:n]]

    def check_pinned(self, seed: int, outputs: list) -> tuple[list, list]:
        """(indices of the ops that did not fail, errors): every op that did
        not fail must give its pinned answer."""
        pinned = self.pinned(seed, len(outputs))
        ok = [k for k, out in enumerate(outputs) if not failed(out)]
        errors = [f"op {k}: {outputs[k]} != pinned {pinned[k]}"
                  for k in ok if outputs[k] != pinned[k]]
        return ok, errors

    def complete(self, ok: list) -> bool:
        """Whether every op of the pool ran and none failed."""
        return len(ok) == self.count

    def input_errors(self, seed, inputs):
        words, order = self.translation(seed, len(inputs))
        pool = [None] * len(inputs)
        for g, i, pts in zip(words, order, inputs):
            g_inv = g.swapcase()[::-1]
            pool[i] = [[left_mul(g_inv, v[0]), v[1], v[2]] for v in pts]
        if digest(pool) != self.pool_digest:
            return [f"the {self.name} pool differs from its frozen digest"]
        return []


class Defect(Translated):
    name = "defect"
    why = ("delta alpha_f on the seed-7 defect-scan 4-tuples over three "
           "strata, seeded order and translate: graph BFS, canonical "
           "triples and the fill cache")
    count = 2000
    pool_seed = 7
    warm_passes = 3
    pool_digest = \
        "a0d93b109efc03eee9da8eae164f860f31f139508d847133f9bd7f10a551722e"

    def pool(self, sampler):
        return [sampler.sample_tuple(STRATA[i % 3], 4)
                for i in range(self.count)]

    def setup(self):
        from cuspedforms import lipschitz
        qc = super().setup()
        self.f = lipschitz.linear(1)
        return qc

    def begin_pass(self, qc):
        qc.reset_window()

    def op(self, qc, pts):
        return qc.delta_alpha(self.f, *pts)

    def encode(self, qc, pts, raw):
        return str(raw)

    def end_pass(self, qc, raws):
        from cuspedforms.lipschitz import lip_on_window
        window = [qc.theta_lo or 0, qc.theta_hi or 0]
        best = max((abs(r) for r in raws if isinstance(r, Fraction)),
                   default=Fraction(0))
        lip = lip_on_window(self.f, *window)
        return {"max_abs_delta": str(best), "theta_window": window,
                "ratio_to_lip": str(best / lip if lip else Fraction(0))}

    def check(self, seed, inputs, outputs, summary):
        ok, errors = self.check_pinned(seed, outputs)
        best = max((abs(Fraction(outputs[k])) for k in ok),
                   default=Fraction(0))
        if Fraction(summary["max_abs_delta"]) != best:
            errors.append(f"max |delta alpha_f| {summary['max_abs_delta']} "
                          f"!= {best} over the ops that did not fail")
        if self.complete(ok):
            if Fraction(summary["ratio_to_lip"]) != KHAT:
                errors.append(f"KHAT: {summary['ratio_to_lip']} != {KHAT}")
            if summary["theta_window"] != KHAT_THETA_WINDOW:
                errors.append("KHAT_THETA_WINDOW: "
                              f"{summary['theta_window']}")
        return errors


class Growth(Workload):
    name = "growth"
    why = ("alpha_f(A_m) for m = 1..12 and four seeded f: psi-powers and "
           "orbit-canonical chains of Fibonacci-length words, no graph search")
    ms = range(1, 13)
    warm_passes = 20

    def generate(self, seed):
        rng = random.Random(seed)
        keys = sorted(rng.sample(range(-8, 25), 4))
        fs = [["linear", rng.choice((1, 2, 3))],
              ["linear", -rng.choice((1, 2, 3))],
              ["powfloor", *rng.choice(((1, 2), (2, 3), (3, 4)))],
              ["table", [[k, str(Fraction(rng.randrange(-6, 7),
                                          rng.choice((1, 2, 3))))]
                         for k in keys]]]
        ops = []
        for m in self.ms:
            order = list(range(len(fs)))
            rng.shuffle(order)
            ops.extend([m, i] for i in order)
        return [fs, ops]

    def decode(self, inputs):
        from cuspedforms import lipschitz as L
        specs, ops = inputs
        self.fs = []
        for kind, *args in specs:
            if kind == "linear":
                self.fs.append(L.linear(args[0]))
            elif kind == "powfloor":
                self.fs.append(L.power_floor(*args))
            else:
                self.fs.append(L.table({k: Fraction(v)
                                        for k, v in args[0]}))
        return [tuple(op) for op in ops]

    def op(self, qc, arg):
        from cuspedforms.quasicocycle import evaluate_on_Am
        m, i = arg
        return evaluate_on_Am(qc, self.fs[i], m)

    def encode(self, qc, arg, raw):
        m, i = arg
        f = self.fs[i]
        return {"value": str(raw), "expected": str(2 * (f(m) - f(0)))}

    def check(self, seed, inputs, outputs, summary):
        return [f"alpha_f(A_m) = {out['value']} != {out['expected']} "
                f"at op {k}" for k, out in enumerate(outputs)
                if not failed(out) and out["value"] != out["expected"]]


class Delta(Translated):
    name = "delta"
    why = ("4-point delta on the seed-3 quadruples of walks of length <= 4, "
           "seeded order and translate: exact distances only, BFS into "
           "horoballs")
    count = 200
    radius = 4
    pool_seed = 3
    warm_passes = 20
    pool_digest = \
        "e6990a776b8c6f01a6cd59cd6d8a293cd77ff10576a8eb5bcc3fc92375f4b24a"

    def pool(self, sampler):
        return [[sampler.walk(self.radius) for _ in range(4)]
                for _ in range(self.count)]

    def op(self, qc, quad):
        dist = qc.graph.distance
        return [dist(quad[i], quad[j])
                for i in range(4) for j in range(i + 1, 4)]

    def encode(self, qc, quad, raw):
        return raw

    @staticmethod
    def four_point(dists: list) -> Fraction:
        """Gromov's 4-point delta of one quadruple from its six distances."""
        sums = sorted((dists[0] + dists[5], dists[1] + dists[4],
                       dists[2] + dists[3]))
        return Fraction(sums[2] - sums[1], 2)

    def check(self, seed, inputs, outputs, summary):
        ok, errors = self.check_pinned(seed, outputs)
        pinned = self.pinned(seed, len(outputs))
        best = max((self.four_point(outputs[k]) for k in ok),
                   default=Fraction(0))
        expected = DELTAHAT if self.complete(ok) else max(
            (self.four_point(pinned[k]) for k in ok), default=Fraction(0))
        if best != expected:
            errors.append(f"DELTAHAT: {best} != {expected} over the ops "
                          "that did not fail")
        return errors


class LPFill(Translated):
    name = "lpfill"
    why = ("l1-minimal LP fillings of seed-1 Cayley triangle cycles at "
           "kappa=2, window radius 1, seeded order and translate: the only "
           "workload that reaches lp")
    config = {"kappa": 2}
    count = 44
    window_radius = 1
    pool_seed = 1
    pool_digest = \
        "c855e3f091f3b5b8360fd1391c8ca44357b74f339db03b5d99bcdac44b40c4b6"

    def pool(self, sampler):
        out = []
        while len(out) < self.count:
            pts = sampler.sample_tuple("cayley", 3)
            if len(set(pts)) == 3:
                out.append(pts)
        return out

    def setup(self):
        import numpy  # noqa: F401  (the float LP path imports these lazily)
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
        return super().setup()

    def op(self, qc, pts):
        engine = qc.engine
        cone = engine.fill_triangle(*pts)
        z = engine.triangle_cycle(*pts)
        lp = engine.fill_cycle_lp(z, window_radius=self.window_radius,
                                  extra_vertices=cone.chain.support())
        return z, cone, lp

    def encode(self, qc, pts, raw):
        z, cone, lp = raw
        terms = sorted((tuple(str(v) for v in sx), str(c))
                       for sx, c in lp.chain.terms.items())
        return {"cycle_terms": len(z), "lp_norm": str(lp.norm),
                "cone_norm": str(cone.norm),
                "boundary_ok": lp.chain.boundary() == z,
                "chain_sha256": digest(terms)}

    def check(self, seed, inputs, outputs, summary):
        errors = []
        for k, out in enumerate(outputs):
            if failed(out):
                continue
            if not out["boundary_ok"]:
                errors.append(f"boundary of the LP filling != z at op {k}")
            if Fraction(out["lp_norm"]) > Fraction(out["cone_norm"]):
                errors.append(f"LP norm {out['lp_norm']} > cone norm "
                              f"{out['cone_norm']} at op {k}")
        return errors


WORKLOADS = {w.name: w for w in (Defect(), Growth(), Delta(), LPFill())}
