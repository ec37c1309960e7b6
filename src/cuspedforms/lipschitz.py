"""Rational-valued Lipschitz functions on Z and their truncations."""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

from .errors import LipschitzViolation

#: how far past n `lip_tail` probes the slope of f_n at least
TAIL_PROBE_SPAN = 256


def _nth_root_floor(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0 by integer Newton iteration."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x < 2 or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    # start above the root; the iterates then fall monotonically onto it
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


class LipFn:
    """A function Z -> Q with a declared Lipschitz constant.

    The constant is checked lazily: every queried point is recorded, and each
    new query is compared against its neighbours among the points seen so far
    (consecutive checks imply the bound on all queried pairs).

    `lip_tail` probes the truncation f_n at every x in (n, n + reach] and
    at every knot past n.  A periodic function repeats after its period,
    its reach; a table is linear between its keys, its knots, and constant
    past the outermost one, so its slope from n peaks at n + 1 or a knot.
    """

    def __init__(self, kind: str, evaluate, declared_lip: Fraction,
                 reach: int = 0, knots: tuple[int, ...] = ()):
        self.kind = kind
        self.declared_lip = Fraction(declared_lip)
        self.reach = reach
        self.knots = knots
        self._evaluate = evaluate
        self._seen_x: list[int] = []
        self._seen_y: dict[int, Fraction] = {}

    def __call__(self, x: int) -> Fraction:
        cached = self._seen_y.get(x)
        if cached is not None:
            return cached
        y = Fraction(self._evaluate(x))
        pos = bisect.bisect_left(self._seen_x, x)
        for nb in (pos - 1, pos):
            if 0 <= nb < len(self._seen_x):
                xn = self._seen_x[nb]
                if abs(y - self._seen_y[xn]) > self.declared_lip * abs(x - xn):
                    raise LipschitzViolation(
                        f"{self.kind}: |f({x})-f({xn})| exceeds "
                        f"lip={self.declared_lip}")
        self._seen_x.insert(pos, x)
        self._seen_y[x] = y
        return y

    def __repr__(self) -> str:
        return f"LipFn({self.kind}, lip={self.declared_lip})"

    def scale(self, factor: Fraction | int) -> "LipFn":
        factor = Fraction(factor)
        return LipFn(f"scaled({factor})*{self.kind}",
                     lambda x: factor * self(x),
                     abs(factor) * self.declared_lip, self.reach,
                     self.knots)

    def shift(self, const: Fraction | int) -> "LipFn":
        const = Fraction(const)
        return LipFn(f"{self.kind}+{const}", lambda x: self(x) + const,
                     self.declared_lip, self.reach, self.knots)


def linear(slope: Fraction | int) -> LipFn:
    slope = Fraction(slope)
    return LipFn("linear", lambda x: slope * x, abs(slope))


def power_floor(num: int, den: int) -> LipFn:
    """x -> sign(x) * floor(|x| ** (num/den)), exact via integer roots."""
    if num <= 0 or den <= 0:
        raise ValueError("exponent must be a positive rational")
    if num > den:
        raise ValueError("superlinear power_floor is not Lipschitz")

    def ev(x: int) -> int:
        sign = -1 if x < 0 else 1
        return sign * _nth_root_floor(abs(x) ** num, den)

    return LipFn("power_floor", ev, Fraction(1))


def table(values: dict[int, Fraction]) -> LipFn:
    """Piecewise function backed by a finite table, clamped to the nearest
    key outside its range; the empty table is the zero function."""
    if not values:
        return LipFn("table", lambda x: Fraction(0), Fraction(0))
    keys = sorted(values)
    vals = {k: Fraction(values[k]) for k in keys}
    lip = Fraction(0)
    for k1, k2 in zip(keys, keys[1:]):
        lip = max(lip, abs(vals[k2] - vals[k1]) / (k2 - k1))

    def ev(x: int) -> Fraction:
        if x <= keys[0]:
            return vals[keys[0]]
        if x >= keys[-1]:
            return vals[keys[-1]]
        pos = bisect.bisect_left(keys, x)
        if keys[pos] == x:
            return vals[x]
        # linear interpolation between the bracketing keys keeps lip exact
        k1, k2 = keys[pos - 1], keys[pos]
        return vals[k1] + (vals[k2] - vals[k1]) * Fraction(x - k1, k2 - k1)

    return LipFn("table", ev, lip, knots=tuple(map(abs, keys)))


def bounded_periodic(values: list[Fraction]) -> LipFn:
    period = len(values)
    if period == 0:
        raise ValueError("period must be positive")
    vals = [Fraction(v) for v in values]
    lip = max((abs(vals[(i + 1) % period] - vals[i]) for i in range(period)),
              default=Fraction(0))
    return LipFn("bounded_periodic", lambda x: vals[x % period], lip, period)


def constant(value: Fraction | int) -> LipFn:
    value = Fraction(value)
    return LipFn("constant", lambda x: value, Fraction(0))


def truncate(f: LipFn, n: int) -> LipFn:
    """f_n: vanishes on [-n, n], f(x) - f(n) above, f(x) - f(-n) below."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    top, bot = f(n), f(-n)

    def ev(x: int) -> Fraction:
        if x >= n:
            return f(x) - top
        if x <= -n:
            return f(x) - bot
        return Fraction(0)

    # f_n is f less a constant past n: its period starts there, and it
    # turns at f's knots and at n
    return LipFn(f"trunc({f.kind},{n})", ev, f.declared_lip, n + f.reach,
                 f.knots + (n,))


def lip_on_window(f: LipFn, lo: int, hi: int) -> Fraction:
    """Exact Lipschitz constant of f restricted to the integer window."""
    if hi <= lo:
        return Fraction(0)
    return max(abs(f(x + 1) - f(x)) for x in range(lo, hi))


def lip_tail(f: LipFn, n: int) -> Fraction:
    """Worst slope of the truncation f_n measured from the edge of its
    vanishing plateau: max over n < x <= n + span of
    max(|f_n(x)|, |f_n(-x)|) / (x - n), span the larger of f's reach and
    TAIL_PROBE_SPAN, and at f's knots past n + span."""
    fn = truncate(f, n)
    span = n + max(f.reach, TAIL_PROBE_SPAN)
    best = Fraction(0)
    for x in [*range(n + 1, span + 1), *(k for k in f.knots if k > span)]:
        best = max(best, abs(fn(x)) / (x - n), abs(fn(-x)) / (x - n))
    return best


def parse_spec(spec: str) -> LipFn:
    """f specs: linear:<slope>, powfloor:<num>/<den>, const:<q>,
    table:<path-or-inline-json>, periodic:<path-or-inline-json>."""
    kind, _, arg = spec.partition(":")
    if kind == "linear":
        return linear(Fraction(arg))
    if kind == "powfloor":
        num, _, den = arg.partition("/")
        return power_floor(int(num), int(den) if den else 1)
    if kind == "const":
        return constant(Fraction(arg) if arg else 0)
    if kind in ("table", "periodic"):
        if arg.lstrip().startswith(("{", "[")):
            data = json.loads(arg)
        else:
            with open(arg) as fh:
                data = json.load(fh)
        if kind == "table":
            if not isinstance(data, dict):
                raise ValueError("table: expected a JSON object x -> f(x)")
            return table({int(k): Fraction(v) for k, v in data.items()})
        if not isinstance(data, list):
            raise ValueError("periodic: expected a JSON list, one period")
        return bounded_periodic([Fraction(v) for v in data])
    raise ValueError(f"unknown f spec {spec!r}")
