"""Rational-valued Lipschitz functions on Z and their truncations."""

from __future__ import annotations

import bisect
import json
import math
import re
import sys
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
    at every point of knots(n) past that.  A periodic function repeats
    after its period, its reach; a table is linear between its keys, its
    knots, and constant past the outermost one, so its slope from n peaks
    at n + 1 or a knot; a power_floor's knots(n) are the jumps of f_n that
    can hold its steepest slope.
    """

    def __init__(self, kind: str, evaluate, declared_lip: Fraction,
                 reach: int = 0, knots=lambda n: ()):
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
    """x -> sign(x) * floor(|x| ** (num/den)), exact via integer roots.

    Its tail is exact: f_n is odd and steps up by one, so its slope from
    n peaks at a jump x_j, the least x with x^num >= (m + j)^den for
    m = f(n), where f_n = j.  g(t) = t^(den/num) is convex with g(m) <= n,
    so j / (g(m + j) - n) >= j / (x_j - n) falls with j, and no jump past
    the first j with (m + j)^den >= (n + j / best)^num beats the best
    slope so far; knots(n) lists the jumps up to there.  A truncation f_k
    keeps these knots, exact at levels n >= k, where its tail is f's;
    below k it has the probe of any f."""
    if num <= 0 or den <= 0:
        raise ValueError("exponent must be a positive rational")
    if num > den:
        raise ValueError("superlinear power_floor is not Lipschitz")

    def ev(x: int) -> int:
        sign = -1 if x < 0 else 1
        return sign * _nth_root_floor(abs(x) ** num, den)

    def jumps(n: int) -> tuple[int, ...]:
        m = _nth_root_floor(n ** num, den)
        out: list[int] = []
        best, j = Fraction(0), 1
        while not best or (m + j) ** den < (n + j / best) ** num:
            # the least x with x^num >= (m + j)^den
            x = _nth_root_floor((m + j) ** den - 1, num) + 1
            out.append(x)
            best, j = max(best, Fraction(j, x - n)), j + 1
        return tuple(out)

    return LipFn("power_floor", ev, Fraction(1), knots=jumps)


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

    knots = tuple(map(abs, keys))
    return LipFn("table", ev, lip, knots=lambda n: knots)


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
                 lambda m: (*f.knots(m), n))


def lip_on_window(f: LipFn, lo: int, hi: int) -> Fraction:
    """Exact Lipschitz constant of f restricted to the integer window."""
    if hi <= lo:
        return Fraction(0)
    return max(abs(f(x + 1) - f(x)) for x in range(lo, hi))


def lip_tail(f: LipFn, n: int) -> Fraction:
    """Worst slope of the truncation f_n measured from the edge of its
    vanishing plateau: max of |f_n(x)| / (|x| - n) over n < |x| <= n + span,
    span the larger of f's reach and TAIL_PROBE_SPAN, and at the points of
    f.knots(n) past n + span and their negatives.  The points are probed in
    increasing order, so each lands at the end of f's sorted seen points."""
    fn = truncate(f, n)
    span = n + max(f.reach, TAIL_PROBE_SPAN)
    xs = [*range(n + 1, span + 1),
          *sorted({k for k in f.knots(n) if k > span})]
    best = Fraction(0)
    for x in [*(-x for x in reversed(xs)), *xs]:
        best = max(best, abs(fn(x)) / (abs(x) - n))
    return best


#: the JSON values that are not numbers, as `parse_spec` names them
_NOT_NUMBERS = {type(None): "null", bool: "a boolean", list: "an array",
                dict: "an object", float: "NaN or an infinity"}


def read_number(text: str) -> Fraction:
    """The exact value of a numeral such as "3", "-0.1", "2.5e-3" or "1/3",
    the one reader of numbers from outside the package.  A numeral with more
    digits, or an exponent larger in size, than sys.get_int_max_str_digits()
    (4300 by default; 0 lifts the limit, as for int) is refused with a
    ValueError: Fraction would build 10^exponent exactly."""
    limit = sys.get_int_max_str_digits()
    exp = re.search(r"[eE]([-+]?\d[\d_]*)", text)
    if limit and (sum(map(str.isdigit, text)) > limit
                  or exp and abs(int(exp[1])) > limit):
        raise ValueError(f"numeral {text[:40]!r} has more than {limit} "
                         f"digits or an exponent beyond +-{limit}")
    return Fraction(text)


def _number(kind: str, entry, value) -> Fraction:
    """A JSON value of a table or a period: a number, read exactly, or a
    string such as "1/3" (`read_number`)."""
    what = _NOT_NUMBERS.get(type(value))
    if what:
        raise ValueError(f"{kind}: entry {entry} must be a number, not {what}")
    return read_number(value) if isinstance(value, str) else Fraction(value)


def parse_spec(spec: str) -> LipFn:
    """f specs: linear:<slope>, powfloor:<num>/<den>, const:<q>,
    table:<path-or-inline-json>, periodic:<path-or-inline-json>.  Every
    value is read by `read_number`, JSON decimals from their text, so 0.1
    is 1/10 and 1e1000000000 is refused; JSON integers keep Python's own
    digit limit."""
    kind, _, arg = spec.partition(":")
    if kind == "linear":
        return linear(read_number(arg))
    if kind == "powfloor":
        num, _, den = arg.partition("/")
        return power_floor(int(num), int(den) if den else 1)
    if kind == "const":
        return constant(read_number(arg) if arg else 0)
    if kind in ("table", "periodic"):
        if not arg.lstrip().startswith(("{", "[")):
            with open(arg) as fh:
                arg = fh.read()
        data = json.loads(arg, parse_float=read_number)
        if kind == "table":
            if not isinstance(data, dict):
                raise ValueError("table: expected a JSON object x -> f(x)")
            return table({int(k): _number(kind, json.dumps(k), v)
                          for k, v in data.items()})
        if not isinstance(data, list):
            raise ValueError("periodic: expected a JSON list, one period")
        return bounded_periodic([_number(kind, i, v)
                                 for i, v in enumerate(data)])
    raise ValueError(f"unknown f spec {spec!r}")
