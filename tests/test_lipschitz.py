from fractions import Fraction

import pytest

from cuspedforms.errors import LipschitzViolation
from cuspedforms.lipschitz import (bounded_periodic, constant, linear,
                                   lip_on_window, lip_tail,
                                   parse_spec, power_floor, read_number,
                                   table, truncate)


def test_linear():
    f = linear(Fraction(3, 2))
    assert f(4) == 6
    assert f(-2) == -3
    assert f(0) == 0


def test_power_floor_values():
    f = power_floor(1, 2)
    assert [f(x) for x in (0, 1, 2, 3, 4, 9, 15, 16)] == [0, 1, 1, 1, 2, 3, 3, 4]
    assert f(-9) == -3
    g = power_floor(2, 3)
    assert g(8) == 4
    assert g(9) == 4


def test_power_floor_rejects_superlinear():
    with pytest.raises(ValueError):
        power_floor(3, 2)


def test_lazy_lipschitz_check_fires():
    from cuspedforms.lipschitz import LipFn
    bad = LipFn("bad", lambda x: Fraction(x * x), Fraction(1))
    bad(0)
    with pytest.raises(LipschitzViolation):
        bad(5)


def test_table_interpolates_and_clamps():
    f = table({0: Fraction(0), 4: Fraction(2)})
    assert f(2) == 1
    assert f(100) == 2
    assert f(-5) == 0


def test_bounded_periodic():
    f = bounded_periodic([Fraction(0), Fraction(1)])
    assert [f(x) for x in range(-2, 4)] == [0, 1, 0, 1, 0, 1]


def test_constant_and_arithmetic():
    c = constant(Fraction(7, 3))
    assert c(100) == Fraction(7, 3)
    f = linear(1).scale(2).shift(Fraction(1, 2))
    assert f(3) == Fraction(13, 2)


def test_truncate():
    # f_n vanishes on [-n, n] and keeps the tails, shifted to match at +-n
    f = truncate(linear(1), 3)
    assert f(2) == 0
    assert f(3) == 0
    assert f(10) == 7
    assert f(-10) == -7
    assert truncate(linear(1), 0)(4) == 4


def test_lip_on_window():
    assert lip_on_window(linear(2), -3, 5) == 2
    assert lip_on_window(constant(9), -3, 5) == 0
    assert lip_on_window(power_floor(1, 2), 0, 16) == 1  # the 3->4 jump


def test_lip_tail_sequences():
    f = power_floor(1, 2)
    assert [lip_tail(f, n) for n in range(5)] == [
        Fraction(1), Fraction(1, 3), Fraction(1, 2), Fraction(1),
        Fraction(1, 5)]
    assert all(lip_tail(linear(1), n) == 1 for n in range(5))
    assert lip_tail(constant(4), 2) == 0


def test_lip_tail_reaches_past_the_probe_span():
    # the slope from the plateau's edge peaks past 256 points: at a table's
    # outermost key, and inside a period longer than 256
    f = table({0: 0, 300: 0, 301: 1})
    assert lip_tail(f, 0) == Fraction(1, 301)
    g = bounded_periodic([0] * 300 + [1] + [0] * 299)
    assert lip_tail(g, 0) == Fraction(1, 300)
    # scaling, shifting and truncating keep the reach
    assert lip_tail(f.scale(2).shift(5), 0) == Fraction(2, 301)
    assert lip_tail(truncate(f, 2), 0) == Fraction(1, 301)
    assert lip_tail(truncate(g, 400), 0) == Fraction(1, 900)
    assert lip_tail(table({0: 0, -300: 0, -301: 1}), 0) == Fraction(1, 301)
    # a far key is probed, not the stretch before it
    far = table({0: 0, 10 ** 9: 0, 10 ** 9 + 1: 1})
    assert lip_tail(far, 3) == Fraction(1, 10 ** 9 - 2)


def test_lip_tail_of_a_power_floor_is_exact():
    # floor(x^(1/10)) next jumps at 1024, past the probe span
    assert lip_tail(power_floor(1, 10), 1) == Fraction(1, 1023)
    # floor(x^(2/3)) from n = 3: 1/3 at 6, then 2/5 at 8
    assert lip_tail(power_floor(2, 3), 3) == Fraction(2, 5)
    # scaling, shifting and a truncation at a level at most n keep the jumps
    f = power_floor(1, 10)
    assert lip_tail(f.scale(-3).shift(2), 1) == Fraction(3, 1023)
    assert lip_tail(truncate(f, 1), 1) == Fraction(1, 1023)


def test_lip_tail_probes_in_increasing_order():
    # each new point lands at the end of f's sorted list of points seen
    for f in (bounded_periodic([0] * 300 + [1]),
              table({0: 0, -900: 0, 300: 1, 1000: 1}), power_floor(1, 10)):
        seen = []
        evaluate = f._evaluate
        f._evaluate = lambda x: seen.append(x) or evaluate(x)
        lip_tail(f, 5)
        assert seen[:2] == [5, -5]
        assert seen[2:] == sorted(set(seen[2:]))


def test_parse_spec_reads_json_decimals_exactly(tmp_path):
    assert parse_spec('table:{"0": 0.1, "5": 1}')(0) == Fraction(1, 10)
    path = tmp_path / "period.json"
    path.write_text("[0.1, 2.5e-1]")
    f = parse_spec(f"periodic:{path}")
    assert (f(0), f(1)) == (Fraction(1, 10), Fraction(1, 4))


def test_read_number_refuses_only_past_the_digit_limit():
    # Python's limit on int() digits, 4300 by default, bounds the digits
    # and the exponent of a numeral from outside
    assert read_number("1" * 4300) == int("1" * 4300)
    assert read_number("1e-4300") == Fraction(1, 10 ** 4300)
    assert read_number("-2.5e-3") == Fraction(-1, 400)
    assert parse_spec('periodic:["1/3", 0.1]')(0) == Fraction(1, 3)
    for text in ("1" * 4301, "1e4301", "0.5E-4301", "1e1000000000"):
        with pytest.raises(ValueError, match="more than 4300 digits or an "
                           "exponent beyond"):
            read_number(text)


def test_parse_spec():
    assert parse_spec("linear:1")(7) == 7
    assert parse_spec("linear:-2")(3) == -6
    assert parse_spec("powfloor:1/2")(9) == 3
    assert parse_spec("const:5/2")(0) == Fraction(5, 2)
    f = parse_spec('periodic:[0, 1]')
    assert f(3) == 1
    g = parse_spec('table:{"0": 0, "2": 1}')
    assert g(1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_spec("nope:1")


@pytest.mark.parametrize("x", [7 ** 54, 7 ** 60, 10 ** 400])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nth_root_floor_of_large_integers(x, n):
    # exact integer roots, far beyond float range
    from cuspedforms.lipschitz import _nth_root_floor
    r = _nth_root_floor(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_nth_root_floor_small_values():
    from cuspedforms.lipschitz import _nth_root_floor
    for n in range(1, 6):
        for x in range(200):
            r = _nth_root_floor(x, n)
            assert r ** n <= x < (r + 1) ** n
    with pytest.raises(ValueError):
        _nth_root_floor(-1, 2)
