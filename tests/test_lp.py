import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspedforms import lp
from cuspedforms.errors import Infeasible
from cuspedforms.lp import certify, solve_float_then_verify

from _oracles import (basis_oracle, certify_oracle, feasible_basis,
                      solve_exact)

# min |x0| + |x1| + |x2| s.t. x0 (1, 1) + x1 (1, 0) + x2 (0, 1) = (1, 1):
# the optimum is x = (1, 0, 0), proved by the dual y = (1/2, 1/2);
# x = (0, 1, 1) is feasible at twice the cost
CHEAP_COLS = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)},
              {1: Fraction(1)}]
CHEAP_TARGET = {0: Fraction(1), 1: Fraction(1)}
HALF = Fraction(1, 2)


def check_solution(columns, target, n_rows, coeffs):
    got = {}
    for col, c in zip(columns, coeffs):
        for row, val in col.items():
            got[row] = got.get(row, Fraction(0)) + c * val
    want = dict(target)
    for row in range(n_rows):
        assert got.get(row, Fraction(0)) == want.get(row, Fraction(0))


def test_exact_simple_identity():
    # columns are signed: the solver splits them internally
    cols = [{0: Fraction(1)}, {1: Fraction(1)}]
    target = {0: Fraction(2), 1: Fraction(-3)}
    x = solve_exact(cols, target, 2)
    assert x == [Fraction(2), Fraction(-3)]


def test_exact_prefers_cheap_combination():
    # one column covers both rows at cost 1 versus two singletons at cost 2
    cols = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)},
            {1: Fraction(1)}]
    target = {0: Fraction(1), 1: Fraction(1)}
    x = solve_exact(cols, target, 2)
    check_solution(cols, target, 2, x)
    assert sum(abs(c) for c in x) == 1
    assert x[0] == 1


def test_exact_infeasible():
    with pytest.raises(Infeasible):
        solve_exact([{0: Fraction(1)}], {0: Fraction(0), 1: Fraction(1)}, 2)


# min |x0| + |x1| s.t. -x0 = -1, x1 = 0, -x0 = -1, -x1 = 0: rows 2 and 3
# repeat rows 0 and 1, so phase 1 ends with artificials basic at level 0
# on rows 1 and 3, which touch x1, and on row 2, which is then zero on
# every real column; y = (-1, 0, 0, 0) proves |x|_1 = 1 minimal
REDUNDANT_COLS = [{0: Fraction(-1), 2: Fraction(-1)},
                  {1: Fraction(1), 3: Fraction(-1)}]
REDUNDANT_TARGET = {0: Fraction(-1), 2: Fraction(-1)}


def test_exact_oracle_starts_phase_two_without_artificials():
    # a zero-level artificial left in the basis is pivoted out on a real
    # column, or its row is dropped when no real column touches it
    tableau, basis = feasible_basis(REDUNDANT_COLS, REDUNDANT_TARGET, 4)
    assert len(tableau) == 2
    assert all(b < 2 * len(REDUNDANT_COLS) for b in basis)
    # A x = b, and y certifies |x|_1 minimal
    certify(REDUNDANT_COLS, REDUNDANT_TARGET,
            solve_exact(REDUNDANT_COLS, REDUNDANT_TARGET, 4),
            [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)])


def test_exact_random_consistency():
    rng = random.Random(21)
    for _ in range(20):
        n_rows = rng.randrange(2, 5)
        cols = []
        for _ in range(rng.randrange(3, 8)):
            col = {r: Fraction(rng.randrange(-2, 3))
                   for r in range(n_rows) if rng.random() < 0.7}
            cols.append({r: v for r, v in col.items() if v})
        mix = [Fraction(rng.randrange(-2, 3)) for _ in cols]
        target = {}
        for col, c in zip(cols, mix):
            for r, val in col.items():
                target[r] = target.get(r, Fraction(0)) + c * val
        target = {r: v for r, v in target.items() if v}
        x = solve_exact(cols, target, n_rows)
        check_solution(cols, target, n_rows, x)
        # the optimum never exceeds the known feasible mix in l1
        assert sum(abs(c) for c in x) <= sum(abs(c) for c in mix)


def test_float_path_verifies_exactly():
    rng = random.Random(22)
    cols = []
    n_rows = 6
    for _ in range(30):
        col = {r: Fraction(rng.randrange(-2, 3))
               for r in range(n_rows) if rng.random() < 0.5}
        col = {r: v for r, v in col.items() if v}
        if col:
            cols.append(col)
    mix = [Fraction(rng.randrange(0, 2)) for _ in cols]
    target = {}
    for col, c in zip(cols, mix):
        for r, val in col.items():
            target[r] = target.get(r, Fraction(0)) + c * val
    target = {r: v for r, v in target.items() if v}
    x = solve_float_then_verify(cols, target, n_rows)
    check_solution(cols, target, n_rows, x)
    for c in x:
        assert isinstance(c, Fraction)


def test_float_path_infeasible():
    with pytest.raises(Infeasible):
        solve_float_then_verify([{0: Fraction(1)}],
                                {0: Fraction(0), 1: Fraction(1)}, 2)


def random_lp(rng):
    """A feasible LP with at most 8 columns and 5 rows; half of them repeat
    a row, which makes the row duals non-unique."""
    n_rows = rng.randrange(1, 6)
    cols = []
    for _ in range(rng.randrange(1, 9)):
        col = {r: Fraction(rng.randrange(-2, 3)) for r in range(n_rows)
               if rng.random() < 0.7}
        cols.append({r: v for r, v in col.items() if v})
    if n_rows >= 2 and rng.random() < 0.5:
        src, dst = rng.sample(range(n_rows), 2)
        for col in cols:
            col.pop(dst, None)
            if src in col:
                col[dst] = col[src]
    return cols, feasible_target(rng, cols), n_rows


def feasible_target(rng, cols):
    """b = A m for a random rational mix m of the columns."""
    return combination(cols, [Fraction(rng.randrange(-2, 3),
                                       rng.choice((1, 1, 2, 3)))
                              for _ in cols])


def combination(cols, mix):
    """b = A m, without zero rows."""
    target = {}
    for col, c in zip(cols, mix):
        for r, val in col.items():
            target[r] = target.get(r, Fraction(0)) + c * val
    return {r: v for r, v in target.items() if v}


def sparse_lp(rng):
    """A feasible LP whose rows include some that no column touches, spread
    among the others, and some that are a combination of two other rows:
    rows that stay basic, with y_i = 0."""
    cols, _, n_rows = random_lp(rng)
    for _ in range(rng.randrange(0, 3)):
        i, j = rng.randrange(n_rows), rng.randrange(n_rows)
        a, b = rng.choice((1, -1, 2)), rng.choice((1, -1))
        for col in cols:
            v = a * col.get(i, 0) + b * col.get(j, 0)
            if v:
                col[n_rows] = Fraction(v)
        n_rows += 1
    spread = sorted(rng.sample(range(n_rows + 4), n_rows))
    cols = [{spread[r]: v for r, v in col.items()} for col in cols]
    return cols, feasible_target(rng, cols), n_rows + 4


def l1(x):
    return sum((abs(c) for c in x), Fraction(0))


def test_float_path_is_certified_and_matches_exact_oracle(monkeypatch):
    certified = []

    def spy(columns, target, x, y):
        certify(columns, target, x, y)
        certified.append(list(x))

    monkeypatch.setattr(lp, "certify", spy)
    rng = random.Random(31)
    for k in range(450):
        cols, target, n_rows = (random_lp if k % 3 else sparse_lp)(rng)
        x = solve_float_then_verify(cols, target, n_rows)
        assert len(certified) == k + 1 and certified[-1] == x
        check_solution(cols, target, n_rows, x)
        oracle_x = solve_exact(cols, target, n_rows)
        check_solution(cols, target, n_rows, oracle_x)
        assert l1(x) == l1(oracle_x)


def test_basis_reader_matches_the_status_scan(monkeypatch):
    read, bases = lp.read_basis, []

    def spy(highs, n_rows):
        got = read(highs, n_rows)
        assert got == basis_oracle(highs)
        bases.append((got, n_rows))
        return got

    monkeypatch.setattr(lp, "read_basis", spy)
    rng = random.Random(31)
    with_nonzeros = 0
    for k in range(450):
        cols, target, n_rows = (random_lp if k % 3 else sparse_lp)(rng)
        with_nonzeros += any(col for col in cols)
        solve_float_then_verify(cols, target, n_rows)
    # every LP with a nonzero entry reaches HiGHS, and some bases hold a
    # row's slack
    assert len(bases) == with_nonzeros
    assert any(len(rows) < n_rows for (_, rows), n_rows in bases)


def run_python(code):
    """Run `code` in a fresh interpreter that imports the package from
    src/, so that a crash there fails one test instead of ending the run."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


TINY = Fraction(1, 10 ** 12)


@pytest.mark.parametrize("cols, target, n_rows, out", [
    # sparse_lp's LP k = 9 at seed 31
    ([{}], {}, 5, "[Fraction(0, 1)]"),
    # an explicit zero is no nonzero either
    ([{0: Fraction(0)}], {1: Fraction(1)}, 2,
     "Infeasible: certificate: A x != b"),
    # entries of 1e-12, which passModel drops, answering kWarning: the
    # model HiGHS would solve has no nonzeros
    ([{0: TINY, 1: TINY, 2: TINY}, {2: TINY, 3: TINY, 4: -TINY}], {0: TINY},
     5, "Infeasible: float LP failed: passModel returned kWarning"),
], ids=["feasible", "infeasible", "dropped"])
def test_float_path_answers_a_model_without_nonzeros(cols, target, n_rows,
                                                     out):
    # HiGHS solves such a model without factorizing, and reading its basis
    # crashes the interpreter: it must not get the model at all
    proc = run_python(
        "from fractions import Fraction\n"
        "from cuspedforms.errors import Infeasible\n"
        "from cuspedforms.lp import solve_float_then_verify\n"
        "try:\n"
        f"    print(solve_float_then_verify({cols!r}, {target!r}, {n_rows}))\n"
        "except Infeasible as exc:\n"
        "    print('Infeasible:', exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == out


def test_certificate_accepts_the_optimum():
    certify(CHEAP_COLS, CHEAP_TARGET, [Fraction(1), 0, 0], [HALF, HALF])


@pytest.mark.parametrize("x, y, failed", [
    # feasible but not optimal: the optimal dual shows a duality gap
    ((0, 1, 1), (HALF, HALF), r"b\.y != \|x\|_1"),
    # b.y = |x|_1, but y is no dual solution: |A^T y| = 2 on column 0
    ((0, 1, 1), (1, 1), r"\|A\^T y\| > 1 on column 0"),
    # not a solution at all
    ((1, 1, 0), (HALF, HALF), r"A x != b"),
], ids=["duality-gap", "dual-infeasible", "primal-infeasible"])
def test_certificate_rejects(x, y, failed):
    with pytest.raises(Infeasible, match=failed):
        certify(CHEAP_COLS, CHEAP_TARGET, [Fraction(c) for c in x],
                [Fraction(c) for c in y])


def test_float_path_rejects_a_non_optimal_float_answer(monkeypatch):
    import numpy as np
    from scipy.optimize._highspy._core import HighsStatus, _Highs

    def feasible_not_optimal(self):
        # x1+ and x2+ basic, in the order HiGHS may list them, and no slack:
        # x = (0, 1, 1) and y = (1, 1).  A basic solution always has
        # b.y = |x|_1, so a non-optimal basis shows up as an infeasible
        # dual, not as a duality gap
        return HighsStatus.kOk, np.array([4, 2], dtype=np.int32)

    monkeypatch.setattr(_Highs, "getBasicVariables", feasible_not_optimal)
    with pytest.raises(Infeasible, match=r"\|A\^T y\| > 1 on column 0"):
        solve_float_then_verify(CHEAP_COLS, CHEAP_TARGET, 2)


def test_float_path_reads_a_large_denominator_off_the_basis():
    # the optimal dual is y = (1/1000003, 0); no denominator bound on the
    # duals may round it
    cols = [{0: Fraction(1000003)}, {0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(1)}]
    target = {0: Fraction(1)}
    x = solve_float_then_verify(cols, target, 2)
    assert x == [Fraction(1, 1000003), 0, 0]
    certify(cols, target, x, [Fraction(1, 1000003), Fraction(0)])


def test_float_path_writes_nothing(capfd):
    # HiGHS logs to fd 1 unless told not to, which would corrupt the CLI's
    # JSON lines
    solve_float_then_verify(CHEAP_COLS, CHEAP_TARGET, 2)
    assert capfd.readouterr() == ("", "")


def test_float_path_names_the_scipy_it_needs(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=r"scipy >= 1\.17"):
        solve_float_then_verify(CHEAP_COLS, CHEAP_TARGET, 2)


def outcome(check, *args):
    """The message `check` raises Infeasible with, or None."""
    try:
        check(*args)
    except Infeasible as exc:
        return str(exc)
    return None


entries = st.fractions(-2, 2, max_denominator=3)


@st.composite
def certificates(draw):
    """Columns, a target, x and y, not only optimal ones: the target is
    A x half of the time, so that the dual checks are reached, and y is
    sparse."""
    n_rows = draw(st.integers(1, 5))
    cols = draw(st.lists(st.dictionaries(st.integers(0, n_rows - 1),
                                         entries), max_size=6))
    x = draw(st.lists(entries | st.just(Fraction(0)), min_size=len(cols),
                      max_size=len(cols)))
    target = combination(cols, x) if draw(st.booleans()) else draw(
        st.dictionaries(st.integers(0, n_rows - 1), entries))
    y = draw(st.lists(st.just(Fraction(0)) | entries, min_size=n_rows,
                      max_size=n_rows))
    return cols, target, x, y


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_certify_raises_as_the_dense_oracle_does(args):
    assert outcome(certify, *args) == outcome(certify_oracle, *args)


small_lps = st.integers(1, 4).flatmap(lambda n_rows: st.tuples(
    st.lists(st.dictionaries(st.integers(0, n_rows - 1),
                             st.integers(-2, 2).filter(bool).map(Fraction)),
             min_size=1, max_size=6),
    st.just(n_rows)))


@settings(max_examples=150, deadline=None)
@given(small_lps, st.data())
def test_float_path_certifies_random_lps(lp_and_rows, data):
    cols, n_rows = lp_and_rows
    target = combination(cols, data.draw(st.lists(
        st.fractions(-2, 2, max_denominator=3),
        min_size=len(cols), max_size=len(cols))))
    # solve_float_then_verify returns only a certified x
    x = solve_float_then_verify(cols, target, n_rows)
    check_solution(cols, target, n_rows, x)
    assert l1(x) == l1(solve_exact(cols, target, n_rows))


integer_lps = st.integers(1, 6).flatmap(lambda n_rows: st.tuples(
    st.lists(st.dictionaries(st.integers(0, n_rows - 1),
                             st.sampled_from((-1, 1)), min_size=1),
             min_size=1, max_size=10),
    st.just(n_rows)))


@settings(max_examples=150, deadline=None)
@given(integer_lps, st.data())
def test_float_path_matches_the_oracle_on_integer_lps(lp_and_rows, data):
    # int entries, as the filling LP's (-1)^j are: the oracle stays exact
    # (Fractions only), and the certified x has the oracle's l1 norm
    cols, n_rows = lp_and_rows
    mix = data.draw(st.lists(st.integers(-2, 2), min_size=len(cols),
                             max_size=len(cols)))
    target = {}
    for col, c in zip(cols, mix):
        for i, v in col.items():
            target[i] = target.get(i, 0) + c * v
    x = solve_float_then_verify(cols, target, n_rows)
    check_solution(cols, target, n_rows, x)
    oracle_x = solve_exact(cols, target, n_rows)
    assert all(type(v) is Fraction for v in oracle_x)
    assert l1(x) == l1(oracle_x)


def test_build_imports_neither_numpy_nor_scipy():
    # only an LP solve imports them: importing scipy.optimize alone costs
    # about ten times the set-up of an engine that never fills by LP
    proc = run_python(
        "import sys, cuspedforms; cuspedforms.RunConfig().build(); "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
