import random
from fractions import Fraction

import pytest

from cuspedforms import moebius
from cuspedforms.moebius import (Hyperbolization, OrientationCocycle,
                                 boundary_point, cyclic_orientation, det,
                                 mat_mul, trace)
from cuspedforms.words import COMM, mul, reduce_word


def random_word(rng, n):
    return reduce_word(rng.choice("aAbB") for _ in range(n))


def test_generator_matrices():
    hyp = Hyperbolization()
    assert det(hyp.rho("a")) == 1
    assert det(hyp.rho("b")) == 1
    assert trace(hyp.comm_matrix) == -2


def test_rho_is_a_homomorphism():
    hyp = Hyperbolization()
    rng = random.Random(5)
    for _ in range(100):
        u, v = random_word(rng, 8), random_word(rng, 8)
        assert hyp.rho(mul(u, v)) == mat_mul(hyp.rho(u), hyp.rho(v))


def test_orbit_point_constant_on_cosets():
    # the orbit point only depends on the commutator coset
    hyp = Hyperbolization()
    rng = random.Random(30)
    for _ in range(40):
        w = random_word(rng, 6)
        pt = hyp.orbit_point(w)
        assert hyp.orbit_point(mul(w, COMM)) == pt
        assert hyp.orbit_point(mul(w, inv_comm())) == pt


def inv_comm():
    from cuspedforms.words import inv
    return inv(COMM)


def test_cyclic_orientation_alternates():
    p = boundary_point(0, 1)
    q = boundary_point(1, 1)
    r = boundary_point(1, 0)
    val = cyclic_orientation(p, q, r)
    assert val in (-1, 1)
    assert cyclic_orientation(q, p, r) == -val
    assert cyclic_orientation(q, r, p) == val
    assert cyclic_orientation(p, p, r) == 0


def test_eps_known_values():
    eps = OrientationCocycle().on_words
    assert eps("", "ab", "a") == 1
    assert eps("", "b", "ba") == 1
    assert eps("", "ba", "ab") == 0


def test_eps_is_a_cocycle_on_samples():
    eps = OrientationCocycle().on_words
    rng = random.Random(6)
    for _ in range(300):
        ws = [random_word(rng, rng.randrange(0, 12)) for _ in range(4)]
        total = 0
        for i in range(4):
            face = ws[:i] + ws[i + 1:]
            total += eps(*face) if i % 2 == 0 else -eps(*face)
        assert total == 0


def test_eps_left_invariance_on_samples():
    eps = OrientationCocycle().on_words
    rng = random.Random(7)
    for _ in range(200):
        g = random_word(rng, 6)
        ws = [random_word(rng, 8) for _ in range(3)]
        assert eps(*(mul(g, w) for w in ws)) == eps(*ws)


def test_degenerate_hyperbolization_rejected(monkeypatch):
    # rho(a) = 1 makes rho([a,b]) = 1, which is not parabolic
    monkeypatch.setattr(moebius, "MAT_A", (1, 0, 0, 1))
    with pytest.raises(ValueError, match="not parabolic"):
        Hyperbolization()


def test_check_asserts_the_commutator_fixes_infinity(monkeypatch):
    hyp = Hyperbolization()
    assert hyp.comm_matrix == (-1, 6, 0, -1)
    assert hyp.qbar == boundary_point(1, 0)
    # conjugating by (1, 0; 1, 1) keeps the traces but moves the
    # commutator's fixed point off infinity
    conj = (1, 0, 1, 1)
    for name in ("MAT_A", "MAT_B"):
        monkeypatch.setattr(moebius, name, mat_mul(
            mat_mul(conj, getattr(moebius, name)), moebius.mat_inv(conj)))
    with pytest.raises(ValueError, match="does not fix infinity"):
        Hyperbolization()


def test_build_checks_the_hyperbolization_it_wires_in(monkeypatch):
    # build() and selfcheck() construct the hyperbolization, whose
    # constructor refuses these matrices
    from cuspedforms.config import RunConfig

    monkeypatch.setattr(moebius, "MAT_A", (-1, 0, 0, 1))
    monkeypatch.setattr(moebius, "MAT_B", (1, 1, 0, 1))
    with pytest.raises(ValueError, match="determinant 1"):
        RunConfig().build()
    with pytest.raises(ValueError, match="determinant 1"):
        RunConfig().selfcheck()


def test_boundary_point_is_projective():
    assert boundary_point(2, 4) == boundary_point(1, 2)
    assert boundary_point(-3, -6) == boundary_point(1, 2)
    assert boundary_point(5, 0) == boundary_point(1, 0)
    with pytest.raises(ValueError):
        boundary_point(0, 0)


def test_orbit_points_are_rational():
    hyp = Hyperbolization()
    pt = hyp.orbit_point("ab")
    if pt.y:
        Fraction(pt.x, pt.y)  # reduced rational representative
        assert abs(Fraction(pt.x, pt.y)) == Fraction(abs(pt.x), abs(pt.y))
