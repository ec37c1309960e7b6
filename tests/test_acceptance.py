"""Acceptance suite: one test per criterion, all comparisons exact."""

import random
from fractions import Fraction

from cuspedforms import lipschitz as L
from cuspedforms import quasicocycle as Q
from cuspedforms.config import RunConfig
from cuspedforms.moebius import mat_mul, mat_inv, trace
from cuspedforms.words import COMM, DEFAULT_PSI, GroupElem, mul

from _pins import (ALPHA_COUNT, ALPHA_SEED, DEFECT_COUNT, DEFECT_SEED,
                   KHAT, KHAT_THETA_WINDOW, T2HAT)

LETTERS = "aAbB"
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def random_reduced(rng, max_len):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        choices = [s for s in LETTERS if not out or s != INVERSE[out[-1]]]
        out.append(rng.choice(choices))
    return "".join(out)


def test_criterion_01_startup_selfchecks():
    cfg = RunConfig()
    assert cfg.selfcheck()["ok"] is True
    psi = cfg.psi()
    assert psi.apply(COMM, 1) == COMM
    for gen in "ab":
        assert psi.apply(psi.apply(gen, -1), 1) == gen
    hyp = cfg.build().eps.hyp
    ra, rb = hyp.rho("a"), hyp.rho("b")
    comm = mat_mul(mat_mul(ra, rb), mat_mul(mat_inv(ra), mat_inv(rb)))
    assert trace(comm) == -2


def test_criterion_02_eps_exact_cocycle(qc):
    eps = qc.eps.on_words
    rng = random.Random(2)
    for _ in range(10_000):
        w = [random_reduced(rng, 32) for _ in range(4)]
        coboundary = (eps(w[1], w[2], w[3]) - eps(w[0], w[2], w[3])
                      + eps(w[0], w[1], w[3]) - eps(w[0], w[1], w[2]))
        assert coboundary == 0
    for _ in range(1000):
        g = random_reduced(rng, 8)
        x, y, z = (random_reduced(rng, 32) for _ in range(3))
        assert eps(mul(g, x), mul(g, y), mul(g, z)) == eps(x, y, z)
    psi = DEFAULT_PSI
    for _ in range(1000):
        x, y, z = (random_reduced(rng, 64) for _ in range(3))
        assert eps(psi.apply(x, 1), psi.apply(y, 1), psi.apply(z, 1)) == \
            eps(x, y, z)


def test_criterion_03_eps_known_values(qc):
    eps = qc.eps.on_words
    assert eps("", "ba", "ab") == 0
    assert eps("", "ab", "a") == eps("", "b", "ba")
    assert eps("", "ab", "a") in (-1, 1)


def test_criterion_04_cycle_identities(graph):
    psi = graph.psi
    c = Q.build_c(psi)
    assert c.boundary() == Q.boundary_class(psi)
    for m in range(1, 17):
        K = Q.k_of(m)
        aK = Q.build_aK(K, psi)
        d, e = Q.build_d(m, psi), Q.build_e(m, psi)
        assert d.boundary() == -Q.boundary_class(psi) + aK
        assert e.boundary() == \
            aK - aK.translate(graph, GroupElem("", m))
        A = Q.build_A(graph, m)
        assert not A.boundary()
        assert A.l1_norm() == 12 - Fraction(4, 2 ** K) <= 12


def test_criterion_05_growth_on_Am(qc):
    fs = [L.linear(1), L.linear(-2), L.power_floor(1, 2),
          L.table({-4: Fraction(1), 0: Fraction(0), 5: Fraction(3),
                   20: Fraction(-2)})]
    for m in range(1, 17):
        for f in fs:
            assert Q.evaluate_on_Am(qc, f, m) == 2 * (f(m) - f(0))


def test_criterion_06_defect_suite(qc):
    f = L.linear(1)
    report = Q.defect_scan(qc, f, DEFECT_COUNT, DEFECT_SEED)
    rerun = Q.defect_scan(qc, L.linear(1), DEFECT_COUNT, DEFECT_SEED)
    assert report == rerun
    assert report.ratio_to_lip == KHAT
    assert report.theta_window == KHAT_THETA_WINDOW

    scaled = Q.defect_scan(qc, f.scale(3), DEFECT_COUNT, DEFECT_SEED)
    assert scaled.ratio_to_lip == report.ratio_to_lip
    shifted = Q.defect_scan(qc, f.shift(Fraction(7, 2)),
                            DEFECT_COUNT, DEFECT_SEED)
    assert shifted.max_abs_delta == report.max_abs_delta

    const = Q.defect_scan(qc, L.constant(5), DEFECT_COUNT, DEFECT_SEED)
    assert const.max_abs_delta == 0


def test_criterion_07_boundedness_dichotomy(qc):
    bounded = L.bounded_periodic([Fraction(0), Fraction(1), Fraction(-1),
                                  Fraction(1, 2)])
    sup = Fraction(1)
    best, worst_norm = Q.max_alpha_scan(qc, bounded, ALPHA_COUNT, ALPHA_SEED)
    assert worst_norm == T2HAT
    assert best <= worst_norm * sup

    rows = Q.nontriviality_certificate(qc, L.linear(1), [2, 4, 8, 16])
    ratios = [row["ratio"] for row in rows]
    assert ratios == [Fraction(4, 11), Fraction(16, 23),
                      Fraction(64, 47), Fraction(256, 95)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_criterion_08_vanishing_certificates(qc):
    rows = Q.bah_upper_bound_certificate(qc, L.power_floor(1, 2),
                                         [1, 2, 3], KHAT)
    assert all(row["vanishes"] for row in rows)
    assert [row["n"] for row in rows] == [0, 1, 4]
    bounds = [row["bound"] for row in rows]
    assert bounds == [Fraction(1), Fraction(1, 3), Fraction(1, 5)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))

    flat = Q.bah_upper_bound_certificate(qc, L.linear(1), [1, 2, 3], KHAT)
    assert all(row["vanishes"] for row in flat)
    assert len({row["bound"] for row in flat}) == 1


def test_criterion_09_independence_rank():
    fs = [L.power_floor(1, 2), L.power_floor(2, 3), L.power_floor(3, 4)]
    assert Q.independence_rank(fs, [4, 9, 16]) == 3


def test_criterion_10_fill_contracts(engine, graph):
    rng = random.Random(10)
    for i in range(1000):
        pts = Q.sample_tuple(graph, rng, Q.STRATA[i % 3], 3)
        fill = engine.fill_triangle(*pts)
        assert fill.chain.boundary() == engine.triangle_cycle(*pts)

    g = GroupElem("ba", 1)
    for i in range(200):
        pts = Q.sample_tuple(graph, rng, Q.STRATA[i % 3], 3)
        fill = engine.fill_triangle(*pts)
        swapped = engine.fill_triangle(pts[1], pts[0], pts[2])
        assert swapped.chain == -fill.chain
        moved = engine.fill_triangle(*(graph.left_mul(g, p) for p in pts))
        assert moved.chain == fill.chain.translate(graph, g)

    for i in range(25):
        pts = Q.sample_tuple(graph, rng, "cayley", 3)
        if len(set(pts)) < 3:
            continue
        cone = engine.fill_triangle(*pts)
        z = engine.triangle_cycle(*pts)
        if not z:
            continue
        lp_fill = engine.fill_cycle_lp(z, window_radius=0,
                                       extra_vertices=cone.chain.support())
        assert lp_fill.chain.boundary() == z
        assert lp_fill.norm <= cone.norm
