"""Measured constants, frozen with the seeds that produced them.

These are pins, not derivations: each value was computed once with the
default configuration and the stated seed/count, and the suite asserts the
computation still reproduces it bit-for-bit.
"""

from fractions import Fraction

# defect_scan(f=linear slope 1, count=2000, seed=7)
DEFECT_SEED = 7
DEFECT_COUNT = 2000
KHAT = Fraction(1)
KHAT_THETA_WINDOW = (-9, 13)

# max_alpha_scan(bounded periodic [0, 1], count=1000, seed=11):
# the largest fill norm seen over the sampled triples
ALPHA_SEED = 11
ALPHA_COUNT = 1000
T2HAT = Fraction(1)

# estimate_delta(sample_size=200, radius=4, seed=3)
DELTA_SEED = 3
DELTA_SAMPLES = 200
DELTA_RADIUS = 4
DELTAHAT = Fraction(1)

# relative_fill_check on ((e,0,0), (b,0,0), (ba,0,0), (ab,0,0))
T3HAT = Fraction(1)

# FillEngine(kappa=2).fill_cycle_lp on the `lp_instances` of
# tests/test_fill.py, in order: four seed-1 Cayley triangle cycles at
# window radius 1, seeded with their cone fills, then the square coned off
# from e at radius 0.  (l1 norm, sha256 of the sorted chain terms)
LP_WINDOW_FILLS = (
    (Fraction(2),
     "ade677838fd5e7b5ba91c98cda91246ce9545cc9c8b8ec2c62bee31a4923d787"),
    (Fraction(2),
     "c78515733f1c163941086da6d35d12df8b26d81f16eb36a4b240d294bf51d5da"),
    (Fraction(1),
     "1baf7523d2a32bf744a6fc3cc70e3bd76094c6f767f4d3ac7d36e40ae807cf0d"),
    (Fraction(1),
     "d68eac1dfa1fb36aca22e730f97c17e682b327d677b544d614bee7ca104191a2"),
    (Fraction(4),
     "fdec73df5f1797c4534c2cd5d1291c7662e5c845f2e378585e56318c7691dce9"),
)

# FillEngine(kappa=3).fill_cycle_lp at window radius 1 on the combing cycle
# of this Cayley triangle, seeded with its cone fill: a window near
# fill.LP_SIMPLEX_CAP
LP_NEAR_CAP_TRIANGLE = ("A@2:0", "Ababbababbabab@2:0", "Ababbababbabab@4:0")
LP_NEAR_CAP_SIMPLICES = 1751
LP_NEAR_CAP_FILL = (
    Fraction(2),
    "7b543f69611fcdaf685417fe591c9aac269fa769077f4957fce6a3ce9dfa6ebc")
