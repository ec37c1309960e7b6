"""The annulus cycles A_m and linear growth of alpha_f.

Builds the coinvariant cycles c, d_m, e_m and A_m = t^m(c+d_m) - (c+d_m) + e_m,
verifies their boundary identities exactly, and shows that pairing alpha_f
with A_m recovers 2(f(m) - f(0)) while the l1 norm of A_m stays below 12.
The ratio column is the certified lower bound on any bounded primitive.
"""

from fractions import Fraction

from cuspedforms import lipschitz as L
from cuspedforms import quasicocycle as Q
from cuspedforms.config import RunConfig

qc = RunConfig().build()
graph = qc.graph

c = Q.build_c(graph.psi)
print("boundary of c is the peripheral class:",
      c.boundary() == Q.boundary_class(graph.psi))

for m in (1, 2, 8, 16):
    K = Q.k_of(m)
    A = Q.build_A(graph, m)
    print(f"m={m:2d}: K_m={K}, boundary(A_m)=0: {not A.boundary()}, "
          f"|A_m|_1 = {A.l1_norm()} = 12 - 2^(2-{K})")

f = L.linear(1)
print("\npairing alpha_f with A_m for f(x) = x:")
for m in (1, 2, 4, 8, 16):
    value = Q.evaluate_on_Am(qc, f, m)
    print(f"  m={m:2d}: <alpha_f, A_m> = {value} (expected {2 * m})")

print("\nnontriviality certificate (ratio = |value| / |A_m|_1, increasing):")
for row in Q.nontriviality_certificate(qc, f, [2, 4, 8, 16]):
    print(f"  m={row['m']:2d}: ratio {row['ratio']} "
          f"(~{float(row['ratio']):.3f})")

# Compare with a bounded function: the pairing stays at 2(f(m) - f(0)) = 2
# for every m, so the ratios cannot grow.
g = L.table({0: Fraction(0), 1: Fraction(1), 2: Fraction(1)})
print("\nbounded f: pairings",
      [str(Q.evaluate_on_Am(qc, g, m)) for m in (1, 2, 4, 8, 16)])
