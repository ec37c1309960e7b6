"""A tour of the cusped graph.

Builds the cusped graph of the free-by-cyclic group rel its peripheral Z^2,
then walks through distances, horoball descent, and a small hyperbolicity
estimate.  Everything is exact; run time is about 2.5 s on a 2-core x86-64
host, most of it in the 200-sample estimate at the end.
"""

from cuspedforms.config import RunConfig
from cuspedforms.graph import parse_vertex

cfg = RunConfig()
print("selfcheck:", cfg.selfcheck())

qc = cfg.build()
graph = qc.graph

# Vertices are "<word>@<texp>:<depth>".  Depth 0 is the Cayley graph of the
# whole group; deeper vertices live in a combinatorial horoball over a coset
# of the peripheral subgroup <[a,b], t>.
pairs = [
    ("e@0:0", "a@0:0"),
    ("e@0:0", "ABab@0:0"),          # one step along the commutator
    ("e@0:0", "ABabABab@0:0"),      # two commutator steps at the surface...
    ("e@0:1", "ABabABab@0:1"),      # ...but only one at depth 1
    ("e@0:0", "abab@3:2"),
]
for u, v in pairs:
    d = graph.distance(parse_vertex(u), parse_vertex(v))
    print(f"d({u}, {v}) = {d}")

# Horoballs shorten peripheral travel exponentially: distance between
# e and [a,b]^(2^k) drops to 2k by descending to depth k and back.
for k in range(1, 5):
    w = "ABab" * 2 ** k
    d = graph.distance(parse_vertex("e@0:0"), parse_vertex(f"{w}@0:0"))
    print(f"commutator power 2^{k}: distance {d}")

print("ball sizes around e@0:0:",
      [len(graph.ball(parse_vertex("e@0:0"), r)) for r in range(4)])

# Quadruples with a pair farther apart than the distance cap are left out
# of the estimate and counted.
delta, skipped = graph.estimate_delta(200, 6, seed=0)
print("4-point hyperbolicity estimate (200 samples, radius 6):", delta,
      f"({skipped} quadruples skipped at the distance cap)")
