"""Sparse simplicial chains with exact rational coefficients, and their
reduction to coinvariants under the free-group action.

A `Chain` stores a simplex as a tuple of vertices sorted by the global vertex
order; the sign of the sorting permutation, from the package's one sign rule
`graph.sort_with_sign`, is absorbed into the coefficient, and simplices with
a repeated vertex die on construction.

A `CoinvariantChain` is a chain modulo F = F(a,b) acting on the left.  Its
terms are keyed by (k, s): s is the anchored simplex (the vertex order whose
anchored tuple is lex-least, translated so that its first vertex is
(e, 0, depth)), and k is the t-exponent of the vertex moved to the front.
Since t^k F t^-k = F, the F-orbit of a simplex is exactly {g . s : theta(g)
= k}, so the key determines the orbit and the orbit the key.  Left
translation by g in G moves (k, s) to (k + theta(g), s); a t-translate of a
coinvariant chain never writes out a psi-power of a word.  Each s is already
canonical, so `QuasiCocycle.linear_form` reads it without anchoring again.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Simplex, Vertex, anchor_simplex, sort_with_sign, vertex_key
from .words import Automorphism, GroupElem

#: (t-exponent of the front vertex, anchored simplex): one F-orbit
OrbitKey = tuple[int, Simplex]


class Chain:
    """Sparse map simplex -> nonzero rational coefficient, fixed dimension."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms: dict = terms or {}

    def _new(self, dim: int, terms: dict | None = None) -> "Chain":
        """An empty or given chain of this chain's kind."""
        return Chain(dim, terms)

    def add(self, verts: Simplex, coeff: Fraction | int) -> None:
        order, sign = sort_with_sign([vertex_key(v) for v in verts])
        if sign and coeff:
            self._bump(tuple(verts[i] for i in order), sign * Fraction(coeff))

    def _bump(self, key, coeff: Fraction) -> None:
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __add__(self, other: "Chain") -> "Chain":
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to "
                            f"{type(self).__name__}")
        out = self._new(self.dim, dict(self.terms))
        for key, c in other.terms.items():
            out._bump(key, c)
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return self._new(self.dim, {s: -c for s, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(dim={self.dim}, terms={len(self.terms)})"

    def boundary(self) -> "Chain":
        out = Chain(self.dim - 1)
        for verts, coeff in self.terms.items():
            for j in range(len(verts)):
                out.add(verts[:j] + verts[j + 1:],
                        coeff if j % 2 == 0 else -coeff)
        return out

    def l1_norm(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def support(self) -> set[Vertex]:
        return {v for s in self.terms for v in s}

    def translate(self, graph, g) -> "Chain":
        out = Chain(self.dim)
        for verts, coeff in self.terms.items():
            out.add(tuple(graph.left_mul(g, v) for v in verts), coeff)
        return out


# -- coinvariants -----------------------------------------------------------


def orbit_canonical(verts: Simplex, psi: Automorphism
                    ) -> tuple[int, Simplex, int]:
    """(k, s, sign): the key (k, s) of the simplex's F-orbit, and the sign
    of the vertex order that s lists.  For g in G the translate g . verts
    gives (k + theta(g), s, sign)."""
    canon, sign, g = anchor_simplex(verts, psi)
    return g.texp, canon, sign


class CoinvariantChain(Chain):
    """A chain reduced modulo the free-group action and alternation.  Keys
    are (k, s) pairs, see the module docstring: the term (k, s) -> c stands
    for c times the F-orbit of t^k . s.  `psi` is the twist used to anchor
    the simplices added to the chain."""

    __slots__ = ("psi",)

    def __init__(self, dim: int, terms: dict[OrbitKey, Fraction] | None = None,
                 *, psi: Automorphism):
        super().__init__(dim, terms)
        self.psi = psi

    def _new(self, dim, terms=None) -> "CoinvariantChain":
        return CoinvariantChain(dim, terms, psi=self.psi)

    def add(self, verts: Simplex, coeff: Fraction | int,
            shift: int = 0) -> None:
        """Add coeff times the orbit of t^shift . verts."""
        verts = tuple(verts)
        if not coeff or len(set(verts)) < len(verts):
            return
        k, canon, sign = orbit_canonical(verts, self.psi)
        self._bump((k + shift, canon), sign * Fraction(coeff))

    def boundary(self) -> "CoinvariantChain":
        out = self._new(self.dim - 1)
        for (k, verts), coeff in self.terms.items():
            for j in range(len(verts)):
                out.add(verts[:j] + verts[j + 1:],
                        coeff if j % 2 == 0 else -coeff, shift=k)
        return out

    def support(self) -> set[Vertex]:
        raise TypeError("a coinvariant term (k, s) names an F-orbit, not "
                        "vertices; its simplex t^k . s is one representative")

    def translate(self, graph, g: GroupElem) -> "CoinvariantChain":
        return self._new(self.dim, {(k + g.texp, s): c
                                    for (k, s), c in self.terms.items()})


def chain_to_json(chain: CoinvariantChain) -> list[dict]:
    """Terms sorted by shift, then by the vertex order; a term (k, s) is
    written as {"shift": k, "simplex": s, "coeff": c}."""
    return [{"shift": k, "simplex": [str(v) for v in verts],
             "coeff": str(coeff)}
            for (k, verts), coeff in sorted(
                chain.terms.items(),
                key=lambda kv: (kv[0][0], [vertex_key(v) for v in kv[0][1]]))]
