"""Presentation matrices, lattice invariants, and the kernel element.

The presentation matrix of a diagram has one row per beta circle and one
column per alpha circle; its entry sums the crossing signs (weighted, over
the group ring).  On bsda.normalized_incidence(h) the core rows cut out a
finite cokernel exactly when the relevant first homology is finite, and the
column-reduced zero-core columns, read off on the new-beta rows, give a
basis of the kernel lattice inside the in/out coordinate space (both from
one Smith normal form of the core rows; the basis's rank by elimination).

The kernel element is that basis wedged together (its Plucker coordinates,
the k x k minors, from one state sum over the basis rows decoded by
exterior._arcs) and scaled by the order of the cokernel; composing it with
the duality pairing gives the TQFT map compared against the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import exterior as X
from .bsda import bsda_z, bsda_zh, incidence, normalized_incidence
from .diagram import HeegaardDiagram
from .rings import (ZZ, Matrix, integer_rank, smith_normal_form, snf_diagonal,
                    state_sums)


def presentation_matrix(h: HeegaardDiagram, ring: str = "z") -> Matrix:
    """Rows = beta circles, cols = alpha circles: the incidence of h made
    dense on the circles; arc crossings are not part of it."""
    if ring not in ("z", "zh"):
        raise ValueError("ring must be z or zh")
    inc = incidence(h, weighted=ring == "zh")
    R = inc.ring
    return Matrix(R, [[row[q] if q in row else R.zero() for q in inc.circles]
                      for row in inc.rows])


def torsion_order(entries) -> int:
    """Order of the cokernel of the column lattice in Z^rows; 0 when the
    cokernel is infinite (rank below the row count)."""
    nonzero = [d for d in snf_diagonal(entries) if d != 0]
    return prod(nonzero) if len(nonzero) == len(entries) else 0


@dataclass(frozen=True)
class KElement:
    prefactor: int      # the order of coker C; 0 unless star3 holds
    kernel_wedge: X.ExtElement
    degree: int         # the expected rank K = n0 + degree
    rank: int           # the achieved rank of the kernel lattice
    basis: tuple = ()   # its in/out basis vectors; () unless star3 holds


def k_element(h: HeegaardDiagram) -> KElement:
    """The kernel element of normalize(h), from its presentation M (the
    normalized incidence on the circles; out, core, then in rows) and one
    Smith normal form U*C*V = D of the core rows C, read as D's diagonal
    and V (U is never built), with r nonzero diagonal entries.
    star3 holds when r is the number of core rows; then the prefactor is
    the product of those entries, and the basis is the in/out rows of -M*V
    on the columns r.. .  With the core rows first, M*V is
    [[U^-1 D_r, 0], [X, -basis^T]] and V is unimodular, so under star3
    rank M is r + rank (the rank of the basis, by integer_rank's
    elimination), and M is injective when that is the column count.
    The element is the wedge of the basis times the prefactor when star3
    holds, M is injective and rank is K; else it is zero.
    """
    inc = normalized_incidence(h)
    M = [[row.get(q, 0) for q in inc.circles] for row in inc.rows]
    n0, n1, cols = inc.n0, inc.n1, len(inc.circles)
    n, big_k, cores = n0 + n1, n0 + inc.degree, M[n1:len(M) - n0]
    if cores:
        diagonal, V = smith_normal_form(cores)
        diagonal = [d for d in diagonal if d != 0]
    else:
        V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        diagonal = []
    r = len(diagonal)
    if r < len(cores):
        return KElement(0, X.ext_zero(ZZ, n), big_k, 0)
    basis = tuple(
        tuple(-sum(row[t] * V[t][j] for t in range(cols))
              for row in (*M[len(M) - n0:], *M[:n1]))
        for j in range(r, cols))
    rank = integer_rank(basis)
    prefactor = prod(diagonal)
    if r + rank != cols or rank != big_k:
        return KElement(prefactor, X.ext_zero(ZZ, n), big_k, rank, basis)
    minors = state_sums(ZZ, [{i: x for i, x in enumerate(v) if x}
                             for v in basis], 0)
    wedge = {X._arcs(n, mask)[0]: prefactor * v for mask, v in minors.items()}
    return KElement(prefactor, X.ExtElement(ZZ, n, wedge), big_k, rank, basis)


def vfn_sut(h: HeegaardDiagram, ke: KElement | None = None) -> X.GradedMap:
    """Pair the kernel element (k_element(h) unless given) against incoming
    monomials: the composition of the duality pairing with wedging by the
    kernel element (normalize(h) has h's n0, n1 and degree)."""
    ke = k_element(h) if ke is None else ke
    return X.compose_eps_tensor(ke.kernel_wedge, h.n0, h.n1, degree=h.degree)


def chi_sfh_surrogate(h: HeegaardDiagram, ring: str = "z"):
    """Euler characteristic surrogate for a diagram without boundary: the
    invariant's one entry (the closed rule of the bsda docstring) times
    (-1)^(free rank of the presentation cokernel)."""
    if h.n0 or h.n1:
        raise ValueError("surrogate needs empty boundaries")
    if ring not in ("z", "zh"):
        raise ValueError("ring must be z or zh")
    f = bsda_z(h) if ring == "z" else bsda_zh(h)
    s = f.entries.get(((), ()), f.ring.zero())
    m = presentation_matrix(h, "z")
    b1 = m.rows - integer_rank(m.entries)
    return s if b1 % 2 == 0 else f.ring.neg(s)


def weakly_balanced(h: HeegaardDiagram, I, J) -> bool:
    """|J| = |I| + degree, the condition under which cap(h, I, J) has as
    many alpha as beta circles (n0, n1 and degree as in vfn_sut)."""
    I = tuple(sorted(I))
    J = tuple(sorted(J))
    if any(not 1 <= i <= h.n0 for i in I) or len(set(I)) != len(I):
        raise ValueError("incoming subset out of range")
    if any(not 1 <= j <= h.n1 for j in J) or len(set(J)) != len(J):
        raise ValueError("outgoing subset out of range")
    return len(J) == len(I) + h.degree
