"""Presentation matrices, lattice invariants, and the kernel element.

The presentation matrix of a diagram has one row per beta circle and one
column per alpha circle; its entry sums the crossing signs (weighted, over
the group ring).  For a normalized diagram the core rows cut out a finite
cokernel exactly when the relevant first homology is finite, and the
column-reduced zero-core columns, read off on the new-beta rows, give a
basis of the kernel lattice inside the in/out coordinate space.

The kernel element is that basis wedged together and scaled by the order
of the cokernel; composing it with the duality pairing gives the TQFT map
that the acceptance suite compares against the invariant matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import exterior as X
from .bsda import _state_sums, closed_det, incidence, weight_ring
from .diagram import HeegaardDiagram, normalized_roles
from .rings import (
    ZZ,
    Matrix,
    integer_rank,
    smith_normal_form,
    snf_diagonal,
)


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
    prefactor: int
    kernel_wedge: X.ExtElement
    degree: int
    rank: int   # the achieved rank of the kernel lattice


def _core_analysis(h_norm: HeegaardDiagram):
    """Everything about the presentation M of a normalized diagram, from
    one Smith normal form U*C*V = D of its core rows C, read as D's
    diagonal and V (U is never built), with r nonzero diagonal entries.
    star3_ok means r equals the number of core rows; then the prefactor
    (the order of coker C) is the product of those entries, else 0.  The
    readings are the in/out rows of -M*V on the columns r.. .  With the
    core rows first, M*V is [[U^-1 D_r, 0], [X, -readings^T]] and V is
    unimodular, so under star3 rank M is r + rank(readings), and M is
    injective when that is the column count.
    Without star3 injective reads False; no caller reads it then.
    """
    outs, cores, ins = normalized_roles(h_norm)
    M = presentation_matrix(h_norm, "z").entries
    cols = h_norm.a
    C = [M[r] for r in cores]

    if cores:
        diagonal, V = smith_normal_form(C)
        diagonal = [d for d in diagonal if d != 0]
    else:
        V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        diagonal = []
    r = len(diagonal)
    star3_ok = r == len(cores)

    readings: list = []
    if star3_ok:
        for j in range(r, cols):
            readings.append(tuple(
                -sum(M[row][t] * V[t][j] for t in range(cols))
                for row in (*ins, *outs)))
    rank_ker = integer_rank([list(v) for v in readings]) if star3_ok else 0
    return {
        "core": C,
        "K": h_norm.n0 + h_norm.degree,
        "star3_ok": star3_ok,
        "prefactor": prod(diagonal) if star3_ok else 0,
        "readings": readings,
        "rank_ker": rank_ker,
        "injective": star3_ok and r + rank_ker == cols,
    }


def k_element(h_norm: HeegaardDiagram) -> KElement:
    data = _core_analysis(h_norm)
    prefactor = data["prefactor"]
    n = h_norm.n0 + h_norm.n1
    big_k = data["K"]
    ok = (prefactor > 0 and data["star3_ok"] and data["injective"]
          and data["rank_ker"] == big_k)
    if not ok:
        return KElement(prefactor, X.ext_zero(ZZ, n), big_k, data["rank_ker"])
    factors = [
        X.ExtElement(ZZ, n, {(i + 1,): v[i] for i in range(n) if v[i]})
        for v in data["readings"]
    ]
    wedge = X.wedge_list(ZZ, n, factors)
    wedge = X.ext_scale(ZZ.from_int(prefactor), wedge)
    return KElement(prefactor, wedge, big_k, data["rank_ker"])


def vfn_sut(h_norm: HeegaardDiagram, ke: KElement | None = None) -> X.GradedMap:
    """Pair the kernel element (k_element(h_norm) unless given) against
    incoming monomials: the composition of the duality pairing with
    wedging by the kernel element."""
    ke = k_element(h_norm) if ke is None else ke
    return X.compose_eps_tensor(ke.kernel_wedge, h_norm.n0, h_norm.n1,
                                degree=h_norm.degree)


def generator_sum(h: HeegaardDiagram, ring: str = "z"):
    """Sum over generators of (-1)^(intersection + permutation) parity,
    optionally weighted.  A closed diagram over Z takes bsda.closed_det,
    every other the state sum."""
    if ring not in ("z", "zh"):
        raise ValueError("ring must be z or zh")
    if ring == "z" and not h.n0 and not h.n1:
        return closed_det(h)
    inc = incidence(h, weighted=ring == "zh")
    return inc.ring.sum(_state_sums(inc).values())


def chi_sfh_surrogate(h: HeegaardDiagram, ring: str = "z"):
    """Euler characteristic surrogate for a diagram without boundary:
    the generator sum times (-1)^(free rank of the presentation cokernel)."""
    if h.n0 or h.n1:
        raise ValueError("surrogate needs empty boundaries")
    s = generator_sum(h, ring)      # refuses a bad ring before the rank
    m = presentation_matrix(h, "z")
    b1 = m.rows - integer_rank(m.entries)
    R = weight_ring(h) if ring == "zh" else ZZ
    return s if b1 % 2 == 0 else R.neg(s)


def weakly_balanced(h_norm: HeegaardDiagram, I, J) -> bool:
    """|J| = |I| + degree, the condition under which the capped diagram has
    as many alpha as beta circles."""
    normalized_roles(h_norm)
    I = tuple(sorted(I))
    J = tuple(sorted(J))
    if any(not 1 <= i <= h_norm.n0 for i in I) or len(set(I)) != len(I):
        raise ValueError("incoming subset out of range")
    if any(not 1 <= j <= h_norm.n1 for j in J) or len(set(J)) != len(J):
        raise ValueError("outgoing subset out of range")
    return len(J) == len(I) + h_norm.degree
