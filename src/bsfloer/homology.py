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
from .bsda import _state_sums, point_coefficients
from .diagram import HeegaardDiagram, normalized_roles
from .rings import (
    ZZ,
    Matrix,
    integer_rank,
    smith_normal_form,
    snf_diagonal,
)


@dataclass(frozen=True)
class Presentation:
    matrix: Matrix
    roles: tuple

    @property
    def d(self) -> int:
        return self.matrix.rows - self.matrix.cols

    def int_entries(self) -> list:
        if self.matrix.ring is not ZZ:
            raise ValueError("integer presentation expected")
        return [list(r) for r in self.matrix.entries]

    def rank(self) -> int:
        return integer_rank(self.int_entries())

    def elementary_divisors(self) -> list:
        return [d for d in snf_diagonal(self.int_entries()) if d != 0]


def presentation_matrix(h: HeegaardDiagram, ring: str = "z") -> Presentation:
    """Rows = beta circles, cols = alpha circles; arc crossings are not
    part of the presentation."""
    if ring not in ("z", "zh"):
        raise ValueError("ring must be z or zh")
    circle_col = {aid: i for i, aid in enumerate(h.alpha_circles)}
    beta_row = {bid: j for j, bid in enumerate(h.beta_ids())}
    R, coeff = point_coefficients(h, weighted=ring == "zh")
    rows = [[R.zero() for _ in h.alpha_circles] for _ in h.beta_circles]
    for p in h.points:
        i = circle_col.get(p.alpha)
        if i is None:
            continue
        j = beta_row[p.beta]
        rows[j][i] = R.add(rows[j][i], coeff(p))
    m = Matrix(R, rows, row_labels=h.beta_ids(),
               col_labels=tuple(h.alpha_circles))
    return Presentation(m, tuple(role for _, role in h.beta_circles))


def torsion_order(entries) -> int:
    """Order of the cokernel of the column lattice in Z^rows; 0 when the
    cokernel is infinite (rank below the row count)."""
    if isinstance(entries, Matrix):
        entries = entries.entries
    rows = len(entries)
    divisors = snf_diagonal([list(r) for r in entries]) if rows else []
    nonzero = [d for d in divisors if d != 0]
    if len(nonzero) < rows:
        return 0
    order = 1
    for d in nonzero:
        order *= d
    return order


@dataclass(frozen=True)
class KElement:
    prefactor: int
    kernel_wedge: X.ExtElement
    degree: int


def _core_analysis(h_norm: HeegaardDiagram):
    """Everything about the presentation M of a normalized diagram, from
    one Smith normal form U*C*V = D of its core rows C, with r nonzero
    diagonal entries.  star3_ok means r equals the number of core rows;
    then the prefactor (the order of coker C) is the product of those
    entries, else 0.  The readings are the in/out rows of -M*V on the
    columns r.. .  With the core rows first, M*V is [[U^-1 D_r, 0],
    [X, -readings^T]] and V is unimodular, so under star3 rank M is
    r + rank(readings), and M is injective when that is the column count.
    Without star3 injective reads False; no caller reads it then.
    """
    outs, cores, ins = normalized_roles(h_norm)
    pres = presentation_matrix(h_norm, "z")
    M = pres.matrix.entries
    row_of = {bid: i for i, bid in enumerate(h_norm.beta_ids())}
    cols = len(h_norm.alpha_circles)
    C = [M[row_of[bid]] for bid in cores]

    n0, n1 = h_norm.n0, h_norm.n1
    big_k = n0 + h_norm.degree

    if cores:
        _, D, V = smith_normal_form(C)
        diagonal = [D[i][i] for i in range(min(len(D), cols)) if D[i][i] != 0]
    else:
        V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        diagonal = []
    r = len(diagonal)
    star3_ok = r == len(cores)

    readings: list = []
    if star3_ok:
        for j in range(r, cols):
            v = [0] * (n0 + n1)
            for i, bid in enumerate(ins):
                row = M[row_of[bid]]
                v[i] = -sum(row[t] * V[t][j] for t in range(cols))
            for jj, bid in enumerate(outs):
                row = M[row_of[bid]]
                v[n0 + jj] = -sum(row[t] * V[t][j] for t in range(cols))
            readings.append(tuple(v))
    rank_ker = integer_rank([list(v) for v in readings]) if star3_ok else 0
    return {
        "core": C,
        "K": big_k,
        "star3_ok": star3_ok,
        "prefactor": prod(diagonal) if star3_ok else 0,
        "readings": readings,
        "rank_ker": rank_ker,
        "injective": star3_ok and r + rank_ker == cols,
    }


def kernel_istar(h_norm: HeegaardDiagram):
    """Basis of the kernel lattice in in/out coordinates (incoming block
    first), with the expected degree K and the achieved rank."""
    data = _core_analysis(h_norm)
    vectors = (list(data["readings"])
               if data["star3_ok"] and data["injective"] else [])
    return vectors, data["K"], data["rank_ker"]


def k_element(h_norm: HeegaardDiagram) -> KElement:
    data = _core_analysis(h_norm)
    prefactor = data["prefactor"]
    n = h_norm.n0 + h_norm.n1
    big_k = data["K"]
    ok = (prefactor > 0 and data["star3_ok"] and data["injective"]
          and data["rank_ker"] == big_k)
    if not ok:
        return KElement(prefactor, X.ext_zero(ZZ, n), big_k)
    factors = [
        X.ExtElement(ZZ, n, {(i + 1,): v[i] for i in range(n) if v[i]})
        for v in data["readings"]
    ]
    wedge = X.wedge_list(ZZ, n, factors)
    wedge = X.ext_scale(ZZ.from_int(prefactor), wedge)
    return KElement(prefactor, wedge, big_k)


def vfn_sut(h_norm: HeegaardDiagram) -> X.GradedMap:
    """Pair the kernel element against incoming monomials: the composition
    of the duality pairing with wedging by the kernel element."""
    ke = k_element(h_norm)
    return X.compose_eps_tensor(ke.kernel_wedge, h_norm.n0, h_norm.n1,
                                degree=h_norm.degree)


def generator_sum(h: HeegaardDiagram, ring: str = "z"):
    """Sum over generators of (-1)^(intersection + permutation) parity,
    optionally weighted."""
    if ring not in ("z", "zh"):
        raise ValueError("ring must be z or zh")
    R, coeff = point_coefficients(h, weighted=ring == "zh")
    return R.sum(_state_sums(h, R, coeff).values())


def chi_sfh_surrogate(h: HeegaardDiagram, ring: str = "z"):
    """Euler characteristic surrogate for a diagram without boundary:
    the generator sum times (-1)^(free rank of the presentation cokernel)."""
    if h.n0 or h.n1:
        raise ValueError("surrogate needs empty boundaries")
    pres = presentation_matrix(h, "z")
    b1 = pres.matrix.rows - pres.rank()
    s = generator_sum(h, ring)
    R, _ = point_coefficients(h, weighted=ring == "zh")
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
