"""Curvature tensor, Ricci form, and its symmetrization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebraSpec, Vec3
from .connection import Connection
from .scalar import Poly


@dataclass(frozen=True)
class CurvatureTensor:
    """r[i][j][p] = R(e_i, e_j) e_p, 0-indexed storage, 1-based access."""

    r: tuple

    def at(self, i: int, j: int, p: int) -> Vec3:
        return self.r[i - 1][j - 1][p - 1]

    def entries(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for p in (1, 2, 3):
                    yield (i, j, p), self.at(i, j, p)

    def __str__(self) -> str:
        return "\n".join(f"R(e{i},e{j})e{p} = {vec}" for (i, j, p), vec in self.entries())


@dataclass(frozen=True)
class BilinearForm:
    """3x3 matrix of scalars; not necessarily symmetric."""

    m: tuple

    def at(self, i: int, j: int) -> Poly:
        return self.m[i - 1][j - 1]

    def entries(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                yield (i, j), self.at(i, j)

    def __str__(self) -> str:
        return "\n".join(
            "[ " + ", ".join(str(self.at(i, j)) for j in (1, 2, 3)) + " ]" for i in (1, 2, 3)
        )


def riemann(spec: LieAlgebraSpec, conn: Connection) -> CurvatureTensor:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.

    The same connection is used in all three terms, including the bracket
    term.  With nabla_{e_i} v = sum_k v_k gamma[i][k], and gamma_jp^k the
    k-th component of gamma[j][p], this is the contraction
        R(e_i,e_j)e_p = sum_k (gamma_jp^k gamma[i][k] - gamma_ip^k gamma[j][k]
                               - c_ij^k gamma[k][p]).
    Only the i < j half is contracted.  Since c is antisymmetric (built so by
    `_c_from_rows`), the contraction is antisymmetric in (i, j): R(e_j,e_i)e_p
    is the negated vector and R(e_i,e_i)e_p is zero, exactly.  Each of its
    components is one Poly.dot over the nine products of the contraction.
    """
    g = [[vec.c for vec in row] for row in conn.gamma]  # g[i][j][k] = gamma_ij^k
    c = [[vec.c for vec in row] for row in spec.c]
    r = [[[Vec3.zero()] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            for p in range(3):
                vec = Vec3(tuple(
                    Poly.dot([(g[j][p][k], g[i][k][q]) for k in range(3)],
                             [(g[i][p][k], g[j][k][q]) for k in range(3)]
                             + [(c[i][j][k], g[k][p][q]) for k in range(3)])
                    for q in range(3)
                ))
                r[i][j][p] = vec
                r[j][i][p] = -vec
    return CurvatureTensor(tuple(tuple(tuple(row) for row in plane) for plane in r))


def ricci(curv: CurvatureTensor) -> BilinearForm:
    """Signed frame trace:
    rho(X,Y) = -g(R(X,e1)Y,e1) - g(R(X,e2)Y,e2) + g(R(X,e3)Y,e3).

    With the metric signs folded in, every term contributes with weight -1:
    rho(e_i, e_j) = -sum_k [R(e_i, e_k) e_j]_k.  Generally not symmetric.
    """
    table = []
    for i in (1, 2, 3):
        row = []
        for j in (1, 2, 3):
            total = Poly.zero()
            for k in (1, 2, 3):
                total = total - curv.at(i, k, j).c[k - 1]
            row.append(total)
        table.append(tuple(row))
    return BilinearForm(tuple(table))


def symmetrize(rho: BilinearForm) -> BilinearForm:
    half = Fraction(1, 2)
    table = tuple(
        tuple((rho.at(i, j) + rho.at(j, i)).scaled(half) for j in (1, 2, 3)) for i in (1, 2, 3)
    )
    return BilinearForm(table)


def curvature_delta(base: CurvatureTensor, perturbed: CurvatureTensor) -> dict:
    """Triples (i,j,p) with i<j where the two tensors differ, with both values."""
    out = {}
    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            for p in (1, 2, 3):
                if base.at(i, j, p) != perturbed.at(i, j, p):
                    out[(i, j, p)] = (base.at(i, j, p), perturbed.at(i, j, p))
    return out
