"""Levi-Civita, Bott, and perturbed Bott connections on the fixed frame.

A Connection stores gamma[i][j] = nabla_{e_i} e_j as a Vec3 (0-indexed
internally, 1-based in all I/O).  All vector fields handled here have
constant frame components, so the connection acts bilinearly in both slots;
that restriction is what makes the purely algebraic treatment exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import METRIC_SIGNS, LieAlgebraSpec, Vec3
from .scalar import Poly


@dataclass(frozen=True)
class Distribution:
    """A coordinate 2-plane and its complementary normal direction."""

    name: str
    plane: tuple
    normal: int

    def __post_init__(self):
        if sorted((*self.plane, self.normal)) != [1, 2, 3]:
            raise ValueError("plane and normal must partition {1,2,3}")

    def project(self, v: Vec3, indices: tuple) -> Vec3:
        """Keep the components of v along the given (1-based) frame indices."""
        return Vec3(tuple(comp if k in indices else Poly.zero() for k, comp in enumerate(v.c, 1)))


D = Distribution("D", (1, 2), 3)
D1 = Distribution("D1", (1, 3), 2)
D2 = Distribution("D2", (2, 3), 1)

DISTRIBUTIONS = {"D": D, "D1": D1, "D2": D2}


@dataclass(frozen=True)
class Connection:
    gamma: tuple  # gamma[i][j]: Vec3, 0-indexed

    def row(self, i: int, j: int) -> Vec3:
        """nabla_{e_i} e_j for 1-based indices."""
        return self.gamma[i - 1][j - 1]

    def entries(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                yield (i, j), self.gamma[i - 1][j - 1]

    def __str__(self) -> str:
        return "\n".join(f"nabla[e{i}]e{j} = {vec}" for (i, j), vec in self.entries())


def levi_civita(spec: LieAlgebraSpec) -> Connection:
    """Unique torsion-free metric connection of the left-invariant metric.

    On a frame of left-invariant fields the Koszul identity loses its
    derivative terms:  2 g(nabla_{e_i} e_j, e_k)
        = g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j),
    so with g(e_k, e_k) = s_k the components are the index contraction
        nabla_{e_i} e_j = 1/2 sum_k (c_ij^k - s_i s_k c_jk^i + s_j s_k c_ki^j) e_k.
    """
    s = METRIC_SIGNS
    c = [[vec.c for vec in row] for row in spec.c]  # c[i][j][k] = c_ij^k
    half = Fraction(1, 2)
    table = tuple(
        tuple(
            Vec3(tuple(
                (c[i][j][k] - c[j][k][i].scaled(s[i] * s[k])
                 + c[k][i][j].scaled(s[j] * s[k])).scaled(half)
                for k in range(3)
            ))
            for j in range(3)
        )
        for i in range(3)
    )
    return Connection(table)


def bott(spec: LieAlgebraSpec, lc: Connection, dist: Distribution) -> Connection:
    """Projection connection attached to the distribution.

    nabla_{e_i} e_j is the Levi-Civita row when e_i and e_j are on the same
    side (both in the plane or both normal) and the bracket [e_i, e_j]
    otherwise, projected onto the side of e_j.
    """
    table = []
    for i in (1, 2, 3):
        row = []
        for j in (1, 2, 3):
            side = dist.plane if j in dist.plane else (dist.normal,)
            vec = lc.row(i, j) if i in side else spec.bracket_basis(i, j)
            row.append(dist.project(vec, side))
        table.append(tuple(row))
    return Connection(tuple(table))


def perturb(base: Connection, dist: Distribution) -> Connection:
    """Add the rank-one term a0 along the normal direction of `dist`.

    Only gamma[n][n] changes, gaining +a0*e_n where n is the normal index.
    """
    n = dist.normal
    bump = Vec3.basis(n).scale(Poly.var("a0"))
    table = [list(row) for row in base.gamma]
    table[n - 1][n - 1] = table[n - 1][n - 1] + bump
    return Connection(tuple(tuple(row) for row in table))
