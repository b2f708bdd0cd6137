"""Independent straight-line numeric recomputation used as a cross-check.

Everything here works on plain nested lists of Fractions: structure
constants in, curvature / Ricci / Lie-derivative values out.  No code is
shared with the symbolic pipeline; this is the second route of the dual
check, so keep it dumb and direct.
"""

from __future__ import annotations

from fractions import Fraction

SIGNS = (Fraction(1), Fraction(1), Fraction(-1))


def g(x, y):
    return sum(s * a * b for s, a, b in zip(SIGNS, x, y))


def vec_add(x, y):
    return [a + b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


def basis(i):
    out = [Fraction(0)] * 3
    out[i] = Fraction(1)
    return out


def bracket_num(c, x, y):
    out = [Fraction(0)] * 3
    for i in range(3):
        for j in range(3):
            f = x[i] * y[j]
            if f:
                for k in range(3):
                    out[k] += f * c[i][j][k]
    return out


def levi_civita_num(c):
    """gamma[i][j] = nabla_{e_i} e_j via the reduced Koszul identity."""
    br = [[bracket_num(c, basis(i), basis(j)) for j in range(3)] for i in range(3)]
    gamma = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t = (
                    g(br[i][j], basis(k))
                    - g(br[j][k], basis(i))
                    + g(br[k][i], basis(j))
                )
                gamma[i][j][k] = SIGNS[k] * t / 2
    return gamma


def project(v, idxs):
    return [v[k] if k in idxs else Fraction(0) for k in range(3)]


def bott_num(c, lc, plane, normal):
    plane0 = tuple(p - 1 for p in plane)
    n0 = normal - 1
    gamma = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if i in plane0 and j in plane0:
                v = project(lc[i][j], plane0)
            elif i == n0 and j in plane0:
                v = project(bracket_num(c, basis(i), basis(j)), plane0)
            elif i in plane0 and j == n0:
                v = project(bracket_num(c, basis(i), basis(j)), (n0,))
            else:
                v = project(lc[i][j], (n0,))
            gamma[i][j] = v
    return gamma


def apply_num(gamma, x, y):
    out = [Fraction(0)] * 3
    for i in range(3):
        for j in range(3):
            f = x[i] * y[j]
            if f:
                for k in range(3):
                    out[k] += f * gamma[i][j][k]
    return out


def riemann_num(c, gamma):
    nab = [[apply_num(gamma, basis(j), basis(p)) for p in range(3)] for j in range(3)]
    r = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            br = bracket_num(c, basis(i), basis(j))
            for p in range(3):
                t1 = apply_num(gamma, basis(i), nab[j][p])
                t2 = apply_num(gamma, basis(j), nab[i][p])
                t3 = apply_num(gamma, br, basis(p))
                r[i][j][p] = [a - b - d for a, b, d in zip(t1, t2, t3)]
    return r


def ricci_num(r):
    """rho(X,Y) = -g(R(X,e1)Y,e1) - g(R(X,e2)Y,e2) + g(R(X,e3)Y,e3)."""
    rho = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rho[i][j] = (
                -g(r[i][0][j], basis(0)) - g(r[i][1][j], basis(1)) + g(r[i][2][j], basis(2))
            )
    return rho


def sym_num(m):
    return [[(m[i][j] + m[j][i]) / 2 for j in range(3)] for i in range(3)]


def lie_derivative_num(gamma, v):
    out = [[Fraction(0)] * 3 for _ in range(3)]
    nv = [apply_num(gamma, basis(i), v) for i in range(3)]
    for i in range(3):
        for j in range(3):
            out[i][j] = g(nv[i], basis(j)) + g(basis(i), nv[j])
    return out
