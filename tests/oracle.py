"""Independent straight-line numeric recomputation used as a cross-check.

Everything here works on plain nested lists of Fractions: structure
constants in, curvature / Ricci / Lie-derivative values out.  No code is
shared with the symbolic pipeline; this is the second route of the dual
check, so keep it dumb and direct.
"""

from __future__ import annotations

from fractions import Fraction

SIGNS = (Fraction(1), Fraction(1), Fraction(-1))


def zeros():
    return [Fraction(0)] * 3


def levi_civita_num(c):
    """gamma[i][j] = nabla_{e_i} e_j via the reduced Koszul identity

        2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j),

    where g(v, e_m) = SIGNS[m] * v[m] and [e_i, e_j] = c[i][j]."""
    gamma = [[zeros() for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t = SIGNS[k] * c[i][j][k] - SIGNS[i] * c[j][k][i] + SIGNS[j] * c[k][i][j]
                gamma[i][j][k] = SIGNS[k] * t / 2
    return gamma


def project(v, idxs):
    return [v[k] if k in idxs else Fraction(0) for k in range(3)]


def bott_num(c, lc, plane, normal):
    plane0 = tuple(p - 1 for p in plane)
    n0 = normal - 1
    gamma = [[zeros() for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if i in plane0 and j in plane0:
                v = project(lc[i][j], plane0)
            elif i == n0 and j in plane0:
                v = project(c[i][j], plane0)
            elif i in plane0 and j == n0:
                v = project(c[i][j], (n0,))
            else:
                v = project(lc[i][j], (n0,))
            gamma[i][j] = v
    return gamma


def perturb_num(gamma, normal, a0):
    """The connection with a0 added to the e_n component of gamma[n][n]."""
    n0 = normal - 1
    out = [[list(v) for v in row] for row in gamma]
    out[n0][n0][n0] += a0
    return out


def nabla_num(gamma, i, v):
    """nabla_{e_i} v = sum_k v_k gamma[i][k] for constant components v."""
    out = zeros()
    for k in range(3):
        if v[k]:
            for m in range(3):
                out[m] += v[k] * gamma[i][k][m]
    return out


def riemann_num(c, gamma):
    """R(e_i,e_j)e_p = nabla_i nabla_j e_p - nabla_j nabla_i e_p - nabla_[e_i,e_j] e_p."""
    r = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for p in range(3):
                t1 = nabla_num(gamma, i, gamma[j][p])
                t2 = nabla_num(gamma, j, gamma[i][p])
                t3 = zeros()
                for m in range(3):
                    if c[i][j][m]:
                        t3 = [a + c[i][j][m] * b for a, b in zip(t3, gamma[m][p])]
                r[i][j][p] = [a - b - d for a, b, d in zip(t1, t2, t3)]
    return r


def ricci_num(r):
    """rho(X,Y) = -g(R(X,e1)Y,e1) - g(R(X,e2)Y,e2) + g(R(X,e3)Y,e3): the term of
    e_m has the sign -SIGNS[m], and g(v, e_m) = SIGNS[m] * v[m]."""
    return [[sum(-SIGNS[m] * SIGNS[m] * r[i][m][j][m] for m in range(3)) for j in range(3)]
            for i in range(3)]


def sym_num(m):
    return [[(m[i][j] + m[j][i]) / 2 for j in range(3)] for i in range(3)]


def lie_derivative_num(gamma, v):
    """(L_v g)(e_i, e_j) = g(nabla_{e_i} v, e_j) + g(e_i, nabla_{e_j} v)."""
    nv = [nabla_num(gamma, i, v) for i in range(3)]
    return [[SIGNS[j] * nv[i][j] + SIGNS[i] * nv[j][i] for j in range(3)] for i in range(3)]
