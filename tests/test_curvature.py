from fractions import Fraction

import pytest

from bottsol.algebra import Vec3, combine, parse_custom_file, screen_jacobi
from bottsol.connection import DISTRIBUTIONS
from bottsol.curvature import CurvatureTensor, curvature_delta, riemann, symmetrize
from bottsol.pipeline import build, eta_signs, stage
from bottsol.registry import load_fixtures
from bottsol.scalar import Poly, parse_vector
from helpers import all_configurations, is_symmetric, power


def V(text):
    return Vec3(parse_vector(text))


def reference_riemann(spec, conn) -> CurvatureTensor:
    """The contraction over all 27 triples (i, j, p), with no use of
    antisymmetry: R(e_i,e_j)e_p = sum_k (gamma_jp^k gamma[i][k]
    - gamma_ip^k gamma[j][k] - c_ij^k gamma[k][p])."""
    g = conn.gamma
    return CurvatureTensor(tuple(
        tuple(
            tuple(
                combine(g[j][p].c, g[i]) - combine(g[i][p].c, g[j])
                - combine(spec.c[i][j].c, [g[k][p] for k in range(3)])
                for p in range(3)
            )
            for j in range(3)
        )
        for i in range(3)
    ))


# G1 at alpha -> 2/3*alpha + 1/2, beta -> -5/4*beta: a Lie algebra outside
# the catalog whose brackets have rational coefficients.
RATIONAL_SPEC = """
[e1,e2] = (2/3*alpha + 1/2)*e1 + 5/4*beta*e3
[e1,e3] = -(2/3*alpha + 1/2)*e1 + 5/4*beta*e2
[e2,e3] = -5/4*beta*e1 + (2/3*alpha + 1/2)*e2 + (2/3*alpha + 1/2)*e3
"""


class TestRiemann:
    def test_g1_entry(self):
        curv = stage("G1", "D").riemann
        assert curv.at(1, 2, 1) == V("alpha*beta*e1 + (alpha^2 + beta^2)*e2")

    def test_g5_flat(self):
        curv = stage("G5", "D").riemann
        assert all(vec.is_zero() for _, vec in curv.entries())

    def test_g6_third_distribution_flat(self):
        curv = stage("G6", "D2").riemann
        assert all(vec.is_zero() for _, vec in curv.entries())

    def test_half_contraction_equals_reference_on_catalog(self):
        for group, dist, perturbed, eta in all_configurations():
            st = stage(group, dist, perturbed, eta)
            assert riemann(st.spec, st.conn) == reference_riemann(st.spec, st.conn)

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_half_contraction_equals_reference_on_custom_spec(self, dist, perturbed):
        spec = parse_custom_file(RATIONAL_SPEC)
        screen_jacobi(spec)
        st = build(spec, dist, perturbed)
        assert not all(vec.is_zero() for _, vec in st.riemann.entries())
        assert st.riemann == reference_riemann(spec, st.conn)

    def test_antisymmetry_all_connections(self):
        for group, dist, perturbed, eta in all_configurations():
            curv = stage(group, dist, perturbed, eta).riemann
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    for p in (1, 2, 3):
                        assert curv.at(i, j, p) == -curv.at(j, i, p)


class TestRicci:
    def test_g1_diagonal(self):
        rho = stage("G1", "D").ricci
        assert rho.at(1, 1) == Poly.zero() - parse_vector("(alpha^2+beta^2)*e1")[0]

    def test_g1_asymmetry(self):
        rho = stage("G1", "D").ricci
        assert rho.at(2, 3) == power(Poly.var("alpha"), 2)
        assert rho.at(3, 2).is_zero()

    def test_zero_curvature_gives_zero_form(self):
        rho = stage("G5", "D").ricci
        assert all(v.is_zero() for _, v in rho.entries())


class TestSymmetrize:
    def test_g1_entries(self):
        sym = stage("G1", "D").sym_ricci
        assert sym.at(2, 3) == power(Poly.var("alpha"), 2).scaled(Fraction(1, 2))
        assert sym.at(1, 3) == (Poly.var("alpha") * Poly.var("beta")).scaled(Fraction(-1, 2))

    def test_idempotent_and_symmetric(self):
        for group, dist, perturbed, eta in all_configurations():
            sym = stage(group, dist, perturbed, eta).sym_ricci
            assert is_symmetric(sym)
            assert symmetrize(sym).m == sym.m

    def test_linear(self):
        from bottsol.curvature import BilinearForm

        a = stage("G1", "D").ricci
        b = stage("G7", "D").ricci
        combined = BilinearForm(
            tuple(
                tuple(a.at(i, j).scaled(3) + b.at(i, j) for j in (1, 2, 3)) for i in (1, 2, 3)
            )
        )
        expected = BilinearForm(
            tuple(
                tuple(
                    symmetrize(a).at(i, j).scaled(3) + symmetrize(b).at(i, j)
                    for j in (1, 2, 3)
                )
                for i in (1, 2, 3)
            )
        )
        assert symmetrize(combined).m == expected.m


class TestPerturbedDeltaSupport:
    def test_difference_tensor_support_matches_registry(self):
        # The symbolic difference R~ - R must be supported exactly on the
        # triples the delta tables list (closed under antisymmetry).
        declared = {}
        for fix in load_fixtures():
            if fix.kind == "curvature_delta":
                declared[(fix.group, fix.distribution)] = {key for key, _ in fix.rows}
        assert len(declared) == 21
        for (group, dist), keys in declared.items():
            for eta in eta_signs(group):
                base = stage(group, dist, False, eta).riemann
                pert = stage(group, dist, True, eta).riemann
                support = set(curvature_delta(base, pert))
                known_bad = {
                    # audited misprint: this triple is absent from the stored
                    # 8.6 list but the difference tensor is nonzero there.
                    ("G1", "D2"): {(1, 2, 1)},
                }.get((group, dist), set())
                assert support == (keys | known_bad), (group, dist, support, keys)
