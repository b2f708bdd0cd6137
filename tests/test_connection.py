import pytest

from bottsol.algebra import GROUPS, Vec3, bracket, catalog, custom_spec
from bottsol.connection import DISTRIBUTIONS, Distribution, bott, levi_civita, perturb
from bottsol.pipeline import eta_signs, stage
from bottsol.scalar import Poly, parse_vector
from helpers import apply, metric_pair

E = [None, Vec3.basis(1), Vec3.basis(2), Vec3.basis(3)]


def V(text, eta=None):
    return Vec3(parse_vector(text, eta=eta))


def all_specs():
    for group in GROUPS:
        for eta in eta_signs(group):
            yield catalog(group, eta_sign=eta)


class TestLeviCivita:
    def test_g1_first_row(self):
        lc = stage("G1", "D").levi_civita
        assert lc.row(1, 1) == V("-alpha*e2 - alpha*e3")

    def test_abelian_connection_vanishes(self):
        spec = custom_spec({(1, 2): Vec3.zero(), (1, 3): Vec3.zero(), (2, 3): Vec3.zero()})
        lc = levi_civita(spec)
        assert all(vec.is_zero() for _, vec in lc.entries())

    def test_g3_shorthand_entry(self):
        lc = stage("G3", "D").levi_civita
        assert lc.row(1, 2) == V("(alpha - beta - gamma)/2*e3")

    def test_torsion_free(self):
        for spec in all_specs():
            lc = levi_civita(spec)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    lhs = apply(lc, E[i], E[j]) + -apply(lc, E[j], E[i])
                    assert lhs == bracket(spec, E[i], E[j]), (spec.label, i, j)

    def test_metric_compatibility(self):
        for spec in all_specs():
            lc = levi_civita(spec)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    for k in (1, 2, 3):
                        total = metric_pair(apply(lc, E[i], E[j]), E[k]) + metric_pair(
                            E[j], apply(lc, E[i], E[k])
                        )
                        assert total.is_zero(), (spec.label, i, j, k)


class TestBott:
    def test_g1_normal_row(self):
        conn = stage("G1", "D").conn
        assert conn.row(3, 1) == V("alpha*e1 + beta*e2")

    def test_g5_vanishing_rows(self):
        conn = stage("G5", "D").conn
        assert conn.row(1, 1).is_zero()
        assert all(conn.row(2, j).is_zero() for j in (1, 2, 3))

    def test_g1_second_distribution_row(self):
        conn = stage("G1", "D1").conn
        assert conn.row(2, 1) == V("-alpha*e1 + beta*e3")

    def test_support_invariant(self):
        # All four cases project onto the subspace the second argument lives
        # in: rows with j in the plane stay in the plane, rows with j on the
        # normal line stay on the normal line.
        for spec in all_specs():
            lc = levi_civita(spec)
            for dist in DISTRIBUTIONS.values():
                conn = bott(spec, lc, dist)
                for (i, j), vec in conn.entries():
                    in_plane = j in dist.plane
                    for k in (1, 2, 3):
                        expected_zero = (k in dist.plane) != in_plane
                        if expected_zero:
                            assert vec.c[k - 1].is_zero(), (spec.label, dist.name, i, j, k)


class TestPerturb:
    def test_g1_perturbed_entry(self):
        conn = stage("G1", "D", perturbed=True).conn
        assert conn.row(3, 3) == V("a0*e3")

    def test_g3_second_distribution(self):
        conn = stage("G3", "D1", perturbed=True).conn
        assert conn.row(2, 2) == V("a0*e2")
        base = stage("G3", "D1").conn
        assert conn.row(2, 1) == base.row(2, 1)

    def test_changes_exactly_one_entry(self):
        for spec in all_specs():
            lc = levi_civita(spec)
            for dist in DISTRIBUTIONS.values():
                base = bott(spec, lc, dist)
                pert = perturb(base, dist)
                n = dist.normal
                diffs = [
                    (i, j)
                    for (i, j), vec in base.entries()
                    if vec != pert.row(i, j)
                ]
                assert diffs == [(n, n)]
                delta = pert.row(n, n) + -base.row(n, n)
                assert delta == Vec3.basis(n).scale(Poly.var("a0"))


class TestApply:
    def test_row_lookup(self):
        conn = stage("G1", "D").conn
        assert apply(conn, E[1], E[2]) == V("alpha*e1")

    def test_zero_slot(self):
        conn = stage("G1", "D").conn
        assert apply(conn, Vec3.zero(), E[2]).is_zero()

    def test_bilinear_expansion_component(self):
        conn = stage("G1", "D").conn
        v = Vec3.of(Poly.var("mu1"), Poly.var("mu2"), Poly.var("mu3"))
        out = apply(conn, v, E[1])
        # mu1*nabla[e1]e1 + mu2*nabla[e2]e1 + mu3*nabla[e3]e1; the e1
        # component comes only from the third row.
        assert out.c[0] == Poly.var("mu3") * Poly.var("alpha")


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution("bad", (1, 2), 2)
