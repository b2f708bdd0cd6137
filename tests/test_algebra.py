import pytest

from bottsol import algebra
from bottsol.algebra import (
    GROUPS,
    InvalidAlgebra,
    UnknownId,
    Vec3,
    bracket,
    catalog,
    custom_spec,
    jacobi_defect,
    parse_custom_file,
    screen_jacobi,
)
from bottsol.pipeline import eta_signs
from bottsol.scalar import Poly, parse_vector
from helpers import metric_pair


def V(text):
    return Vec3(parse_vector(text))


E1, E2, E3 = Vec3.basis(1), Vec3.basis(2), Vec3.basis(3)


class TestCatalog:
    def test_g1_bracket_rows(self):
        g1 = catalog("G1")
        assert g1.bracket_basis(2, 3) == V("beta*e1 + alpha*e2 + alpha*e3")
        assert g1.bracket_basis(1, 2) == V("alpha*e1 - beta*e3")

    def test_g5_first_bracket_vanishes(self):
        assert catalog("G5").bracket_basis(1, 2).is_zero()

    def test_g3_row(self):
        assert catalog("G3").bracket_basis(1, 3) == V("-beta*e2")

    def test_g4_needs_eta(self):
        with pytest.raises(UnknownId):
            catalog("G4")
        with pytest.raises(UnknownId):
            catalog("G1", eta_sign=1)
        with pytest.raises(UnknownId):
            catalog("G8")
        plus = catalog("G4", eta_sign=1)
        minus = catalog("G4", eta_sign=-1)
        assert plus.bracket_basis(1, 2) != minus.bracket_basis(1, 2)

    def test_constraints_attached(self):
        assert [str(p) for p in catalog("G5").equality_constraints] == ["alpha*gamma + beta*delta"]
        assert [str(p) for p in catalog("G6").equality_constraints] == ["alpha*gamma - beta*delta"]
        assert [str(p) for p in catalog("G7").equality_constraints] == ["alpha*gamma"]
        assert [str(p) for p in catalog("G1").nonzero_constraints] == ["alpha"]
        assert [str(p) for p in catalog("G2").nonzero_constraints] == ["gamma"]

    def test_unimodularity_metadata(self):
        def first(g):
            return catalog(g, eta_sign=eta_signs(g)[0])

        assert all(first(g).unimodular for g in ("G1", "G2", "G3", "G4"))
        assert not any(first(g).unimodular for g in ("G5", "G6", "G7"))


class TestBracket:
    def test_bilinearity_against_g1_row(self):
        g1 = catalog("G1")
        assert bracket(g1, E1, E2) == V("alpha*e1 - beta*e3")

    def test_antisymmetry_on_vectors(self):
        g1 = catalog("G1")
        v = Vec3.of(Poly.var("mu1"), Poly.var("mu2"), Poly.var("mu3"))
        assert bracket(g1, v, v).is_zero()

    def test_reversed_row(self):
        g5 = catalog("G5")
        assert bracket(g5, E3, E1) == V("-alpha*e1 - beta*e2")

    def test_structural_antisymmetry(self):
        for group in GROUPS:
            for eta in eta_signs(group):
                spec = catalog(group, eta_sign=eta)
                for i in range(3):
                    for j in range(3):
                        assert spec.c[i][j] == -spec.c[j][i]


class TestJacobi:
    def test_catalog_is_jacobi_flat(self):
        for group in GROUPS:
            for eta in eta_signs(group):
                spec = catalog(group, eta_sign=eta)
                assert jacobi_defect(spec).is_zero(), f"{group} fails the Jacobi identity"

    def test_abelian(self):
        spec = custom_spec({(1, 2): Vec3.zero(), (1, 3): Vec3.zero(), (2, 3): Vec3.zero()})
        assert jacobi_defect(spec).is_zero()

    def test_failing_custom_spec(self):
        # [e1,e2]=e3, [e1,e3]=0, [e2,e3]=e2: by direct expansion the cyclic
        # sum is [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]
        #       = [e3,e3] + [e2,e1] + 0 = -e3.
        spec = custom_spec({(1, 2): V("e3"), (1, 3): Vec3.zero(), (2, 3): V("e2")})
        defect = jacobi_defect(spec)
        assert defect == V("-e3")
        with pytest.raises(InvalidAlgebra, match="cyclic sum is -e3"):
            screen_jacobi(spec)


class TestMetric:
    def test_timelike_direction(self):
        assert metric_pair(E3, E3) == Poly.const(-1)

    def test_orthonormality(self):
        assert metric_pair(E1, E2).is_zero()
        assert metric_pair(E1, E1) == Poly.const(1)

    def test_component_extraction(self):
        v = Vec3.of(Poly.var("mu1"), Poly.var("mu2"), Poly.var("mu3"))
        assert metric_pair(v, E2) == Poly.var("mu2")
        assert metric_pair(v, E3) == -Poly.var("mu3")

    def test_symmetry_and_bilinearity(self):
        v = Vec3.of(Poly.var("mu1"), Poly.var("mu2"), Poly.var("mu3"))
        w = Vec3.of(Poly.var("alpha"), Poly.zero(), Poly.var("beta"))
        assert metric_pair(v, w) == metric_pair(w, v)
        assert metric_pair(v + w, w) == metric_pair(v, w) + metric_pair(w, w)


class TestCustomFile:
    GOOD = """
    # heisenberg-like example
    [e1,e2] = gamma*e3
    [e1,e3] = 0
    [e2,e3] = 0
    require_nonzero gamma
    """

    def test_parse_and_screen(self):
        spec = parse_custom_file(self.GOOD)
        assert spec.bracket_basis(1, 2) == V("gamma*e3")
        assert [str(p) for p in spec.nonzero_constraints] == ["gamma"]
        screen_jacobi(spec)

    def test_missing_row(self):
        with pytest.raises(InvalidAlgebra):
            parse_custom_file("[e1,e2] = gamma*e3")

    def test_bad_expression(self):
        with pytest.raises(InvalidAlgebra):
            parse_custom_file("[e1,e2] = foo*e3\n[e1,e3] = 0\n[e2,e3] = 0")

    def test_structure_constants_exactly_at_the_bound(self, monkeypatch):
        """A row of two terms fills two entries of c: 4 terms, squared 16."""
        monkeypatch.setattr(algebra, "MAX_PRODUCT_TERMS", 16)
        spec = parse_custom_file("[e1,e2] = alpha*e1 + beta*e2\n[e1,e3] = 0\n[e2,e3] = 0")
        assert spec.bracket_basis(1, 2) == V("alpha*e1 + beta*e2")
        with pytest.raises(InvalidAlgebra, match=r"^line 2: structure constants too large: 6 terms"):
            parse_custom_file("[e1,e2] = alpha*e1 + beta*e2\n[e1,e3] = gamma*e2\n[e2,e3] = 0")

    def test_parameters_in_alphabet_order(self):
        # PARAMS lists gamma before delta; alphabetical order would not.
        spec = parse_custom_file("[e1,e2] = delta*e3\n[e1,e3] = gamma*e2\n[e2,e3] = 0")
        assert spec.parameters == ("gamma", "delta")

    @pytest.mark.parametrize("text, message", [
        ("[e1,e2] = mu*e1\n[e1,e3] = 0\n[e2,e3] = 0",
         "line 1: reserved name mu: a0 is the perturbation parameter, "
         "and mu, mu1, mu2, mu3 are the soliton unknowns"),
        ("[e1,e2] = e3\n[e1,e3] = 0\n[e2,e3] = 0\nrequire_nonzero alpha\nrequire_zero a0*mu2 - mu3",
         "line 5: reserved name a0, mu2, mu3: a0 is the perturbation parameter, "
         "and mu, mu1, mu2, mu3 are the soliton unknowns"),
    ])
    def test_reserved_names_refused(self, text, message):
        # A structure constant named mu or a0 would merge with the soliton
        # unknown or the perturbation parameter of the same name.
        with pytest.raises(InvalidAlgebra) as exc:
            parse_custom_file(text)
        assert str(exc.value) == message

    def test_duplicate_row(self):
        text = "[e1,e2] = e3\n[e1,e2] = e2\n[e1,e3] = 0\n[e2,e3] = 0"
        with pytest.raises(InvalidAlgebra):
            parse_custom_file(text)
