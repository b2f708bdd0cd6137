from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottsol.scalar import (
    DenominatorZero,
    ParseError,
    Poly,
    RatFun,
    UnboundParameter,
    UnknownParameter,
    parse_poly,
    parse_ratfun,
    parse_vector,
    poly_div_exact,
)


def P(text):
    return parse_poly(text)


class TestPolyArith:
    def test_product_of_conjugates(self):
        assert P("alpha + beta") * P("alpha - beta") == P("alpha^2 - beta^2")

    def test_self_subtraction_is_zero(self):
        p = P("alpha^2 + beta^2")
        assert (p - p).is_zero()

    def test_like_terms_collect(self):
        assert P("alpha*beta") + P("alpha*beta") == P("2*alpha*beta")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownParameter):
            Poly.var("eta")
        with pytest.raises(ParseError):
            parse_poly("epsilon + 1")

    def test_canonical_string(self):
        assert str(P("beta^2 + alpha^2 - mu")) == "alpha^2 + beta^2 - mu"
        assert str(Poly.zero()) == "0"
        assert str(P("beta/2 - 2*alpha")) == "-2*alpha + 1/2*beta"


class TestSubstitute:
    def test_family_style_substitution(self):
        target = P("alpha*gamma").substitute({"gamma": parse_ratfun("beta*(beta^2+delta^2)/delta^2")})
        assert target == parse_ratfun("alpha*beta*(beta^2+delta^2)/delta^2")

    def test_substitution_to_zero(self):
        assert P("mu - beta*gamma").substitute({"mu": 0, "beta": 0}).is_zero()
        assert P("alpha^2 + beta^2").substitute({"alpha": 0, "beta": 0}).is_zero()

    def test_free_parameters_pass_through(self):
        r = P("alpha + mu").substitute({"mu": 0})
        assert r == RatFun.from_poly(P("alpha"))


class TestEval:
    def test_simple(self):
        assert P("alpha^2 + beta^2").eval_at({"alpha": Fraction(1), "beta": Fraction(2)}) == 5

    def test_point_on_constraint_surface(self):
        # alpha*gamma + beta*delta at (1, 2, -2, 1); chosen so the value is 0.
        point = {"alpha": Fraction(1), "gamma": Fraction(-2), "beta": Fraction(2), "delta": Fraction(1)}
        assert P("alpha*gamma + beta*delta").eval_at(point) == 0

    def test_denominator_zero(self):
        with pytest.raises(DenominatorZero):
            parse_ratfun("1/alpha").eval_at({"alpha": Fraction(0)})

    def test_unbound(self):
        with pytest.raises(UnboundParameter):
            P("alpha + beta").eval_at({"alpha": Fraction(1)})


class TestRatFun:
    def test_zero_test_by_numerator(self):
        r = parse_ratfun("(alpha^2 - alpha^2)/delta")
        assert r.is_zero()

    def test_cross_multiplied_equality(self):
        assert parse_ratfun("alpha/beta") == parse_ratfun("alpha*gamma/(beta*gamma)")

    def test_exact_cancellation(self):
        r = parse_ratfun("(alpha*beta + beta^2)/beta")
        assert r.is_poly() and r.as_poly() == P("alpha + beta")

    def test_division_by_zero_expression(self):
        with pytest.raises(DenominatorZero):
            parse_ratfun("alpha/(beta - beta)")


class TestParser:
    def test_vector_rows(self):
        comps = parse_vector("-alpha*e2 - alpha*e3")
        assert comps[0].is_zero()
        assert comps[1] == P("-alpha") and comps[2] == P("-alpha")

    def test_vector_zero(self):
        assert all(c.is_zero() for c in parse_vector("0"))

    def test_eta_substitution(self):
        assert parse_poly("(beta - eta)^2", eta=1) == P("beta^2 - 2*beta + 1")
        assert parse_poly("(beta - eta)^2", eta=-1) == P("beta^2 + 2*beta + 1")
        with pytest.raises(ParseError):
            parse_poly("eta + 1")

    def test_scalar_context_rejects_basis_vectors(self):
        with pytest.raises(ParseError):
            parse_poly("alpha*e1")

    def test_malformed(self):
        for text in ("alpha +", "(alpha", "alpha ^ beta", "e1*e2"):
            with pytest.raises(ParseError):
                parse_vector(text)


def test_poly_div_exact():
    num = P("alpha^2*beta + alpha*beta^2")
    assert poly_div_exact(num, P("alpha*beta")) == P("alpha + beta")
    assert poly_div_exact(num, P("gamma")) is None
    assert poly_div_exact(P("alpha^2 - beta^2"), P("alpha - beta")) == P("alpha + beta")


# -- property tests ----------------------------------------------------------

_names = st.sampled_from(("alpha", "beta", "gamma", "mu1"))
_coeffs = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def polys(draw):
    terms = draw(st.lists(st.tuples(_names, st.integers(0, 2), _coeffs), max_size=4))
    total = Poly.zero()
    for name, power, coeff in terms:
        total = total + Poly.var(name) ** power * Poly.const(coeff)
    return total


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
@settings(max_examples=60, deadline=None)
def test_additive_inverse(p):
    assert (p - p).is_zero()


@given(polys(), _coeffs, _coeffs, _coeffs)
@settings(max_examples=60, deadline=None)
def test_substitute_then_eval_commutes(p, x, y, z):
    bindings = {"alpha": parse_ratfun("beta + 1"), "gamma": parse_ratfun("2*beta")}
    point = {"beta": x, "mu1": y}
    direct_point = dict(point)
    direct_point["alpha"] = x + 1
    direct_point["gamma"] = 2 * x
    assert p.substitute(bindings).eval_at(point) == p.eval_at(direct_point)


@given(polys(), polys(), polys(), _coeffs)
@settings(max_examples=60, deadline=None)
def test_hash_agrees_with_equality(a, b, c, k):
    assert hash(a * (b + c)) == hash(a * b + a * c)
    assert hash(Poly.const(k)) == hash(k)
    assert hash(Poly.const(k.numerator)) == hash(k.numerator)
    with pytest.raises(TypeError):
        hash(RatFun.from_poly(a))


def test_equal_ratfuns_are_unhashable():
    a = parse_ratfun("(alpha*beta + alpha)/(alpha*gamma + alpha)")
    b = parse_ratfun("(beta + 1)/(gamma + 1)")
    assert a == b
    for value in (a, b):
        with pytest.raises(TypeError):
            hash(value)


@given(polys(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_power_is_repeated_product(p, n):
    expected = Poly.const(1)
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected
    assert RatFun.from_poly(p).pow(n) == RatFun.from_poly(expected)


def test_oversized_expression_is_rejected():
    with pytest.raises(ParseError, match="expression too large"):
        parse_poly("(alpha+beta+gamma+1)^60")
    with pytest.raises(ParseError, match="expression too large"):
        parse_vector("(alpha+beta+gamma+1)^60*e3")


def test_large_exponent():
    p = parse_poly("(alpha+beta+gamma+1)^24")
    assert len(p.terms) == 2925
    assert p.terms[(1, 1, 1) + (0,) * 6] == 24 * 23 * 22
