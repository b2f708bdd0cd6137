import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bottsol import scalar
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
from helpers import power, ratfun_eval_at, reference_tokens


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
        assert r == RatFun.coerce(P("alpha"))

    def test_unbound_parameters_stay_polynomial(self, monkeypatch):
        """Each term's unbound part is kept as one polynomial term: with a
        quotient bound, only the sum of the three terms goes through
        RatFun.make, and with polynomial bindings nothing does."""
        p = P("alpha^4*beta^3*gamma*mu1 + delta^2*mu1 - 3")
        quotient = parse_ratfun("1/mu")
        calls = []
        make = RatFun.make

        def counted(num, den):
            calls.append(1)
            return make(num, den)

        monkeypatch.setattr(RatFun, "make", staticmethod(counted))
        r = p.substitute({"a0": quotient})
        assert r.den == Poly.const(1) and r.num == p
        assert len(calls) == 3
        calls.clear()
        r = p.substitute({})
        assert r.den == Poly.const(1) and r.num == p
        assert not calls


class TestEval:
    def test_simple(self):
        assert P("alpha^2 + beta^2").eval_at({"alpha": Fraction(1), "beta": Fraction(2)}) == 5

    def test_point_on_constraint_surface(self):
        # alpha*gamma + beta*delta at (1, 2, -2, 1); chosen so the value is 0.
        point = {"alpha": Fraction(1), "gamma": Fraction(-2), "beta": Fraction(2), "delta": Fraction(1)}
        assert P("alpha*gamma + beta*delta").eval_at(point) == 0

    def test_denominator_zero(self):
        with pytest.raises(DenominatorZero):
            ratfun_eval_at(parse_ratfun("1/alpha"), {"alpha": Fraction(0)})

    def test_unbound(self):
        with pytest.raises(UnboundParameter):
            P("alpha + beta").eval_at({"alpha": Fraction(1)})
        # The same message after an evaluation that succeeded.
        p = P("alpha*beta + gamma")
        assert p.eval_at({"alpha": Fraction(1), "beta": Fraction(2), "gamma": Fraction(3)}) == 5
        with pytest.raises(UnboundParameter, match=r"^no value for \['beta', 'gamma'\]$"):
            p.eval_at({"alpha": Fraction(1)})

    def test_keys_outside_the_alphabet_are_ignored(self):
        p = P("alpha*beta + gamma")
        point = {"alpha": Fraction(1), "beta": Fraction(2), "gamma": Fraction(3), "eta": 7, "x": 0}
        assert p.eval_at(point) == 5
        with pytest.raises(UnboundParameter, match=r"^no value for \['beta', 'gamma'\]$"):
            p.eval_at({"alpha": Fraction(1), "eta": 7, "x": 0})


class TestRatFun:
    def test_zero_test_by_numerator(self):
        r = parse_ratfun("(alpha^2 - alpha^2)/delta")
        assert r.is_zero()

    def test_one_term_numerator_is_not_bracketed(self):
        assert str(parse_ratfun("alpha/beta")) == "alpha/beta"

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

    def test_exact_quotient_is_polynomial(self):
        assert parse_poly("(alpha*beta + beta^2)/beta") == P("alpha + beta")
        assert parse_vector("(alpha*beta + beta^2)/beta*e1") == (P("alpha + beta"), Poly.zero(),
                                                                 Poly.zero())
        with pytest.raises(ParseError, match=r"^'alpha/beta' is not polynomial \(denominator beta\)$"):
            parse_poly("alpha/beta")
        with pytest.raises(ParseError, match=r"^component 1 of 'alpha/beta\*e1' is not polynomial$"):
            parse_vector("alpha/beta*e1")


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
    """Up to four terms, each a coefficient times up to two parameter powers."""
    terms = draw(st.lists(
        st.tuples(st.lists(st.tuples(_names, st.integers(0, 2)), max_size=2), _coeffs),
        max_size=4,
    ))
    total = Poly.zero()
    for powers, coeff in terms:
        term = Poly.const(coeff)
        for name, exponent in powers:
            term = term * power(Poly.var(name), exponent)
        total = total + term
    return total


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_truth_and_divmod_follow_exact_division(a, b):
    """A Poly is true exactly when it is nonzero, and divmod(a, b) is (q, r)
    with a == q*b + r, r zero exactly when poly_div_exact divides: the
    elimination loop tests and checks Polys as it does ints."""
    assert bool(a) == (not a.is_zero())
    assume(not b.is_zero())
    q, r = divmod(a, b)
    assert a == q * b + r
    assert (not r) == (poly_div_exact(a, b) is not None)
    assert divmod(a * b, b) == (a, 0)


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
    assert ratfun_eval_at(p.substitute(bindings), point) == p.eval_at(direct_point)


@given(polys(), polys(), polys(), _coeffs)
@settings(max_examples=60, deadline=None)
def test_hash_agrees_with_equality(a, b, c, k):
    assert hash(a * (b + c)) == hash(a * b + a * c)
    assert hash(Poly.const(k)) == hash(k)
    assert hash(Poly.const(k.numerator)) == hash(k.numerator)
    with pytest.raises(TypeError):
        hash(RatFun.coerce(a))


@given(polys(), polys(), _coeffs, _coeffs, _coeffs, _coeffs)
@settings(max_examples=60, deadline=None)
def test_evaluated_poly_keeps_its_contract(p, q, a, b, c, m):
    """Evaluating a polynomial leaves it unchanged: it still equals and
    hashes like a fresh copy, and values derived from it afterwards
    evaluate to what arithmetic on the values gives."""
    point = {"alpha": a, "beta": b, "gamma": c, "mu1": m}
    value = p.eval_at(point)
    fresh = Poly(dict(p.terms))
    assert p == fresh and hash(p) == hash(fresh)
    assert p.eval_at(point) == fresh.eval_at(point) == value
    assert (p + 1).eval_at(point) == value + 1
    assert (-p).eval_at(point) == -value
    assert p.scaled(3).eval_at(point) == 3 * value
    assert (p * q).eval_at(point) == value * q.eval_at(point)


def test_equal_ratfuns_are_unhashable():
    a = parse_ratfun("(alpha*beta + alpha)/(alpha*gamma + alpha)")
    b = parse_ratfun("(beta + 1)/(gamma + 1)")
    assert a == b
    for value in (a, b):
        with pytest.raises(TypeError):
            hash(value)


def test_size_counts_numerator_and_denominator_terms():
    """A polynomial counts its denominator 1 as one term."""
    value = {0: parse_ratfun("alpha/(beta + gamma)"), 1: P("alpha - 1")}
    assert scalar._size(value) == 6


def test_product_exactly_at_the_bound_is_expanded(monkeypatch):
    """The operands' sizes, 2 + 1 and 3 + 1 with their denominators 1,
    multiply to the bound itself."""
    monkeypatch.setattr(scalar, "MAX_PRODUCT_TERMS", 12)
    assert parse_poly("(alpha + beta)*(alpha + beta + gamma)") == P(
        "alpha^2 + 2*alpha*beta + alpha*gamma + beta^2 + beta*gamma")
    with pytest.raises(ParseError, match="expression too large"):
        parse_poly("(alpha + beta)*(alpha + beta + gamma + delta)")


def test_power_exactly_at_the_digit_limit_is_expanded():
    """For the base 10, of height 10, the bound n > limit / log10(height)
    falls exactly at n = limit: 10^limit is expanded, 10^(limit + 1) refused."""
    limit = sys.get_int_max_str_digits()
    assert parse_poly(f"10^{limit}") == Poly.const(10 ** limit)
    with pytest.raises(ParseError, match="expression too large"):
        parse_poly(f"10^{limit + 1}")


def test_oversized_expression_is_rejected():
    with pytest.raises(ParseError, match="expression too large"):
        parse_poly("(alpha+beta+gamma+1)^60")
    with pytest.raises(ParseError, match="expression too large"):
        parse_vector("(alpha+beta+gamma+1)^60*e3")


@pytest.mark.parametrize("text", ["2^10000000", "(2*alpha)^100000"])
def test_power_past_the_digit_limit_is_refused_before_expanding(text):
    started = time.perf_counter()
    with pytest.raises(ParseError, match="expression too large"):
        parse_poly(text)
    assert time.perf_counter() - started < 0.1


def test_power_up_to_the_digit_limit_is_exact():
    assert parse_poly("2^14000") == Poly.const(2 ** 14000)  # 4,215 digits
    assert parse_poly("(1/3)^9000") == Poly.const(Fraction(1, 3 ** 9000))  # 4,295 digits
    big = 10 ** 400  # past the range of a float, in the base of a power
    assert parse_poly(f"({big}*alpha + 1/3)^2") == parse_poly(
        f"{big ** 2}*alpha^2 + {2 * big}/3*alpha + 1/9")


def test_large_exponent():
    p = parse_poly("(alpha+beta+gamma+1)^24")
    assert len(p.terms) == 2925
    assert p.terms[(1, 1, 1) + (0,) * 6] == 24 * 23 * 22


# -- kernel normal form --------------------------------------------------------
#
# Each RatFun operation is RatFun.make on the unreduced sum, product or
# quotient: it must give exactly make's pair (num, den), for polynomial values
# (denominator 1) and true quotients alike.

_nonzero_coeffs = _coeffs.filter(bool)


@st.composite
def ratfuns(draw, normalised=True):
    """Polynomial values, values over a nonzero constant, and true quotients;
    with normalised=False, also pairs built directly, as make never leaves them."""
    num = draw(polys())
    den = draw(st.one_of(
        st.just(Poly.const(1)),
        _nonzero_coeffs.map(Poly.const),
        polys().filter(lambda p: not p.is_constant()),
    ))
    if normalised or draw(st.booleans()):
        return RatFun.make(num, den)
    return RatFun(num, den)


def _same_form(r, s):
    return r.num.terms == s.num.terms and r.den.terms == s.den.terms and str(r) == str(s)


def _no_stored_zero(p):
    """No stored coefficient is zero, and each is an int where it is whole
    and a Fraction otherwise: never a float, nor a whole Fraction."""
    return all(c != 0 and (type(c) is int or type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


@given(ratfuns(normalised=False), ratfuns(normalised=False), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_ratfun_arithmetic_matches_make(a, b, n):
    assert _same_form(a + b, RatFun.make(a.num * b.den + b.num * a.den, a.den * b.den))
    assert _same_form(a * b, RatFun.make(a.num * b.num, a.den * b.den))
    if not b.is_zero():
        assert _same_form(a / b, RatFun.make(a.num * b.den, a.den * b.num))
    assert _same_form(a.pow(n), RatFun.make(power(a.num, n), power(a.den, n)))
    for r in (a + b, a * b, a.pow(n)):
        assert _no_stored_zero(r.num) and _no_stored_zero(r.den)


def _schoolbook_product(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(polys(), polys(), _coeffs)
@settings(max_examples=150, deadline=None)
def test_no_stored_zero_coefficient(p, q, k):
    results = (
        p + (-p), p - p, p.scaled(0), p * 0, p * Poly.zero(), p.scaled(k), p * k, k * p,
        p * Poly.const(k), -p, p + q, p - q, p * q, (p + q) * (p - q) - (p * p - q * q),
        p.primitive(), Poly(p.terms), Poly({e: Fraction(c) for e, c in p.terms.items()}),
    )
    for r in results:
        assert _no_stored_zero(r)
        assert r.is_constant() == all(sum(e) == 0 for e in r.terms)
    assert (p * q).terms == _schoolbook_product(p, q)
    assert (p * Poly.const(k)).terms == _schoolbook_product(p, Poly.const(k))
    assert p.scaled(1) is p


_operands = st.one_of(
    polys(), _coeffs.map(Poly.const), st.sampled_from((Poly.zero(), Poly.const(1), Poly.const(-1)))
)
_pair_lists = st.lists(st.tuples(_operands, _operands), max_size=5)


@given(_pair_lists, _pair_lists, st.lists(st.booleans(), max_size=5))
@settings(max_examples=150, deadline=None)
@example([(Poly.var("alpha"), Poly.var("beta"))], [], [True])
def test_dot_is_the_sum_of_products(plus, minus, cancel):
    """Poly.dot equals the sum built by + and - of schoolbook products (not
    by *, which is itself a dot); pairs of `plus` repeated in `minus`,
    swapped, make sums that cancel, down to the zero polynomial."""
    minus = minus + [(b, a) for (a, b), repeat in zip(plus, cancel) if repeat]
    expected = Poly.zero()
    for a, b in plus:
        expected = expected + Poly(_schoolbook_product(a, b))
    for a, b in minus:
        expected = expected - Poly(_schoolbook_product(a, b))
    for got, want in ((Poly.dot(plus, minus), expected), (Poly.dot(minus, plus), -expected),
                      (Poly.dot(iter(plus)), Poly.dot(plus, ()))):
        assert got.terms == want.terms
        assert _no_stored_zero(got)


@given(polys())
@settings(max_examples=150, deadline=None)
def test_primitive_contract(p):
    """primitive() has int coefficients with gcd 1 and a positive leading
    coefficient, is p times a nonzero rational, and returns a primitive
    polynomial itself."""
    q = p.primitive()
    assert q.primitive() is q
    if p.is_zero():
        assert q is p
        return
    assert all(type(c) is int for c in q.terms.values())
    assert gcd(*q.terms.values()) == 1 and q.leading()[1] > 0
    ratio = Fraction(q.leading()[1]) / p.leading()[1]
    assert ratio and q.terms == {e: c * ratio for e, c in p.terms.items()}


def test_whole_coefficients_are_ints():
    """A whole coefficient is stored as an int, however it was reached, and a
    division never leaves a float."""
    alpha = Poly.var("alpha")
    assert parse_poly("4/2*alpha").terms == {alpha.leading()[0]: 2}
    assert type(parse_poly("4/2*alpha").leading()[1]) is int
    assert type(Poly.const(Fraction(4, 2)).constant_value()) is int
    assert Poly.const(Fraction(4, 2)).terms == {(0,) * scalar.NVARS: 2}
    p = P("6*alpha + 4").primitive()
    assert p == P("3*alpha + 2") and _no_stored_zero(p)
    halved = RatFun.make(P("3*alpha + 4"), Poly.const(2))
    assert halved.num == P("3/2*alpha + 2") and _no_stored_zero(halved.num)
    quotient = poly_div_exact(P("2*alpha^2"), P("2*alpha"))
    assert quotient == alpha and _no_stored_zero(quotient)
    third = poly_div_exact(P("alpha"), P("3*alpha"))
    assert third == Poly.const(Fraction(1, 3)) and _no_stored_zero(third)
    quarter = RatFun(P("2*alpha"), Poly.const(4)).as_poly()
    assert quarter == P("alpha/2") and _no_stored_zero(quarter)
    half = parse_ratfun("(2*alpha + 2)/(4*alpha + 4)")
    assert half == Fraction(1, 2) and _no_stored_zero(half.num)


def test_dot_signs_and_constants():
    a, b = Poly.var("alpha"), Poly.var("beta")
    two, half = Poly.const(2), Poly.const(Fraction(1, 2))
    assert Poly.dot([(a, b), (b, a)], [(a * b, two)]).is_zero()
    assert Poly.dot([], [(a, two), (Poly.const(3), a), (-a, Poly.const(-1))]) == a.scaled(-6)
    minus_one = Poly.const(-1)
    assert Poly.dot([(minus_one, a), (a, half)], [(b, minus_one)]) == b + a.scaled(Fraction(-1, 2))
    assert Poly.dot([(two, half)], [(Poly.const(1), Poly.const(1))]).is_zero()


@given(polys(), polys(), polys())
@settings(max_examples=80, deadline=None)
def test_polynomial_bindings_substitute_like_the_ratfun_route(p, x, y):
    """With every bound value a polynomial, substitute sums in Poly; binding
    a quotient as well, to a name p does not use, takes the RatFun route,
    and both give the same form."""
    bindings = {"alpha": x, "mu1": parse_ratfun(str(y))}
    fast = p.substitute(bindings)
    slow = p.substitute({**bindings, "a0": RatFun.make(Poly.const(1), Poly.var("delta"))})
    assert _same_form(fast, slow)
    assert fast.den == Poly.const(1) and _no_stored_zero(fast.num)
    expected = Poly.zero()
    for e, c in p.terms.items():
        free = tuple(0 if name in ("alpha", "mu1") else k for name, k in zip(scalar.PARAMS, e))
        term = Poly({free: c}) * power(x, e[scalar.PARAMS.index("alpha")])
        expected = expected + term * power(y, e[scalar.PARAMS.index("mu1")])
    assert fast.num.terms == expected.terms


def test_only_a_denominator_of_1_takes_the_polynomial_route(monkeypatch):
    """A pair built directly with a constant denominator other than 1 takes
    the RatFun route and substitutes exactly; values that make and coerce
    give, with the denominator 1, take the Poly route, which calls no make."""
    p = P("alpha^2*beta + 3*alpha - mu1")
    quarter = RatFun(P("2*beta"), Poly.const(4))
    assert p.substitute({"alpha": quarter}) == p.substitute({"alpha": P("beta/2")})
    assert p.substitute({"alpha": quarter}).num == P("1/4*beta^3 + 3/2*beta - mu1")
    made = []
    make = RatFun.make
    monkeypatch.setattr(RatFun, "make", lambda num, den: made.append(1) or make(num, den))
    plain = p.substitute({"alpha": RatFun.make(P("2*beta"), Poly.const(4)), "mu1": 2})
    assert plain.num == P("1/4*beta^3 + 3/2*beta - 2") and plain.den == Poly.const(1)
    assert len(made) == 1  # the make that built the bound value


def test_zero_polynomial_values_share_one_zero():
    zero = Poly.zero()
    assert zero.constant_value() == 0 and zero.leading() == ((0,) * scalar.NVARS, 0)
    assert zero.constant_value() is Poly.zero().constant_value() is zero.leading()[1]


# -- printing and parsing --------------------------------------------------------


@given(polys())
@settings(max_examples=100, deadline=None)
def test_poly_round_trip(p):
    assert parse_poly(str(p)) == p


@given(ratfuns())
@settings(max_examples=100, deadline=None)
@example(RatFun.make(Poly.var("alpha"), Poly.var("beta") * Poly.var("gamma")))
def test_ratfun_round_trip(r):
    back = parse_ratfun(str(r))
    assert back == r
    assert str(back) == str(r)


_FUZZ_TOKENS = (
    "alpha", "beta", "mu1", "eta", "e1", "e2", "e3", "delta_", "0", "1", "2", "12",
    "+", "-", "*", "/", "^", "(", ")", "%", "²",
)


def _parse_all_ways(text, eta):
    for parse in (parse_poly, parse_ratfun, parse_vector):
        try:
            value = parse(text, eta=eta)
        except (ParseError, DenominatorZero):
            continue
        assert isinstance(value, (Poly, RatFun, tuple))


@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14), st.sampled_from((None, 1, -1)))
@settings(max_examples=400, deadline=None)
def test_parser_fuzz_tokens(tokens, eta):
    """Grammar-shaped input: tokens are space-separated, so numbers stay short."""
    _parse_all_ways(" ".join(tokens), eta)


@given(st.text(max_size=24), st.sampled_from((None, 1)))
@settings(max_examples=200, deadline=None)
@example("²", None)
@example("alpha^²", None)
@example("1" * 5000, None)
def test_parser_fuzz_text(text, eta):
    _parse_all_ways(text, eta)


# -- the scanner -------------------------------------------------------------------


def _scanned(scan, text):
    """The tokens of text, or the message of the ParseError that refuses it."""
    try:
        return scan(text)
    except ParseError as exc:
        return str(exc)


def _parser_tokens(text):
    toks = scalar._ExprParser(text).toks
    assert toks[-1] is None  # the end marker
    return toks[:-1]


# Digits, letters and spaces outside ASCII, and ASCII literals at both ends
# of the digit range.
_SCAN_CHARS = ("²", "½", "Ⅻ", "٣", "\u0301", "\u00a0", "\u3000", "\u200b", "é", "α", "_", "%",
               "0", "9", "07", "90")


@pytest.mark.parametrize("ch", _SCAN_CHARS)
def test_scanner_matches_the_character_loop(ch):
    for text in (ch, "a" + ch, ch + "a", "1" + ch):
        assert _scanned(_parser_tokens, text) == _scanned(reference_tokens, text)


@given(st.text(max_size=24))
@settings(max_examples=300, deadline=None)
def test_scanner_matches_the_character_loop_on_any_text(text):
    assert _scanned(_parser_tokens, text) == _scanned(reference_tokens, text)
