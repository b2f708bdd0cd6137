"""Exact sparse multivariate polynomial and rational-function arithmetic.

Every tensor entry in this package is a polynomial (or a quotient of two
polynomials) over a fixed, closed alphabet of named parameters with
arbitrary-precision rational coefficients:

    PARAMS = (alpha, beta, gamma, delta, a0, mu, mu1, mu2, mu3)

A polynomial is a map from exponent vectors (one non-negative integer per
parameter) to nonzero rational coefficients.  A whole coefficient is stored
as an int and any other as a Fraction with denominator above 1, so the
common integer arithmetic skips Fraction's normalisation; the two types
agree on ==, hash and str.  Every division reads its divisor as a Fraction,
so two ints are never divided into a float.  The empty map is the zero
polynomial.  Because the representation is canonical, symbolic equality is
plain map equality and zero-testing is `not terms`.

Monomials are ordered graded-lexicographically with the parameter order
above, which makes printed forms and golden fixtures byte-stable.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log10
from operator import add
from typing import Iterable, Mapping

PARAMS = ("alpha", "beta", "gamma", "delta", "a0", "mu", "mu1", "mu2", "mu3")
NVARS = len(PARAMS)
_INDEX = {name: i for i, name in enumerate(PARAMS)}
_CONST_EXP = (0,) * NVARS
_ZERO = 0

Exponent = tuple  # length-NVARS tuple of non-negative ints


class ScalarError(Exception):
    """Base class for kernel errors."""


class UnknownParameter(ScalarError):
    """A name outside the closed parameter alphabet was used."""


class UnboundParameter(ScalarError):
    """Numeric evaluation hit a parameter with no value."""


class DenominatorZero(ScalarError):
    """A denominator vanished (numerically or identically)."""


class ParseError(ScalarError):
    """Malformed coefficient expression."""


def _power(base, n: int, one, mul):
    """base^n for a non-negative integer n, by repeated squaring."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _whole(c):
    """A coefficient as stored: an int when it is a whole number."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _grlex_key(exp: Exponent):
    # Sort key so that sorted(..., reverse=True) lists the leading monomial first.
    return (sum(exp), exp)


class Poly:
    """Immutable sparse polynomial over PARAMS with rational coefficients:
    an int where a coefficient is whole, else a Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, int | Fraction] | None = None):
        self.terms = {e: _whole(c) for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def _trusted(terms: dict) -> "Poly":
        """Wrap `terms` as it is: the caller guarantees no zero coefficient
        and hands over the dict, which nothing may change afterwards."""
        p = object.__new__(Poly)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly._trusted({})

    @staticmethod
    def const(value) -> "Poly":
        c = value if type(value) is int else _whole(Fraction(value))
        return Poly._trusted({_CONST_EXP: c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        if name not in _INDEX:
            raise UnknownParameter(f"{name!r} is not in the parameter alphabet {PARAMS}")
        exp = [0] * NVARS
        exp[_INDEX[name]] = 1
        return Poly._trusted({tuple(exp): 1})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
                c = _whole(c)
            out[e] = c
        return Poly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_constant():
            return self.scaled(other.constant_value())
        if self.is_constant():
            return other.scaled(self.constant_value())
        return Poly.dot([(self, other)])

    __rmul__ = __mul__

    @staticmethod
    def dot(plus: Iterable[tuple], minus: Iterable[tuple] = ()) -> "Poly":
        """sum a*b over the (Poly, Poly) pairs (a, b) of `plus`, less the same
        sum over `minus`, accumulated in one exponent -> coefficient dict: no
        product or partial sum is built as a Poly of its own.  A constant
        operand adds no exponents, and a coefficient of +1 or -1 multiplies
        nothing: it only sets the sign of the other operand's coefficients.
        `*` of two non-constants is one pair's dot; `Poly(...)` normalises."""
        out: dict = {}
        get = out.get
        for pairs, positive in ((plus, True), (minus, False)):
            for a, b in pairs:
                if b.is_constant():
                    a, b = b, a
                for e1, c1 in a.terms.items():
                    shift = e1 != _CONST_EXP
                    unit = c1 == 1 or c1 == -1
                    sign = positive == (c1 == 1) if unit else positive
                    for e2, c2 in b.terms.items():
                        e = tuple(map(add, e1, e2)) if shift else e2
                        c = c2 if unit else c1 * c2
                        old = get(e)
                        if old is None:
                            out[e] = c if sign else -c
                        else:
                            out[e] = old + c if sign else old - c
        return Poly(out)

    def __eq__(self, other) -> bool:
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A constant equals its number, so it hashes like that number.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __divmod__(self, other) -> tuple:
        """(q, 0) with self == q*other where poly_div_exact finds q, else (0, self)."""
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = poly_div_exact(self, other)
        return (0, self) if q is None else (q, 0)

    def is_constant(self) -> bool:
        # Terms are never zero, so a constant has at most the one term at _CONST_EXP.
        return not self.terms or (len(self.terms) == 1 and _CONST_EXP in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError("not a constant polynomial")
        return self.terms[_CONST_EXP] if self.terms else _ZERO

    def params(self) -> set:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(PARAMS[i])
        return used

    def degree_in(self, names: Iterable[str]) -> int:
        """Maximum joint degree of the given parameters over all terms."""
        idx = [_INDEX[n] for n in names]
        if not self.terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self.terms)

    def leading(self) -> tuple:
        """(exponent, coefficient) of the grlex-leading term; zero poly -> ((0,..),0)."""
        if not self.terms:
            return (_CONST_EXP, _ZERO)
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def scaled(self, factor) -> "Poly":
        """self * factor for an int or Fraction factor."""
        if factor == 1:
            return self
        if not factor:
            return Poly._trusted({})
        factor = _whole(factor)
        return Poly._trusted({e: _whole(c * factor) for e, c in self.terms.items()})

    def primitive(self) -> "Poly":
        """self over its content (the numerators' gcd over the denominators'
        lcm, both ints), with a positive leading coefficient."""
        if not self.terms:
            return self
        n = gcd(*(c.numerator for c in self.terms.values()))
        d = lcm(*(c.denominator for c in self.terms.values()))
        if self.leading()[1] < 0:
            n = -n
        if d != 1:
            return self.scaled(Fraction(d, n))
        # A denominator lcm of 1 means every coefficient is an int.
        return self if n == 1 else Poly._trusted({e: c // n for e, c in self.terms.items()})

    def coefficient_of(self, name: str) -> "Poly":
        """Coefficient of the degree-1 part in `name` (the rest of each term)."""
        i = _INDEX[name]
        # Distinct degree-1 terms have distinct rests, so no key is seen twice.
        out = {}
        for e, c in self.terms.items():
            if e[i] == 1:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return Poly._trusted(out)

    def drop(self, names: Iterable[str]) -> "Poly":
        """Terms of self free of all the given parameters."""
        idx = [_INDEX[n] for n in names]
        return Poly({e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)})

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, bindings: Mapping[str, "RatFun | Poly | int | Fraction"]) -> "RatFun":
        """Simultaneous substitution; unbound parameters pass through.

        Each term's unbound part stays one polynomial term; only the bound
        values are multiplied in, in parameter order.  When every bound value
        has the denominator 1, as `RatFun.make` and `RatFun.coerce` give each
        polynomial value, each term is its unbound part times the powers of
        the bound numerators, and the terms are summed by one `dot`.  Any
        other bound value sends every term through RatFun arithmetic."""
        binds = {}
        for name, value in bindings.items():
            if name not in _INDEX:
                raise UnknownParameter(f"{name!r} is not in the parameter alphabet {PARAMS}")
            binds[_INDEX[name]] = RatFun.coerce(value)
        polynomial = all(value.den == _ONE for value in binds.values())
        pairs, total = [], RatFun.coerce(0)
        for e, c in self.terms.items():
            free = tuple(0 if i in binds else k for i, k in enumerate(e))
            if polynomial:
                product = _ONE
                for i, k in enumerate(e):
                    if k and i in binds:
                        product = product * _power(binds[i].num, k, _ONE, Poly.__mul__)
                pairs.append((Poly._trusted({free: c}), product))
                continue
            term = RatFun.coerce(Poly._trusted({free: c}))
            for i, k in enumerate(e):
                if k and i in binds:
                    term = term * binds[i].pow(k)
            total = total + term
        return RatFun(Poly.dot(pairs), _ONE) if polynomial else total

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a point that binds every parameter of self; other
        keys of `point` are ignored."""
        missing = self.params().difference(point)
        if missing:
            raise UnboundParameter(f"no value for {sorted(missing)}")
        num, den = 0, 1  # the sum so far, unreduced
        for e, c in self.terms.items():
            n, d = c.numerator, c.denominator
            for name, k in zip(PARAMS, e):
                if k:
                    v = point[name]
                    n *= v.numerator ** k
                    d *= v.denominator ** k
            num, den = num * d + n * den, den * d
        return Fraction(num, den)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            magnitude = abs(c)
            mono = "*".join(
                PARAMS[i] if k == 1 else f"{PARAMS[i]}^{k}"
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                body = str(magnitude)
            elif magnitude == 1:
                body = mono
            else:
                body = f"{magnitude}*{mono}"
            sign = "-" if c.numerator < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_div_exact(num: Poly, den: Poly) -> Poly | None:
    """Return q with num == q*den, or None when den does not divide num."""
    if den.is_zero():
        return None
    if den.is_constant():
        return num.scaled(1 / Fraction(den.constant_value()))
    lead_e, lead_c = den.leading()
    q: dict = {}
    rest = num
    while not rest.is_zero():
        e, c = rest.leading()
        qe = tuple(a - b for a, b in zip(e, lead_e))
        if any(k < 0 for k in qe):
            return None
        qc = Fraction(c) / lead_c
        q[qe] = qc  # quotient exponents strictly fall in grlex order
        rest = rest - Poly({qe: qc}) * den
    return Poly(q)


_ONE = Poly.const(1)


@dataclass(frozen=True)
class RatFun:
    """Quotient of two Polys, normalized enough that zero-testing is exact.

    Normalization: nonzero denominator, monic denominator (grlex leading
    coefficient 1), and syntactic cancellation when one side exactly divides
    the other, so a polynomial value has the denominator 1.  Every operation
    normalizes its result through `make`.  Equality is decided by
    cross-multiplication, so the missing full multivariate gcd never affects
    correctness.
    """

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFun":
        """num/den normalised; `poly_div_exact` divides out a constant den."""
        if den.is_zero():
            raise DenominatorZero("identically zero denominator")
        if num.is_zero():
            return RatFun(num, _ONE)
        q = poly_div_exact(num, den)
        if q is not None:
            return RatFun(q, _ONE)
        q = poly_div_exact(den, num)
        if q is not None:
            num, den = _ONE, q
        inverse = 1 / Fraction(den.leading()[1])
        return RatFun(num.scaled(inverse), den.scaled(inverse))

    @staticmethod
    def coerce(value) -> "RatFun":
        if isinstance(value, RatFun):
            return value
        if isinstance(value, (int, Fraction)):
            value = Poly.const(value)
        if isinstance(value, Poly):
            return RatFun(value, _ONE)
        raise TypeError(f"cannot interpret {value!r} as a rational function")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ScalarError(f"{self} is not polynomial")
        return poly_div_exact(self.num, self.den)

    def __add__(self, other) -> "RatFun":
        other = RatFun.coerce(other)
        return RatFun.make(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __mul__(self, other) -> "RatFun":
        other = RatFun.coerce(other)
        return RatFun.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = RatFun.coerce(other)
        if other.num.is_zero():
            raise DenominatorZero("division by the zero rational function")
        return RatFun.make(self.num * other.den, self.den * other.num)

    def pow(self, n: int) -> "RatFun":
        if n < 0:
            raise ValueError("use explicit division for negative powers")
        return _power(self, n, RatFun.coerce(1), RatFun.__mul__)

    def __eq__(self, other) -> bool:
        try:
            other = RatFun.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        # Equal values need not share a (num, den) pair: there is no
        # multivariate gcd, so no hash can agree with ==.
        raise TypeError("RatFun is unhashable")

    def substitute(self, bindings: Mapping[str, "RatFun | Poly | int | Fraction"]) -> "RatFun":
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise DenominatorZero(f"substitution makes the denominator of {self} vanish")
        return self.num.substitute(bindings) / den

    def params(self) -> set:
        return self.num.params() | self.den.params()

    def __str__(self) -> str:
        if self.is_poly():
            return str(self.as_poly())
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        # After '/', a product must be bracketed too: a/b*c reads as (a/b)*c.
        if len(self.den.terms) > 1 or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RatFun({self})"


# --------------------------------------------------------------------------
# Expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' uint)?
#   atom   := name | uint | '(' expr ')'
#
# Names are the nine parameters; 'eta' is admitted only when a numeric value
# for it is supplied (it is substituted during parsing, so it never reaches a
# Poly); e1/e2/e3 are admitted only through parse_vector.
#
# _TOKEN splits text into operators, ASCII digit runs, names and single
# other characters, skipping white space.  Each token must be an operator or
# start with an ASCII digit, a letter or '_', which also refuses '²', '½' and
# 'Ⅻ': [^\W\d] admits them, but they are neither digits nor letters.
# --------------------------------------------------------------------------

_BASIS = ("e1", "e2", "e3")

# Largest product the parser expands: the operands' term counts (numerator
# plus denominator, over all basis components) multiplied together.
MAX_PRODUCT_TERMS = 200_000

_TOKEN = re.compile(r"[+\-*/^()]|[0-9]+|[^\W\d]\w*|\S")


def _uint(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"integer literal of {len(tok)} digits is too long") from None


def _height(poly: Poly) -> int:
    """The larger of d, the lcm of the coefficients' denominators, and the
    sum of |coefficient| * d: no coefficient of poly^n has a numerator or
    denominator above height^n."""
    d = lcm(*(c.denominator for c in poly.terms.values()))
    return max(d, sum(abs(c.numerator) * (d // c.denominator) for c in poly.terms.values()))


def _parts(c) -> tuple:
    """(numerator, denominator) of a parsed Poly or RatFun."""
    return (c.num, c.den) if isinstance(c, RatFun) else (c, _ONE)


def _size(value) -> int:
    return sum(len(num.terms) + len(den.terms) for num, den in map(_parts, value.values()))


class _ExprParser:
    """Parses into polynomials over PARAMS extended by e1,e2,e3 tracked separately.

    A value maps 0 to the scalar part and k to the coefficient of e_k.  Each
    coefficient is a Poly; only a division by a non-constant scalar makes a
    RatFun.  Products may not exceed total basis degree 1, which is exactly
    what connection/curvature table rows need.
    """

    def __init__(self, text: str, eta=None, vector=False):
        self.toks = _TOKEN.findall(text)
        for tok in self.toks:
            ch = tok[0]
            if not (ch in "+-*/^()" or "0" <= ch <= "9" or ch.isalpha() or ch == "_"):
                raise ParseError(f"unexpected character {ch!r} in {text!r}")
        self.toks.append(None)  # the end marker peek() returns
        self.pos = 0
        self.eta = None if eta is None else Fraction(eta)
        self.vector = vector

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        try:
            value = self._expr()
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return value

    def _expr(self):
        value = self._term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self._term()
            value = self._combine(value, rhs, 1 if op == "+" else -1)
        return value

    @staticmethod
    def _combine(a, b, sign):
        out = dict(a)
        for k, c in b.items():
            c = c if sign > 0 else -c
            out[k] = out[k] + c if k in out else c
        return {k: c for k, c in out.items() if not c.is_zero()}

    def _term(self):
        value = self._factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self._factor()
            value = self._mul(value, rhs, invert=(op == "/"))
        return value

    def _mul(self, a, b, invert=False):
        if _size(a) * _size(b) > MAX_PRODUCT_TERMS:
            raise ParseError("expression too large")
        if invert:
            if list(b) not in ([], [0]):
                raise ParseError("division by a vector expression")
            scalar = b.get(0, Poly.zero())
            if scalar.is_zero():
                raise DenominatorZero("division by zero in expression")
            if isinstance(scalar, Poly) and scalar.is_constant():
                return {k: c * (1 / Fraction(scalar.constant_value())) for k, c in a.items()}
            return {k: RatFun.coerce(c) / scalar for k, c in a.items()}
        # Two products share a key only when both operands have a basis
        # part, and then a product of two basis vectors raises first.
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                if k1 and k2:
                    raise ParseError("product of basis vectors is not a vector")
                out[k1 or k2] = c1 * c2
        # The literal 0 parses to a zero Poly, so a product can be zero.
        return {k: c for k, c in out.items() if not c.is_zero()}

    def _factor(self):
        if self.peek() == "-":
            self.next()
            inner = self._factor()
            return {k: -c for k, c in inner.items()}
        value = self._atom()
        if self.peek() == "^":
            self.next()
            exp_tok = self.next()
            if not exp_tok.isdigit():
                raise ParseError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            n = _uint(exp_tok)
            height = max((_height(num) * _height(den) for num, den in map(_parts, value.values())),
                         default=1)
            limit = sys.get_int_max_str_digits()  # the digit limit _uint meets on literals
            if limit and height > 1 and n > limit / log10(height):
                raise ParseError("expression too large")
            return _power(value, n, {0: _ONE}, self._mul)
        return value

    def _atom(self):
        tok = self.next()
        if tok == "(":
            inner = self._expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if tok.isdigit():
            return {0: Poly.const(_uint(tok))}
        if tok in _BASIS:
            if not self.vector:
                raise ParseError(f"basis vector {tok} not allowed in a scalar expression")
            return {_BASIS.index(tok) + 1: _ONE}
        if tok == "eta":
            if self.eta is None:
                raise ParseError("eta is only meaningful with an explicit sign (+1 or -1)")
            return {0: Poly.const(self.eta)}
        if tok in _INDEX:
            return {0: Poly.var(tok)}
        raise ParseError(f"unknown name {tok!r}")


def _as_poly(value) -> Poly | None:
    """A parsed coefficient as a Poly; None for a true quotient."""
    if isinstance(value, Poly):
        return value
    return value.as_poly() if value.is_poly() else None


def parse_ratfun(text: str, eta=None) -> RatFun:
    value = _ExprParser(text, eta=eta).parse()
    return RatFun.coerce(value.get(0, Poly.zero()))


def parse_poly(text: str, eta=None) -> Poly:
    value = _ExprParser(text, eta=eta).parse().get(0, Poly.zero())
    poly = _as_poly(value)
    if poly is None:
        raise ParseError(f"{text!r} is not polynomial (denominator {value.den})")
    return poly


def parse_vector(text: str, eta=None) -> tuple:
    """Parse 'a*e1 + b*e2 + c*e3' into a triple of Polys."""
    value = _ExprParser(text, eta=eta, vector=True).parse()
    if not value.get(0, Poly.zero()).is_zero():
        raise ParseError(f"{text!r} has a scalar part; vector rows must be pure vectors")
    comps = []
    for k in (1, 2, 3):
        poly = _as_poly(value.get(k, Poly.zero()))
        if poly is None:
            raise ParseError(f"component {k} of {text!r} is not polynomial")
        comps.append(poly)
    return tuple(comps)
