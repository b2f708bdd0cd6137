"""Three-dimensional Lorentzian Lie algebras in a pseudo-orthonormal frame.

The frame is e1, e2, e3 with metric diag(+1, +1, -1); e3 is the timelike
direction.  A LieAlgebraSpec stores structure constants c[i][j][k] meaning
[e_i, e_j] = sum_k c[i][j][k] e_k, together with the admissibility
constraints of the catalog entry it came from.  Constraints are carried as
data only: symbolic results are never reduced by them, so computed tables
stay literally comparable with the reference tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .scalar import MAX_PRODUCT_TERMS, PARAMS, Poly, ScalarError, parse_poly, parse_vector

METRIC_SIGNS = (1, 1, -1)

GROUPS = ("G1", "G2", "G3", "G4", "G5", "G6", "G7")


class UnknownId(Exception):
    """Catalog lookup with an identifier outside G1..G7."""


class InvalidAlgebra(Exception):
    """A custom structure-constant table failed validation."""


@dataclass(frozen=True)
class Vec3:
    """Vector in the frame: components along (e1, e2, e3)."""

    c: tuple

    @staticmethod
    def zero() -> "Vec3":
        return Vec3((Poly.zero(), Poly.zero(), Poly.zero()))

    @staticmethod
    def basis(i: int) -> "Vec3":
        comps = [Poly.zero(), Poly.zero(), Poly.zero()]
        comps[i - 1] = Poly.const(1)
        return Vec3(tuple(comps))

    @staticmethod
    def of(c1, c2, c3) -> "Vec3":
        conv = lambda x: x if isinstance(x, Poly) else Poly.const(x)
        return Vec3((conv(c1), conv(c2), conv(c3)))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(tuple(a + b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "Vec3":
        return Vec3(tuple(-a for a in self.c))

    def scale(self, factor) -> "Vec3":
        f = factor if isinstance(factor, Poly) else Poly.const(factor)
        return Vec3(tuple(f * a for a in self.c))

    def is_zero(self) -> bool:
        return all(comp.is_zero() for comp in self.c)

    def __str__(self) -> str:
        pieces = []
        for k, comp in enumerate(self.c, start=1):
            if comp.is_zero():
                continue
            body = str(comp)
            if body in ("1", "-1"):
                pieces.append(body[:-1] + f"e{k}")
            elif len(comp.terms) == 1:
                pieces.append(f"{body}*e{k}")
            else:
                pieces.append(f"({body})*e{k}")
        if not pieces:
            return "0"
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


@dataclass(frozen=True)
class LieAlgebraSpec:
    label: str
    c: tuple  # c[i][j] is a Vec3, 0-indexed
    equality_constraints: tuple = ()
    nonzero_constraints: tuple = ()
    parameters: tuple = ()  # group parameters that occur, in PARAMS order
    unimodular: bool | None = None  # classification metadata only

    def bracket_basis(self, i: int, j: int) -> Vec3:
        """[e_i, e_j] for 1-based indices."""
        return self.c[i - 1][j - 1]


def _c_from_rows(rows: Mapping[tuple, Vec3]) -> tuple:
    """Build the full antisymmetric c array from the three independent rows."""
    table = [[Vec3.zero() for _ in range(3)] for _ in range(3)]
    for (i, j), vec in rows.items():
        table[i - 1][j - 1] = vec
        table[j - 1][i - 1] = -vec
    return tuple(tuple(row) for row in table)


def bilinear(table, x: Vec3, y: Vec3) -> Vec3:
    """sum_ij x_i y_j table[i][j]: the bilinear map with values table[i][j] on
    basis pairs, expanded only over the nonzero components of x and y.  Each
    product x_i y_j is formed once and each component is one Poly.dot."""
    weights = [(xi * yj, table[i][j]) for i, xi in enumerate(x.c) if not xi.is_zero()
               for j, yj in enumerate(y.c) if not yj.is_zero()]
    return Vec3(tuple(Poly.dot([(w, vec.c[q]) for w, vec in weights]) for q in range(3)))


def bracket(spec: LieAlgebraSpec, x: Vec3, y: Vec3) -> Vec3:
    """Bilinear extension of the structure constants."""
    return bilinear(spec.c, x, y)


def jacobi_defect(spec: LieAlgebraSpec) -> Vec3:
    """The cyclic sum [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]; in three
    dimensions (1, 2, 3) is the only index triple."""
    e1, e2, e3 = Vec3.basis(1), Vec3.basis(2), Vec3.basis(3)
    return (
        bracket(spec, bracket(spec, e1, e2), e3)
        + bracket(spec, bracket(spec, e2, e3), e1)
        + bracket(spec, bracket(spec, e3, e1), e2)
    )


_ROW_KEYS = ((1, 2), (1, 3), (2, 3))

# group -> (rows [e1,e2], [e1,e3], [e2,e3]; expressions required to vanish;
# expressions required to be nonzero; unimodular).  G4's rows read eta, the
# sign its catalog entry is instantiated at.
_CATALOG = {
    "G1": (("alpha*e1 - beta*e3", "-alpha*e1 - beta*e2", "beta*e1 + alpha*e2 + alpha*e3"),
           (), ("alpha",), True),
    "G2": (("gamma*e2 - beta*e3", "-beta*e2 - gamma*e3", "alpha*e1"), (), ("gamma",), True),
    "G3": (("-gamma*e3", "-beta*e2", "alpha*e1"), (), (), True),
    "G4": (("-e2 + (2*eta - beta)*e3", "-beta*e2 + e3", "alpha*e1"), (), (), True),
    "G5": (("0", "alpha*e1 + beta*e2", "gamma*e1 + delta*e2"),
           ("alpha*gamma + beta*delta",), ("alpha + delta",), False),
    "G6": (("alpha*e2 + beta*e3", "gamma*e2 + delta*e3", "0"),
           ("alpha*gamma - beta*delta",), ("alpha + delta",), False),
    "G7": (("-alpha*e1 - beta*e2 - beta*e3", "alpha*e1 + beta*e2 + beta*e3",
            "gamma*e1 + delta*e2 + delta*e3"), ("alpha*gamma",), ("alpha + delta",), False),
}


def catalog(group: str, eta_sign: int | None = None) -> LieAlgebraSpec:
    """Catalog entry with its bracket table and admissibility constraints.

    G4 requires eta_sign in {+1, -1}; its bracket table is instantiated at
    that sign so the coefficient ring stays a plain polynomial ring.
    """
    if group not in GROUPS:
        raise UnknownId(f"unknown group {group!r}; expected one of {GROUPS}")
    if group == "G4":
        if eta_sign not in (1, -1):
            raise UnknownId("G4 needs eta_sign=+1 or -1")
    elif eta_sign is not None:
        raise UnknownId(f"eta_sign applies only to G4, not {group}")
    rows, equalities, nonzeros, unimodular = _CATALOG[group]
    spec = custom_spec(
        {key: Vec3(parse_vector(text, eta=eta_sign)) for key, text in zip(_ROW_KEYS, rows)},
        [parse_poly(text) for text in equalities],
        [parse_poly(text) for text in nonzeros],
        label=group,
    )
    return replace(spec, unimodular=unimodular)


def custom_spec(
    rows: Mapping[tuple, Vec3],
    equality_constraints: Sequence[Poly] = (),
    nonzero_constraints: Sequence[Poly] = (),
    label: str = "custom",
) -> LieAlgebraSpec:
    """A spec over every parameter that its rows or its constraints name."""
    used = {name for vec in rows.values() for comp in vec.c for name in comp.params()}
    used.update(name for c in (*equality_constraints, *nonzero_constraints) for name in c.params())
    return LieAlgebraSpec(
        label,
        _c_from_rows(dict(rows)),
        equality_constraints=tuple(equality_constraints),
        nonzero_constraints=tuple(nonzero_constraints),
        parameters=tuple(name for name in PARAMS if name in used),
    )


def screen_jacobi(spec: LieAlgebraSpec) -> None:
    """Admission gate for custom specs: InvalidAlgebra unless the Jacobi
    identity holds exactly."""
    defect = jacobi_defect(spec)
    if not defect.is_zero():
        raise InvalidAlgebra(f"Jacobi identity fails: the cyclic sum is {defect}")


# --------------------------------------------------------------------------
# Custom algebra input files
#
#   # comments and blank lines are ignored
#   [e1,e2] = alpha*e1 - beta*e3
#   [e1,e3] = 0
#   [e2,e3] = beta*e1
#   require_zero alpha*gamma + beta*delta      (optional, repeatable)
#   require_nonzero alpha + delta              (optional, repeatable)
# --------------------------------------------------------------------------

_BRACKET_KEYS = {f"[e{i},e{j}]": (i, j) for i, j in _ROW_KEYS}

# The perturbation parameter and the soliton unknowns: a structure constant
# or constraint that named one would be conflated with it.
_RESERVED = ("a0", "mu", "mu1", "mu2", "mu3")


def _unreserved(polys: Sequence[Poly], lineno: int) -> None:
    used = sorted({name for p in polys for name in p.params()}.intersection(_RESERVED))
    if used:
        raise InvalidAlgebra(
            f"line {lineno}: reserved name {', '.join(used)}: a0 is the perturbation "
            "parameter, and mu, mu1, mu2, mu3 are the soliton unknowns"
        )


def content_lines(text: str):
    """(line number, line) for each line left once '#' comments and blank
    lines are dropped; every line-based input format reads through this."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_custom_file(text: str) -> LieAlgebraSpec:
    rows: dict = {}
    constraints: dict = {"require_zero": [], "require_nonzero": []}
    # Curvature multiplies connection coefficients, each linear in the
    # structure constants, so its products grow like the square of their size.
    # Each row fills two antisymmetric entries of c.
    terms = 0
    for lineno, line in content_lines(text):
        try:
            word, *rest = line.split(None, 1)
            if word in constraints:
                constraints[word].append(parse_poly("".join(rest)))
                _unreserved(constraints[word][-1:], lineno)
            else:
                lhs, _, rhs = line.partition("=")
                key = "".join(lhs.split())
                if key not in _BRACKET_KEYS or not rhs.strip():
                    raise InvalidAlgebra(f"line {lineno}: expected '[ei,ej] = <vector>'")
                if _BRACKET_KEYS[key] in rows:
                    raise InvalidAlgebra(f"line {lineno}: duplicate bracket {key}")
                vec = Vec3(parse_vector(rhs))
                _unreserved(vec.c, lineno)
                rows[_BRACKET_KEYS[key]] = vec
                terms += 2 * sum(len(comp.terms) for comp in vec.c)
                if terms * terms > MAX_PRODUCT_TERMS:
                    raise InvalidAlgebra(
                        f"line {lineno}: structure constants too large: {terms} terms so far, "
                        f"squared past {MAX_PRODUCT_TERMS}"
                    )
        except ScalarError as exc:
            raise InvalidAlgebra(f"line {lineno}: {exc}") from exc
    missing = set(_ROW_KEYS) - set(rows)
    if missing:
        raise InvalidAlgebra(f"missing bracket rows: {sorted(missing)}")
    return custom_spec(rows, constraints["require_zero"], constraints["require_nonzero"])
