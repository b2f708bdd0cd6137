import hashlib

import pytest

from bottsol import registry
from bottsol.registry import RegistryError
from bottsol.scalar import Poly, parse_poly, parse_ratfun

HEADER = "[theorem 9.1 group=G1 dist=D kind=families]\n"


@pytest.mark.parametrize("text, message", [
    ("family 1:\n", "theorems line 1: content before first block"),
    ("[theorem 9.1 group=G1 dist=D oops]\n", "bad token 'oops' in theorem header"),
    (HEADER + "clause G1:\n", "theorems line 2: bad clause header"),
    (HEADER + "family 1 2:\n", "theorems line 2: bad family header"),
    (HEADER + "bind mu = 0\n", "theorems line 2: directive outside a family"),
    (HEADER + "family 1:\n  solve mu\n", "theorems line 3: unknown directive 'solve mu'"),
    (HEADER + "family 1:\n  bind\n", "theorems line 3: unknown directive 'bind'"),
    (HEADER + "family 1:\n  completion frob mu\n",
     "theorems line 3: unknown directive 'frob mu'"),
    ("[theorem 9.1 group=G1 dist=D kind=many]\n", "theorems line 1: unknown theorem kind 'many'"),
    ("[corollary C9.2 dist=D kind=einstein]\nclause G1 einstein:\nclause G2 ricci_flat:\n",
     "theorems line 3: unknown clause kind 'ricci_flat'"),
    ("[theorem 9.1 group=G1 dist=D kind=not_soliton]\nfamily 1:\n  bind mu = 0\n",
     "theorems line 2: family outside a claim of families"),
    ("[corollary C9.2 dist=D kind=einstein]\nclause G1 not_einstein:\nfamily 1:\n",
     "theorems line 3: family outside a claim of families"),
    ("[corollary C9.2 dist=D kind=einstein]\nfamily 1:\n",
     "theorems line 2: family outside a claim of families"),
    (HEADER + "family 1:\n  bind mu = 0\nclause G1 einstein:\n",
     "theorems line 4: clause outside a corollary"),
])
def test_theorem_registry_errors(monkeypatch, text, message):
    monkeypatch.setattr(registry, "_data_text", lambda relpath: text)
    with pytest.raises(RegistryError) as exc:
        registry.load_theorems()
    assert str(exc.value) == message


def test_theorem_claims(monkeypatch):
    text = ("[theorem 9.1 group=G5 dist=D kind=not_soliton]\n"
            "[theorem 9.2 group=G1 dist=D1 perturbed kind=families]\n"
            "family 1a:\n  bind mu = 0\nfamily 1b:\n  nonzero alpha\n"
            "[corollary C9.3 dist=D kind=einstein]\n"
            "clause G1 not_einstein:\nclause G2 einstein:\nfamily 1:\n  bind mu = 0\n")
    monkeypatch.setattr(registry, "_data_text", lambda relpath: text)
    nonexistence, families, corollary = registry.load_theorems()
    assert nonexistence.claims == (registry.Claim("G5", False, None),)
    (claim,) = families.claims
    assert (claim.group, claim.einstein) == ("G1", False) and families.perturbed
    assert [(f.label, f.printed_label) for f in claim.families] == [("1a", "1"), ("1b", "1")]
    assert claim.families[1].side_nonzero == ("alpha",)
    assert corollary.group is None
    assert [(c.group, c.einstein, c.families is None) for c in corollary.claims] == [
        ("G1", True, True), ("G2", True, False)]
    assert corollary.claims[1].families[0].bindings == (("mu", "0"),)


def test_stored_tables_parse_without_rational_functions(monkeypatch):
    """Every stored table is polynomial, so loading all of them at each G4
    sign builds no RatFun at all."""
    from bottsol import pipeline
    from bottsol.scalar import RatFun

    built = []
    original = RatFun.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RatFun, "__init__", counted)
    loaded = 0
    for fix in registry.load_fixtures():
        for eta in pipeline.eta_signs(fix.group):
            getattr(fix, registry.TABLE_KINDS[fix.kind].loader)(eta=eta)
            loaded += 1
    assert loaded > 196 and not built
    RatFun.make(Poly.var("alpha"), Poly.var("beta"))
    assert len(built) == 1  # the counter is live


# sha256 over every family's bind values (as (num, den)) and side conditions,
# parsed at both signs, with terms sorted.  Computed before the parser built
# polynomials instead of wrapping each atom in a RatFun.
FAMILY_PARSE_DIGEST = "3123c64b3050ad2e43368f968e7122b46d6a57ae4f75d302a7595cc0d0d386df"


def test_family_parses_are_unchanged():
    def canon(p):
        return sorted(p.terms.items())

    digest = hashlib.sha256()
    for rec in registry.load_theorems():
        for fam in [f for claim in rec.claims for f in claim.families or ()]:
            for eta in (1, -1):
                for name, expr in fam.bindings + fam.completion_bindings:
                    r = parse_ratfun(expr, eta=eta)
                    digest.update(f"{rec.id} {fam.label} {eta} {name} {canon(r.num)} / "
                                  f"{canon(r.den)}\n".encode())
                for expr in (fam.side_equal + fam.side_nonzero + fam.completion_equal
                             + fam.completion_nonzero):
                    digest.update(f"{rec.id} {fam.label} {eta} "
                                  f"{canon(parse_poly(expr, eta=eta))}\n".encode())
    assert digest.hexdigest() == FAMILY_PARSE_DIGEST
