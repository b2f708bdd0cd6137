import hashlib
import operator
from collections import Counter
from fractions import Fraction

import pytest

from bottsol import registry
from bottsol.registry import RegistryError
from bottsol.scalar import Poly, parse_poly, parse_ratfun

HEADER = "[theorem 9.1 group=G1 dist=D kind=families]\n"


@pytest.mark.parametrize("text, message", [
    ("family 1:\n", "theorems line 1: content before first block"),
    ("[theorem 9.1 group=G1 dist=D oops]\n", "theorems line 1: bad token 'oops' in theorem header"),
    ("[theorem 9.1 group=G1 dist=D perturbed=no kind=families]\n",
     "theorems line 1: bad token 'perturbed=no' in theorem header"),
    ("[theorem 9.1 group=G1 dist=D colour=red kind=families]\n",
     "theorems line 1: bad token 'colour=red' in theorem header"),
    ("[theorem 9.1 dist=D kind=not_soliton]\n", "theorems line 1: header has no group="),
    ("[theorem 9.1 group=G9 dist=D kind=not_soliton]\n", "theorems line 1: unknown group 'G9'"),
    ("[theorem 9.1 group=G1 kind=not_soliton]\n", "theorems line 1: header has no dist="),
    ("[theorem 9.1 group=G1 dist=D3 kind=not_soliton]\n", "theorems line 1: unknown dist 'D3'"),
    ("[corollary C9.2 kind=einstein]\n", "theorems line 1: header has no dist="),
    ("[corollary C9.2 dist=d kind=einstein]\n", "theorems line 1: unknown dist 'd'"),
    ("[corollary C9.2 dist=D kind=einstein]\nclause G8 einstein:\n",
     "theorems line 2: unknown group 'G8'"),
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
    ("[theorem 9.1 group=G1 dist=D kind=families group=G2]\n",
     "theorems line 1: group given twice in theorem header"),
    ("[theorem 9.1 group=G1 dist=D perturbed kind=families perturbed]\n",
     "theorems line 1: perturbed given twice in theorem header"),
    ("[theorem 9.1 group=G1 dist=D kind=not_soliton dist=D1]\n",
     "theorems line 1: dist given twice in theorem header"),
    (HEADER + "family 1:\n  bind mu = 0\n[theorem 9.1 group=G2 dist=D kind=not_soliton]\n",
     "theorems line 4: record 9.1 listed twice"),
    ("[theorem 9.0 group=G2 dist=D kind=not_soliton]\n" + HEADER,
     "theorems line 2: theorem 9.1 lists no family"),
    ("[corollary C9.2 dist=D kind=einstein]\n", "theorems line 1: corollary C9.2 has no clause"),
    ("[corollary C9.2 dist=D kind=einstein]\nclause G1 not_einstein:\nclause G2 einstein:\n"
     "clause G3 einstein:\nfamily 1:\n  bind mu = 0\n",
     "theorems line 3: clause G2 einstein lists no family"),
    ("[corollary C9.2 group=G1 dist=D kind=families]\nfamily 1:\n  bind mu = 0\n",
     "theorems line 1: corollary C9.2 has kind=families; a corollary, and only one, "
     "has kind=einstein"),
    ("[theorem 9.1 group=G1 dist=D kind=einstein]\nclause G1 not_einstein:\n",
     "theorems line 1: theorem 9.1 has kind=einstein; a corollary, and only one, "
     "has kind=einstein"),

    ("[corollary C9.2 group=G9 dist=D perturbed kind=einstein]\nclause G1 not_einstein:\n",
     "theorems line 1: corollary C9.2 names no group=; each clause names its own"),
])
def test_theorem_registry_errors(monkeypatch, text, message):
    monkeypatch.setattr(registry, "_data_text", lambda relpath: text)
    with pytest.raises(RegistryError) as exc:
        registry.load_theorems()
    assert str(exc.value) == message


ERRATUM = "fixture 9.9 1,2\nstored alpha\ncomputed beta\n"


@pytest.mark.parametrize("text, message", [
    (ERRATUM + "stored gamma\n", "errata line 4: stored given twice in one entry"),
    (ERRATUM + "note first\ncomputed gamma\n", "errata line 5: computed given twice in one entry"),
    ("stored alpha\n", "errata line 1: directive before first fixture"),
    ("fixture 9.9 1,2\nstored alpha\n", "errata entry 9.9 1,2 lacks computed"),
    (ERRATUM + "note first\nfixture 9.9 2,1\nstored alpha\ncomputed beta\n" + ERRATUM,
     "errata line 8: entry 9.9 1,2 repeats the entry of line 1"),
])
def test_errata_registry_errors(monkeypatch, text, message):
    """A stored or computed value given twice in one entry is refused with its
    line, not silently replaced by the second, and so is an entry repeating
    an earlier one's fixture, key, stored and computed values."""
    monkeypatch.setattr(registry, "_data_text", lambda relpath: text)
    with pytest.raises(RegistryError) as exc:
        registry.load_errata()
    assert str(exc.value) == message


def test_shipped_errata_repeat_keys_not_entries():
    """A fixture's key may head several entries with other values, once per
    G4 sign or per equation, as 13 pairs of the shipped errata do."""
    entries = registry.load_errata()
    pairs = Counter((e.fixture_id, e.key) for e in entries)
    assert len(entries) == 65 and sum(n > 1 for n in pairs.values()) == 13


def test_errata_notes_are_joined(monkeypatch):
    """Repeated note lines stay legal and are joined; each entry starts with none."""
    text = ERRATUM + "note first\nnote  second\nfixture 9.9 2,1\ncomputed beta\nstored alpha\n"
    monkeypatch.setattr(registry, "_data_text", lambda relpath: text)
    first, second = registry.load_errata()
    assert first.signature() == ("9.9", "1,2", "alpha", "beta")
    assert second.signature() == ("9.9", "2,1", "alpha", "beta")
    assert (first.note, second.note) == ("first second", "")


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


@pytest.mark.parametrize("text, message", [
    ("[bott 9.9]\n4 4 : e1\n", "G1/D line 2: bott rows need 2 indices in 1..3, got '4 4'"),
    ("[ricci 9.9]\n1 2 3 : alpha\n", "G1/D line 2: ricci rows need 2 indices in 1..3, got '1 2 3'"),
    ("[curvature 9.9]\n1 2 : e1\n", "G1/D line 2: curvature rows need 3 indices in 1..3, got '1 2'"),
    ("[sym_ricci_delta 9.9 perturbed]\n1 : a0\n",
     "G1/D line 2: sym_ricci_delta rows need 2 indices in 1..3, got '1'"),
])
def test_table_keys_are_checked(text, message):
    """A row key with the wrong number of indices, or an index outside 1..3,
    is refused with its line, not left to fail later as a missing entry."""
    with pytest.raises(RegistryError) as exc:
        registry._parse_table_file(text, "G1", "D")
    assert str(exc.value) == message


BOTT_9_9 = ("[bott 9.9]\n1 1 : -alpha*e2\n1 2 : alpha*e1\n1 3 : 0\n2 1 : 0\n2 2 : 0\n"
            "2 3 : alpha*e3\n3 1 : 7*e1\n3 1 : alpha*e1 + beta*e2\n3 2 : -beta*e1 - alpha*e2\n"
            "3 3 : 0\n")


@pytest.mark.parametrize("text, message", [
    (BOTT_9_9, "G1/D line 9: bott key '3 1' listed twice in one block"),
    ("[ricci 9.9]\n* : 0\n2  1 : alpha\n",
     "G1/D line 3: ricci key '2 1' listed twice in one block"),
    ("[ricci 9.9]\n1 3 : alpha\n* : 0\n",
     "G1/D line 3: ricci key '1 3' listed twice in one block"),
    ("[sym_ricci 9.9]\n* : 0\n* : 0\n",
     "G1/D line 3: sym_ricci key '1 1' listed twice in one block"),
])
def test_repeated_table_keys_are_refused(text, message):
    """A block that lists one key twice would have only its last row
    compared, so a wrong earlier row (the G1/D bott block's `3 1 : 7*e1`)
    would verify as a match; it is refused with the repeating line."""
    with pytest.raises(RegistryError) as exc:
        registry._parse_table_file(text, "G1", "D")
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("[bott 2.2perturbed]\n* : 0\n", "G1/D line 1: bad block header '[bott 2.2perturbed]'"),
    ("[system 2.2]\nalpha*mu1\n[bott 2.2 perturbd]\n* : 0\n",
     "G1/D line 3: bad block header '[bott 2.2 perturbd]'"),
])
def test_malformed_block_headers_are_refused(text, message):
    """An id glued to `perturbed` would read as an unperturbed block with id
    '2.2perturbed', and a misspelt header inside a system block would be
    kept as an equation; both are refused with their line."""
    with pytest.raises(RegistryError) as exc:
        registry._parse_table_file(text, "G1", "D")
    assert str(exc.value) == message


def test_a_key_may_repeat_across_blocks():
    text = "[ricci 9.9]\n1 2 : alpha\n[ricci 9.10 perturbed]\n1 2 : beta\n"
    first, second = registry._parse_table_file(text, "G1", "D")
    assert first.rows == (((1, 2), "alpha"),) and second.rows == (((1, 2), "beta"),)


def test_stored_tables_parse_without_rational_functions(monkeypatch):
    """Every stored table is polynomial, so loading all of them at each G4
    sign builds no RatFun at all.  The parse memo is emptied first, so every
    distinct stored row is parsed here."""
    from bottsol import pipeline
    from bottsol.scalar import RatFun

    fixtures = registry.load_fixtures()
    pipeline.stage.cache_clear()
    built = []
    original = RatFun.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RatFun, "__init__", counted)
    loaded = 0
    for fix in fixtures:
        for eta in pipeline.eta_signs(fix.group):
            getattr(fix, registry.TABLE_KINDS[fix.kind].loader)(eta=eta)
            loaded += 1
    assert loaded > 196 and not built
    assert registry.parsed.cache_info().misses == 492
    RatFun.make(Poly.var("alpha"), Poly.var("beta"))
    assert len(built) == 1  # the counter is live


# sha256 over every family's bind values (as (num, den)) and side conditions,
# parsed at both signs, with terms sorted.  Computed before the parser built
# polynomials instead of wrapping each atom in a RatFun.
FAMILY_PARSE_DIGEST = "3123c64b3050ad2e43368f968e7122b46d6a57ae4f75d302a7595cc0d0d386df"


def test_family_parses_are_unchanged():
    def canon(p):
        # Coefficients are read as Fractions, the type every one had when
        # the digest was computed; a whole one is stored as an int now.
        return sorted((e, Fraction(c)) for e, c in p.terms.items())

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


# -- the per-run memo of parsed stored expressions ---------------------------


def test_clearing_the_stages_empties_the_parse_memo():
    from bottsol import pipeline

    fixture = next(fix for fix in registry.load_fixtures() if fix.kind == "bott")
    fixture.connection_table()
    assert registry.parsed.cache_info().currsize > 0
    pipeline.stage.cache_clear()
    assert registry.parsed.cache_info().currsize == 0


def test_check_custom_input_stays_out_of_the_parse_memo(tmp_path, capsys):
    """check-custom parses its file straight through scalar, as a one-shot
    process does; the memo is neither read nor filled."""
    from bottsol import cli

    path = tmp_path / "heisenberg.alg"
    path.write_text("[e1,e2] = gamma*e3\n[e1,e3] = 0\n[e2,e3] = 0\nrequire_nonzero gamma\n")
    before = registry.parsed.cache_info()
    assert cli.main(["check-custom", "--spec-file", str(path), "--distribution", "D1"]) == 0
    assert "mu" in capsys.readouterr().out
    assert registry.parsed.cache_info() == before


@pytest.mark.parametrize("kind", ["bott", "sym_ricci", "lie_derivative", "system"])
def test_a_second_load_is_a_fresh_container_of_shared_values(kind):
    """Each load builds a new dict or list over the memo's values, so filling
    a mirrored kind's lower half in one load, or any change a caller makes to
    it, cannot reach the next."""
    fixture = next(fix for fix in registry.load_fixtures() if fix.kind == kind)
    loader = getattr(fixture, registry.TABLE_KINDS[kind].loader)
    first = loader()
    if isinstance(first, dict):
        first[(3, 2)] = first[(1, 1)] = Poly.var("gamma")
    else:
        first.append(Poly.var("gamma"))
    second, third = loader(), loader()
    assert second == third and second is not third and second != first
    assert len(second) == (9 if isinstance(second, dict) else len(fixture.rows))
    if isinstance(second, dict):
        second, third = list(second.values()), list(third.values())
    if kind == "bott":  # the memo holds the parsed triple each Vec3 wraps
        second, third = [v.c for v in second], [v.c for v in third]
    assert all(map(operator.is_, second, third))
