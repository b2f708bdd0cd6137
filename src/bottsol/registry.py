"""Reference-table and theorem registries, loaded from the packaged data files.

Table files (one per group and distribution, under data/tables/<dist>/) hold
the expected connection, curvature, Ricci, Lie-derivative, and system tables
keyed by their source equation numbers.  The expressions are stored exactly
as displayed in the source tables, including any misprints: the comparison
engine's job is to surface those, not to hide them.

Block grammar:

    [<kind> <id>]            plain block
    [<kind> <id> perturbed]  block for the perturbed connection
    i j : <vector expr>      connection rows
    i j p : <vector expr>    curvature rows (i < j)
    i j : <scalar expr>      bilinear-form entries
    <scalar expr>            system equations, one per line
    * : 0                    shorthand for an all-zero table

An <id> is digits and dots, starting with a digit; any other line that
starts with `[` is refused as a bad block header.

G4 files may use the name `eta`; it is substituted with the requested sign
while parsing, so the polynomial alphabet itself never contains it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import scalar
from .algebra import GROUPS, Vec3, content_lines, eta_signs
from .connection import DISTRIBUTIONS

_UPPER_PAIRS = tuple((i, j) for i in (1, 2, 3) for j in range(i, 4))


@dataclass(frozen=True)
class TableKind:
    """How one kind of stored table is read and what it is compared with."""

    loader: str  # the Fixture method that parses it; perfbench times each name apart
    records: str  # the pipeline.Stage attribute holding the recomputed object
    star: tuple | None = None  # the keys a '* : 0' row stands for (None: no '*' row)
    vector: bool = False  # rows are vectors, parsed to Vec3
    mirrored: bool = False  # the stored i <= j half stands for both halves
    arity: int = 2  # indices in a row's key, each in 1..3


TABLE_KINDS = {
    "levi_civita": TableKind("connection_table", "levi_civita", vector=True),
    "bott": TableKind("connection_table", "conn", vector=True),
    "curvature": TableKind(
        "curvature_table", "riemann", vector=True, arity=3,
        star=tuple((i, j, p) for i in (1, 2) for j in range(i + 1, 4) for p in (1, 2, 3)),
    ),
    "ricci": TableKind("bilinear_table", "ricci",
                       star=tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))),
    "sym_ricci": TableKind("bilinear_table", "sym_ricci", star=_UPPER_PAIRS, mirrored=True),
    "lie_derivative": TableKind("bilinear_table", "lie_derivative", star=_UPPER_PAIRS,
                                mirrored=True),
    "system": TableKind("system_equations", "system"),
    "curvature_delta": TableKind("delta_table", "riemann", vector=True, arity=3),
    "sym_ricci_delta": TableKind("delta_table", "sym_ricci", star=_UPPER_PAIRS),
}


class RegistryError(Exception):
    pass


@lru_cache(maxsize=None)
def parsed(parser: str, text: str, eta=None):
    """`scalar.<parser>(text, eta=eta)`, parsed once per distinct stored text
    and G4 sign.  Table rows and theorem lines repeat the same expressions
    many times; the values are immutable, so every load shares them.  The
    parser is looked up on `scalar` at each miss, so a wrapper put there
    sees every parse; text it refuses is a RegistryError naming both.
    pipeline.stage.cache_clear empties it; check-custom input never gets here."""
    try:
        return getattr(scalar, parser)(text, eta=eta)
    except scalar.ScalarError as exc:
        raise RegistryError(f"{parser} refuses stored text {text!r}: {exc}") from exc


@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str
    group: str
    distribution: str
    perturbed: bool
    rows: tuple  # raw (key, expression-string) pairs, in file order

    def connection_table(self, eta=None) -> dict:
        """The stored entries by key, typed as the stage holds them; a
        mirrored kind's i <= j half is filled out to the full 3x3."""
        kind = TABLE_KINDS[self.kind]
        if kind.vector:
            out = {key: Vec3(parsed("parse_vector", expr, eta)) for key, expr in self.rows}
        else:
            out = {key: parsed("parse_poly", expr, eta) for key, expr in self.rows}
        if kind.mirrored:
            for (i, j), val in list(out.items()):
                out.setdefault((j, i), val)
        return out

    curvature_table = bilinear_table = delta_table = connection_table

    def system_equations(self, eta=None) -> list:
        return [parsed("parse_poly", expr, eta) for _, expr in self.rows]


def _data_text(relpath: str) -> str:
    node = resources.files("bottsol").joinpath("data")
    for part in relpath.split("/"):
        node = node.joinpath(part)
    return node.read_text()


def _blocks(lines, opens):
    """Split (line number, line) pairs, as content_lines yields them, into
    blocks: one opens at each line where `opens(line)` holds and runs to the
    next.  Yields (opening pair, the pairs after it) per block, the lines
    before the first opening line coming first, under the opening None."""
    head, body = None, []
    for pair in lines:
        if opens(pair[1]):
            yield head, body
            head, body = pair, []
        else:
            body.append(pair)
    yield head, body


_HEADER = re.compile(r"^\[(\w+)\s+([0-9][0-9.]*)(?:\s+(perturbed))?\]$")


def _table_rows(kind: str, body: list, where: str) -> tuple:
    """The (key, expression) rows of one block's lines.  A key listed twice
    in the block would leave only its last row compared, so it is refused."""
    if kind == "system":
        return tuple((None, line) for _, line in body)
    spec = TABLE_KINDS[kind]
    rows: list = []
    seen: set = set()
    for lineno, line in body:
        key_part, sep, expr = line.partition(":")
        if not sep:
            raise RegistryError(f"{where} line {lineno}: expected 'indices : expression'")
        key_txt = key_part.strip()
        expr = expr.strip()
        if key_txt == "*":
            if expr != "0":
                raise RegistryError(f"{where} line {lineno}: '*' rows must be zero")
            if spec.star is None:
                raise RegistryError(f"{where} line {lineno}: '*' not supported for {kind}")
            keys = spec.star
        else:
            try:
                key = tuple(int(tok) for tok in key_txt.split())
            except ValueError as exc:
                raise RegistryError(f"{where} line {lineno}: bad indices {key_txt!r}") from exc
            if len(key) != spec.arity or not all(1 <= k <= 3 for k in key):
                raise RegistryError(f"{where} line {lineno}: {kind} rows need {spec.arity} "
                                    f"indices in 1..3, got {key_txt!r}")
            keys = (key,)
        repeated = sorted(seen.intersection(keys))
        if repeated:
            raise RegistryError(f"{where} line {lineno}: {kind} key "
                                f"{' '.join(map(str, repeated[0]))!r} listed twice in one block")
        seen.update(keys)
        rows.extend((key, expr) for key in keys)
    return tuple(rows)


def _table_blocks(text: str, group: str, dist: str):
    """(header line, Fixture) per block of one table file."""
    blocks = _blocks(content_lines(text), lambda line: line.startswith("["))
    _, before = next(blocks)
    if before:
        raise RegistryError(f"{group}/{dist} line {before[0][0]}: content before first block")
    for (lineno, line), body in blocks:
        m = _HEADER.match(line)
        if not m:
            raise RegistryError(f"{group}/{dist} line {lineno}: bad block header {line!r}")
        kind = m.group(1)
        if kind not in TABLE_KINDS:
            raise RegistryError(f"{group}/{dist} line {lineno}: unknown kind {kind!r}")
        yield lineno, Fixture(m.group(2), kind, group, dist, bool(m.group(3)),
                              _table_rows(kind, body, f"{group}/{dist}"))


def load_fixtures() -> list:
    """Every table file's fixtures.  The errata and --id name a fixture by
    its id, so an id given twice, in one file or two, is refused."""
    fixtures = []
    first: dict = {}  # id -> where it was given
    for dist in DISTRIBUTIONS:
        for group in GROUPS:
            text = _data_text(f"tables/{dist}/{group}.tab")
            for lineno, fixture in _table_blocks(text, group, dist):
                where = f"{group}/{dist} line {lineno}"
                if fixture.id in first:
                    raise RegistryError(f"{where}: fixture {fixture.id} repeats the id "
                                        f"given at {first[fixture.id]}")
                first[fixture.id] = where
                fixtures.append(fixture)
    return fixtures


# --------------------------------------------------------------------------
# Theorem registry
#
#   [theorem <id> group=G1 dist=D (perturbed)? kind=<not_soliton|families>]
#   [corollary <id> dist=D kind=einstein]
#   family <label>:            starts a family (a families theorem or an
#                              einstein clause, each of which lists one or more)
#   clause <group> <kind>:     starts a corollary clause (einstein|not_einstein);
#                              a corollary has one or more
#   bind <name> = <ratfun>     name: a parameter, bound once per statement
#   zero <poly>                side condition: must vanish
#   nonzero <poly>             side condition: must stay nonzero
#   completion bind/zero/...   corrected variant, kept separate from the
#                              literal statement (see errata notes)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """What a record states for one group: no soliton exists (`families`
    None), or the solitons are the listed families.  An Einstein claim is a
    soliton claim with mu1 = mu2 = mu3 = 0."""

    group: str
    einstein: bool
    families: tuple | None  # FamilyRecord


@dataclass(frozen=True)
class TheoremRecord:
    id: str
    group: str | None
    distribution: str
    perturbed: bool
    kind: str  # not_soliton | families | einstein
    claims: tuple  # Claim: one per theorem, one per corollary clause


@dataclass(frozen=True)
class FamilyRecord:
    label: str
    printed_label: str  # branch variants a/b share one printed label
    bindings: tuple  # (name, expr-string)
    side_equal: tuple
    side_nonzero: tuple
    completion_bindings: tuple = ()
    completion_equal: tuple = ()
    completion_nonzero: tuple = ()

    def has_completion(self) -> bool:
        return bool(self.completion_bindings or self.completion_equal or self.completion_nonzero)


_THM_HEADER = re.compile(r"^\[(theorem|corollary)\s+(\S+)\s+(.*?)\]$")


def _parse_kv(kv_text: str, lineno: int) -> dict:
    out = {}
    for tok in kv_text.split():
        key, sep, value = tok.partition("=")
        if tok == "perturbed":
            value = True
        elif not sep or key not in ("group", "dist", "kind"):
            raise RegistryError(f"theorems line {lineno}: bad token {tok!r} in theorem header")
        if key in out:
            raise RegistryError(f"theorems line {lineno}: {key} given twice in theorem header")
        out[key] = value
    return out


def _named(key: str, value, known, lineno: int):
    """`value` when it is one of `known`; else the RegistryError for line `lineno`."""
    if value is None:
        raise RegistryError(f"theorems line {lineno}: header has no {key}=")
    if value not in known:
        raise RegistryError(f"theorems line {lineno}: unknown {key} {value!r}")
    return value


# (directive, is_completion) -> the FamilyRecord field its lines fill.
_FAMILY_FIELDS = {
    ("bind", False): "bindings",
    ("zero", False): "side_equal",
    ("nonzero", False): "side_nonzero",
    ("bind", True): "completion_bindings",
    ("zero", True): "completion_equal",
    ("nonzero", True): "completion_nonzero",
}


def _family(label: str, body: list, group: str) -> FamilyRecord:
    """The family `label` of a claim on `group` whose directive lines are
    `body`.  Each bind names a parameter of scalar.PARAMS, at most once in
    the literal statement and at most once in its completion, which may
    rebind a literal name.  Each expression is parsed, through `parsed`, at
    each sign of the group, so text the parser refuses is refused with its
    line."""
    lists: dict = {name: [] for name in _FAMILY_FIELDS.values()}
    for lineno, line in body:
        completion = line.startswith("completion ")
        text = line[len("completion "):] if completion else line
        directive, space, arg = text.partition(" ")
        if not space or (directive, completion) not in _FAMILY_FIELDS:
            raise RegistryError(f"theorems line {lineno}: unknown directive {text!r}")
        entries = lists[_FAMILY_FIELDS[directive, completion]]
        if directive == "bind":
            name, _, expr = (part.strip() for part in arg.partition("="))
            if name not in scalar.PARAMS:
                raise RegistryError(f"theorems line {lineno}: bind of unknown parameter {name!r}")
            if any(bound == name for bound, _ in entries):
                raise RegistryError(f"theorems line {lineno}: {name} bound twice in one statement")
            entries.append((name, expr))
        else:
            expr = arg.strip()
            entries.append(expr)
        for eta in eta_signs(group):
            try:
                parsed("parse_ratfun" if directive == "bind" else "parse_poly", expr, eta)
            except RegistryError as exc:
                raise RegistryError(f"theorems line {lineno}: {exc}") from exc
    return FamilyRecord(label, label.rstrip("ab"),
                        **{field: tuple(values) for field, values in lists.items()})


def _families(lines: list, listed: bool, group: str | None) -> tuple | None:
    """The families a claim on `group` lists in its lines, or None for a
    claim that is not `listed` as one of families, whose lines may then hold
    no family."""
    blocks = _blocks(lines, lambda line: line.startswith("family "))
    _, before = next(blocks)
    if before:
        raise RegistryError(f"theorems line {before[0][0]}: directive outside a family")
    families = []
    for (lineno, line), body in blocks:
        m = re.match(r"^family\s+(\w+):$", line)
        if not m:
            raise RegistryError(f"theorems line {lineno}: bad family header")
        if not listed:
            raise RegistryError(f"theorems line {lineno}: family outside a claim of families")
        families.append(_family(m.group(1), body, group))
    return tuple(families) if listed else None


def _claims(lineno: int, rid: str, kind: str, group: str | None, body: list) -> tuple:
    """The claims of record `rid`, whose header is line `lineno`, over its body."""
    clauses = _blocks(body, lambda line: line.startswith("clause "))
    _, before = next(clauses)
    families = _families(before, kind == "families", group)
    # (line, what states it, Claim): a claim of families must list one.
    stated = [] if kind == "einstein" else [
        (lineno, f"theorem {rid}", Claim(group, False, families))]
    for (at, line), lines in clauses:
        m = re.match(r"^clause\s+(\w+)\s+(\w+):$", line)
        if not m:
            raise RegistryError(f"theorems line {at}: bad clause header")
        if kind != "einstein":
            raise RegistryError(f"theorems line {at}: clause outside a corollary")
        if m.group(2) not in ("einstein", "not_einstein"):
            raise RegistryError(f"theorems line {at}: unknown clause kind {m.group(2)!r}")
        clause_group = _named("group", m.group(1), GROUPS, at)
        families = _families(lines, m.group(2) == "einstein", clause_group)
        stated.append((at, f"clause {clause_group} einstein", Claim(clause_group, True, families)))
    if not stated:
        raise RegistryError(f"theorems line {lineno}: corollary {rid} has no clause")
    for at, name, claim in stated:
        if claim.families == ():
            raise RegistryError(f"theorems line {at}: {name} lists no family")
    return tuple(claim for _, _, claim in stated)


def load_theorems() -> list:
    blocks = _blocks(content_lines(_data_text("theorems.tab")), _THM_HEADER.match)
    _, before = next(blocks)
    if before:
        raise RegistryError(f"theorems line {before[0][0]}: content before first block")
    records: list = []
    for (lineno, line), body in blocks:
        m = _THM_HEADER.match(line)
        rid = m.group(2)
        kv = _parse_kv(m.group(3), lineno)
        kind, group = kv.get("kind"), kv.get("group")
        if kind not in ("not_soliton", "families", "einstein"):
            raise RegistryError(f"theorems line {lineno}: unknown theorem kind {kind!r}")
        if (m.group(1) == "corollary") != (kind == "einstein"):
            raise RegistryError(f"theorems line {lineno}: {m.group(1)} {rid} has "
                                f"kind={kind}; a corollary, and only one, has kind=einstein")
        if m.group(1) == "theorem":
            _named("group", group, GROUPS, lineno)
        elif group is not None:
            raise RegistryError(f"theorems line {lineno}: corollary {rid} names no "
                                f"group=; each clause names its own")
        dist = _named("dist", kv.get("dist"), DISTRIBUTIONS, lineno)
        if any(rec.id == rid for rec in records):
            raise RegistryError(f"theorems line {lineno}: record {rid} listed twice")
        records.append(TheoremRecord(rid, group, dist, kv.get("perturbed", False), kind,
                                     _claims(lineno, rid, kind, group, body)))
    return records


# --------------------------------------------------------------------------
# Errata registry: audited, corroborated mismatches between the stored
# reference tables and the values recomputed from the structure constants.
# Each entry pins the exact location and both payloads, so a new mismatch,
# or one that silently changes, is never classified as known.  The engine
# reports matching mismatches as known discrepancies (CLI exit 2) rather
# than failures (exit 1).
#
#   fixture <id> <key>         key: indices joined by commas, or 'equations'
#   stored <canonical string>  the value as stored/displayed
#   computed <canonical str>   the recomputed value
#   note <free text>           corroboration, e.g. the consistent system line
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrataEntry:
    fixture_id: str
    key: str
    stored: str
    computed: str
    note: str

    def signature(self) -> tuple:
        return (self.fixture_id, self.key, self.stored, self.computed)


def load_errata() -> list:
    blocks = _blocks(content_lines(_data_text("errata.tab")),
                     lambda line: line.startswith("fixture "))
    _, before = next(blocks)
    if before:
        raise RegistryError(f"errata line {before[0][0]}: directive before first fixture")
    entries = []
    first_line: dict = {}  # signature -> the line of the entry that gave it
    for (lineno, line), body in blocks:
        parts = line.split()
        if len(parts) != 3:
            raise RegistryError(f"errata line {lineno}: expected 'fixture <id> <key>'")
        given = {"fixture_id": parts[1], "key": parts[2], "note": ""}
        for at, text in body:
            if text.startswith(("stored ", "computed ")):
                field_name, _, value = text.partition(" ")
                if field_name in given:
                    raise RegistryError(f"errata line {at}: {field_name} given twice in one entry")
                given[field_name] = value.strip()
            elif text.startswith("note "):
                given["note"] = (given["note"] + " " + text[len("note "):].strip()).strip()
            else:
                raise RegistryError(f"errata line {at}: unknown directive")
        for field_name in ("stored", "computed"):
            if field_name not in given:
                raise RegistryError(f"errata line {lineno}: entry {parts[1]} {parts[2]} "
                                    f"lacks {field_name}")
        entry = ErrataEntry(**given)
        signature = entry.signature()
        if signature in first_line:
            raise RegistryError(f"errata line {lineno}: entry {entry.fixture_id} "
                                f"{entry.key} repeats the entry of line {first_line[signature]}")
        first_line[signature] = lineno
        entries.append(entry)
    return entries


def errata_signatures() -> set:
    return {entry.signature() for entry in load_errata()}


def check_errata_ids(signatures: set, fixtures: list) -> None:
    """Refuse an errata entry, by its signature, whose fixture id names none
    of `fixtures`: no diff could ever reproduce it."""
    ids = {fix.id for fix in fixtures}
    for fixture_id, key, _, _ in sorted(signatures):
        if fixture_id not in ids:
            raise RegistryError(f"errata entry {fixture_id} {key} names no fixture")
