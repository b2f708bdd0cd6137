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
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache
from importlib import resources

from . import scalar
from .algebra import GROUPS, Vec3, content_lines
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


_HEADER = re.compile(r"^\[(\w+)\s+([0-9][0-9.]*)(?:\s+(perturbed))?\]$")


def _parse_table_file(text: str, group: str, dist: str) -> list:
    fixtures = []
    kind = fid = None
    perturbed = False
    rows: list = []
    seen: set = set()  # the keys of the current block

    def flush():
        if kind is not None:
            fixtures.append(Fixture(fid, kind, group, dist, perturbed, tuple(rows)))

    def add(keys: tuple, expr: str, lineno: int) -> None:
        """Append one row per key; a key already listed in the block would
        leave only its last row compared, so it is refused."""
        repeated = sorted(seen.intersection(keys))
        if repeated:
            raise RegistryError(f"{group}/{dist} line {lineno}: {kind} key "
                                f"{' '.join(map(str, repeated[0]))!r} listed twice in one block")
        seen.update(keys)
        rows.extend((key, expr) for key in keys)

    for lineno, line in content_lines(text):
        m = _HEADER.match(line)
        if m:
            flush()
            kind, fid, perturbed = m.group(1), m.group(2), bool(m.group(3))
            if kind not in TABLE_KINDS:
                raise RegistryError(f"{group}/{dist} line {lineno}: unknown kind {kind!r}")
            rows = []
            seen = set()
            continue
        if line.startswith("["):
            raise RegistryError(f"{group}/{dist} line {lineno}: bad block header {line!r}")
        if kind is None:
            raise RegistryError(f"{group}/{dist} line {lineno}: content before first block")
        if kind == "system":
            rows.append((None, line))
            continue
        key_part, sep, expr = line.partition(":")
        if not sep:
            raise RegistryError(f"{group}/{dist} line {lineno}: expected 'indices : expression'")
        key_txt = key_part.strip()
        expr = expr.strip()
        if key_txt == "*":
            if expr != "0":
                raise RegistryError(f"{group}/{dist} line {lineno}: '*' rows must be zero")
            star = TABLE_KINDS[kind].star
            if star is None:
                raise RegistryError(f"{group}/{dist} line {lineno}: '*' not supported for {kind}")
            add(star, "0", lineno)
            continue
        try:
            key = tuple(int(tok) for tok in key_txt.split())
        except ValueError as exc:
            raise RegistryError(f"{group}/{dist} line {lineno}: bad indices {key_txt!r}") from exc
        arity = TABLE_KINDS[kind].arity
        if len(key) != arity or not all(1 <= k <= 3 for k in key):
            raise RegistryError(
                f"{group}/{dist} line {lineno}: {kind} rows need {arity} indices in 1..3, "
                f"got {key_txt!r}")
        add((key,), expr, lineno)
    flush()
    return fixtures


def load_fixtures() -> list:
    fixtures = []
    for dist in DISTRIBUTIONS:
        for group in GROUPS:
            text = _data_text(f"tables/{dist}/{group}.tab")
            fixtures.extend(_parse_table_file(text, group, dist))
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
#   bind <name> = <ratfun>
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


def _freeze(value):
    """Replace the lists a loader filled by tuples, inside records too."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if is_dataclass(value):
        return replace(value, **{f.name: _freeze(getattr(value, f.name)) for f in fields(value)})
    return value


def load_theorems() -> list:
    records: list = []
    claim = family = None  # the claim new families join; the family being read
    # (line, what it lacks, the list that must not stay empty), checked at the end
    to_fill: list = []
    for lineno, line in content_lines(_data_text("theorems.tab")):
        m = _THM_HEADER.match(line)
        if m:
            kv = _parse_kv(m.group(3), lineno)
            kind, group = kv.get("kind"), kv.get("group")
            if kind not in ("not_soliton", "families", "einstein"):
                raise RegistryError(f"theorems line {lineno}: unknown theorem kind {kind!r}")
            if (m.group(1) == "corollary") != (kind == "einstein"):
                raise RegistryError(f"theorems line {lineno}: {m.group(1)} {m.group(2)} has "
                                    f"kind={kind}; a corollary, and only one, has kind=einstein")
            if m.group(1) == "theorem":
                _named("group", group, GROUPS, lineno)
            elif group is not None:
                raise RegistryError(f"theorems line {lineno}: corollary {m.group(2)} names no "
                                    f"group=; each clause names its own")
            dist = _named("dist", kv.get("dist"), DISTRIBUTIONS, lineno)
            if any(rec.id == m.group(2) for rec in records):
                raise RegistryError(f"theorems line {lineno}: record {m.group(2)} listed twice")
            records.append(TheoremRecord(m.group(2), group, dist,
                                         kv.get("perturbed", False), kind, []))
            claim = family = None
            if kind == "einstein":
                to_fill.append((lineno, f"corollary {m.group(2)} has no clause", records[-1].claims))
            else:
                claim = Claim(group, False, None if kind == "not_soliton" else [])
                records[-1].claims.append(claim)
                if kind == "families":
                    to_fill.append((lineno, f"theorem {m.group(2)} lists no family", claim.families))
            continue
        if not records:
            raise RegistryError(f"theorems line {lineno}: content before first block")
        if line.startswith("clause "):
            m = re.match(r"^clause\s+(\w+)\s+(\w+):$", line)
            if not m:
                raise RegistryError(f"theorems line {lineno}: bad clause header")
            if records[-1].kind != "einstein":
                raise RegistryError(f"theorems line {lineno}: clause outside a corollary")
            if m.group(2) not in ("einstein", "not_einstein"):
                raise RegistryError(f"theorems line {lineno}: unknown clause kind {m.group(2)!r}")
            group = _named("group", m.group(1), GROUPS, lineno)
            claim = Claim(group, True, [] if m.group(2) == "einstein" else None)
            records[-1].claims.append(claim)
            if claim.families is not None:
                to_fill.append((lineno, f"clause {group} einstein lists no family", claim.families))
            family = None
            continue
        if line.startswith("family "):
            m = re.match(r"^family\s+(\w+):$", line)
            if not m:
                raise RegistryError(f"theorems line {lineno}: bad family header")
            if claim is None or claim.families is None:
                raise RegistryError(f"theorems line {lineno}: family outside a claim of families")
            family = FamilyRecord(m.group(1), m.group(1).rstrip("ab"),
                                  **{name: [] for name in _FAMILY_FIELDS.values()})
            claim.families.append(family)
            continue
        completion = line.startswith("completion ")
        body = line[len("completion "):] if completion else line
        if family is None:
            raise RegistryError(f"theorems line {lineno}: directive outside a family")
        directive, space, arg = body.partition(" ")
        if not space or (directive, completion) not in _FAMILY_FIELDS:
            raise RegistryError(f"theorems line {lineno}: unknown directive {body!r}")
        if directive == "bind":
            name, _, expr = arg.partition("=")
            entry = (name.strip(), expr.strip())
        else:
            entry = arg.strip()
        getattr(family, _FAMILY_FIELDS[directive, completion]).append(entry)
    for lineno, lack, filled in to_fill:
        if not filled:
            raise RegistryError(f"theorems line {lineno}: {lack}")
    return [_freeze(rec) for rec in records]


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
    text = _data_text("errata.tab")
    entries = []
    first_line: dict = {}  # signature -> the line of the entry that gave it
    pending: dict | None = None
    pending_line = 0

    def flush():
        nonlocal pending
        if pending is not None:
            for field_name in ("stored", "computed"):
                if field_name not in pending:
                    raise RegistryError(
                        f"errata entry {pending['fixture_id']} {pending['key']} lacks {field_name}"
                    )
            pending.setdefault("note", "")
            entry = ErrataEntry(**pending)
            signature = entry.signature()
            if signature in first_line:
                raise RegistryError(f"errata line {pending_line}: entry {entry.fixture_id} "
                                    f"{entry.key} repeats the entry of line {first_line[signature]}")
            first_line[signature] = pending_line
            entries.append(entry)
        pending = None

    for lineno, line in content_lines(text):
        if line.startswith("fixture "):
            flush()
            parts = line.split()
            if len(parts) != 3:
                raise RegistryError(f"errata line {lineno}: expected 'fixture <id> <key>'")
            pending = {"fixture_id": parts[1], "key": parts[2]}
            pending_line = lineno
        elif pending is None:
            raise RegistryError(f"errata line {lineno}: directive before first fixture")
        elif line.startswith(("stored ", "computed ")):
            field_name, _, value = line.partition(" ")
            if field_name in pending:
                raise RegistryError(f"errata line {lineno}: {field_name} given twice in one entry")
            pending[field_name] = value.strip()
        elif line.startswith("note "):
            pending["note"] = (pending.get("note", "") + " " + line[len("note "):].strip()).strip()
        else:
            raise RegistryError(f"errata line {lineno}: unknown directive")
    flush()
    return entries


def errata_signatures() -> set:
    return {entry.signature() for entry in load_errata()}
