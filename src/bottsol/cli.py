"""Command-line front end.

Exit codes: 0 all checks pass; 1 mismatch or refutation; 2 only known,
audited discrepancies; 64 usage or input errors; 141 (128 + SIGPIPE)
standard output closed early, as by `| head`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, pipeline, registry, verify
from .algebra import GROUPS, InvalidAlgebra, UnknownId, parse_custom_file, screen_jacobi
from .connection import DISTRIBUTIONS
from .soliton import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_SPOT_SAMPLES, UNKNOWNS

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _add_selector_args(p):
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--distribution", default="D", choices=sorted(DISTRIBUTIONS))
    p.add_argument("--perturbed", action="store_true")
    p.add_argument("--eta", type=int, choices=(1, -1), default=None,
                   help="sign for G4 (runs require it; other groups reject it)")


def _count(text: str) -> int:
    """argparse type of a sample count: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must not be negative: {text!r}")
    return value


def _add_common(p):
    p.add_argument("--format", default="text", choices=("text", "structured"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=_count, default=DEFAULT_SAMPLES,
                   help="minimum admissible sample points per non-existence claim")
    p.add_argument("--spot-samples", type=_count, default=DEFAULT_SPOT_SAMPLES,
                   help="instantiation points per confirmed solution family")
    _add_timing(p)


def _add_timing(p):
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings (breaks byte-identical reports)")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, as every `append` option starts from a None default."""
    parser = _Parser(prog="bottsol", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bottsol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the catalog and the registries")
    p.add_argument("--format", default="text", choices=("text", "structured"))
    p.set_defaults(run=_cmd_list)

    for name, help_text in (
        ("print-connection", "print a connection table"),
        ("print-curvature", "print a curvature table"),
        ("print-ricci", "print the Ricci form (and its symmetrization)"),
        ("print-system", "print the soliton equation system"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_selector_args(p)
        if name == "print-connection":
            p.add_argument("--kind", default="bott", choices=("levi-civita", "bott"))
        if name == "print-ricci":
            p.add_argument("--symmetrized", action="store_true")
        p.add_argument("--format", default="text", choices=("text", "structured"))
        p.set_defaults(run=_cmd_print)

    p = sub.add_parser("verify-fixture", help="verify stored reference tables")
    p.add_argument("--id", action="append", default=None, help="fixture id (repeatable)")
    p.add_argument("--format", default="text", choices=("text", "structured"))
    _add_timing(p)
    p.set_defaults(run=_cmd_verify_fixture)

    p = sub.add_parser("verify-theorem", help="verify classification theorems")
    p.add_argument("--id", action="append", default=None, help="theorem id (repeatable)")
    _add_common(p)
    p.set_defaults(run=_cmd_verify_theorem)

    p = sub.add_parser("verify-all", help="run the whole fixture and theorem corpus")
    _add_common(p)
    p.set_defaults(run=_cmd_verify_all)

    p = sub.add_parser("check-custom", help="validate a custom algebra file and print its system")
    p.add_argument("--spec-file", required=True)
    p.add_argument("--distribution", default="D", choices=sorted(DISTRIBUTIONS))
    p.add_argument("--perturbed", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="accepted for compatibility; check-custom draws no random values")
    p.add_argument("--format", default="text", choices=("text", "structured"))
    p.set_defaults(run=_cmd_check_custom)

    return parser


def _eta_for(args) -> int | None:
    if args.group == "G4":
        if args.eta is None:
            raise UnknownId("G4 requires --eta +1 or -1")
        return args.eta
    if args.eta is not None:
        raise UnknownId("--eta applies only to G4")
    return None


def _emit(args, text_lines, payload) -> None:
    if args.format == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


def _cmd_list(args) -> int:
    from . import algebra

    lines = ["groups:"]
    groups_payload = []
    for g in GROUPS:
        spec = algebra.catalog(g, eta_sign=1 if g == "G4" else None)
        kind = "unimodular" if spec.unimodular else "non-unimodular"
        cons = [str(c) + " = 0" for c in spec.equality_constraints]
        cons += [str(c) + " != 0" for c in spec.nonzero_constraints]
        extra = f" ({'; '.join(cons)})" if cons else ""
        lines.append(f"  {g}: {kind}, parameters {', '.join(spec.parameters)}{extra}")
        groups_payload.append(
            {"group": g, "class": kind, "parameters": list(spec.parameters), "constraints": cons}
        )
    lines.append("distributions:")
    for name, dist in sorted(DISTRIBUTIONS.items()):
        lines.append(f"  {name}: plane (e{dist.plane[0]}, e{dist.plane[1]}), normal e{dist.normal}")
    fixtures = registry.load_fixtures()
    theorems = registry.load_theorems()
    lines.append(f"registries: {len(fixtures)} reference tables, {len(theorems)} theorem records")
    _emit(args, lines, {
        "groups": groups_payload,
        "distributions": {
            name: {"plane": list(d.plane), "normal": d.normal} for name, d in DISTRIBUTIONS.items()
        },
        "fixtures": len(fixtures),
        "theorems": len(theorems),
    })
    return 0


def _cmd_print(args) -> int:
    eta = _eta_for(args)
    stage = pipeline.stage(args.group, args.distribution, args.perturbed, eta)
    header = f"{args.group}/{args.distribution}" + (" perturbed" if args.perturbed else "")
    if args.command == "print-system":
        shown = stage.system
        payload = {"equations": [str(eq) for eq in shown.equations],
                   "unknowns": list(UNKNOWNS)}
    else:
        if args.command == "print-connection":
            shown = stage.levi_civita if args.kind == "levi-civita" else stage.conn
        elif args.command == "print-curvature":
            shown = stage.riemann
        else:  # print-ricci
            shown = stage.sym_ricci if args.symmetrized else stage.ricci
        payload = {"table": {",".join(map(str, key)): str(v) for key, v in shown.entries()}}
    payload["context"] = header
    _emit(args, [header, str(shown)], payload)
    return 0


def _fixture_lines(rep) -> list:
    mark = {"match": "ok", "known_discrepancy": "DISCREPANCY", "mismatch": "MISMATCH"}[rep.status]
    lines = [f"[{mark}] {rep.id} {rep.kind} {rep.group}/{rep.distribution}"
             + (" perturbed" if rep.perturbed else "")]
    for d in rep.mismatches:
        lines.append(f"    [{d.key}] stored:   {d.expected}")
        lines.append(f"    {' ' * len(f'[{d.key}]')} computed: {d.computed}")
    return lines


def _select(records, ids, what):
    """The records named by --id (all of them without one), or None after
    reporting ids that name no record."""
    if not ids:
        return records
    wanted = set(ids)
    chosen = [r for r in records if r.id in wanted]
    missing = wanted - {r.id for r in chosen}
    if missing:
        print(f"unknown {what} ids: {sorted(missing)}", file=sys.stderr)
        return None
    return chosen


def _fixture_summary_line(counts) -> str:
    return (f"fixtures: {counts['match']} match, {counts['known_discrepancy']} known discrepancies, "
            f"{counts['mismatch']} mismatches")


def _cmd_verify_fixture(args) -> int:
    errata = registry.errata_signatures()
    fixtures = _select(registry.load_fixtures(), args.id, "fixture")
    if fixtures is None:
        return EX_USAGE
    summary = verify.RunSummary(fixture_reports=[verify.verify_fixture(f, errata) for f in fixtures])
    lines = []
    for rep in summary.fixture_reports:
        lines.extend(_fixture_lines(rep))
    counts = summary.counts()
    lines.append(_fixture_summary_line(counts))
    _emit(args, lines, {
        "fixtures": [verify.report_json(rep, args.timing) for rep in summary.fixture_reports],
        "summary": {status: counts[status] for status in verify.FIXTURE_STATUSES},
    })
    return summary.exit_code()


def _theorem_lines(rep) -> list:
    lines = [f"[{rep.status}] {rep.id} ({rep.kind}, "
             f"{rep.group or 'all groups'}/{rep.distribution}"
             + (" perturbed" if rep.perturbed else "") + f", {rep.points_checked} points)"]
    for f in rep.families:
        if f.status == "confirmed":
            lines.append(f"    family {f.branch}: confirmed ({f.spot_checks} instantiations)")
        else:
            lines.append(f"    family {f.branch}: {f.status}")
            if f.equation:
                lines.append(f"        violated equation: {f.equation} = 0")
            if f.residual:
                lines.append(f"        residual: {f.residual}")
            if f.completion_status:
                lines.append(f"        corrected statement: {f.completion_status}")
    if rep.witness:
        lines.append(f"    witness: {rep.witness}")
    return lines


def _cmd_verify_theorem(args) -> int:
    records = _select(registry.load_theorems(), args.id, "theorem")
    if records is None:
        return EX_USAGE
    summary = verify.RunSummary(theorem_reports=[
        verify.verify_theorem(rec, minimum_points=args.samples,
                              spot_points=args.spot_samples, seed=args.seed)
        for rec in records
    ])
    lines = []
    for rep in summary.theorem_reports:
        lines.extend(_theorem_lines(rep))
    _emit(args, lines, {"theorems": [verify.report_json(rep, args.timing)
                                     for rep in summary.theorem_reports], "seed": args.seed})
    return summary.exit_code()


def _cmd_verify_all(args) -> int:
    summary = verify.run_all(minimum_points=args.samples, spot_points=args.spot_samples,
                             seed=args.seed)
    lines = []
    for rep in summary.fixture_reports:
        if rep.status != verify.MATCH:
            lines.extend(_fixture_lines(rep))
    for rep in summary.theorem_reports:
        if rep.status != verify.CONFIRMED:
            lines.extend(_theorem_lines(rep))
    counts = summary.counts()
    lines.append(_fixture_summary_line(counts))
    lines.append(
        f"theorems: {counts['confirmed']} confirmed, {counts['discrepancy']} discrepancies, "
        f"{counts['refuted']} refuted"
    )
    payload = {
        "seed": args.seed,
        "fixtures": [verify.report_json(rep, args.timing) for rep in summary.fixture_reports],
        "theorems": [verify.report_json(rep, args.timing) for rep in summary.theorem_reports],
        "summary": counts,
    }
    _emit(args, lines, payload)
    return summary.exit_code()


def _cmd_check_custom(args) -> int:
    try:
        with open(args.spec_file, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.spec_file}: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        spec = parse_custom_file(text)
        screen_jacobi(spec)
        system = pipeline.build(spec, args.distribution, args.perturbed).system
        # str() raises ValueError on an integer past sys.get_int_max_str_digits().
        equations = [str(eq) for eq in system.equations]
        body = "\n".join(f"{eq} = 0" for eq in equations) or "(empty system)"
    except (InvalidAlgebra, ValueError) as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return EX_USAGE
    lines = [
        "custom algebra accepted (Jacobi identity holds)",
        f"soliton system for distribution {args.distribution}"
        + (" perturbed" if args.perturbed else "") + ":",
        body,
    ]
    _emit(args, lines, {
        "accepted": True,
        "distribution": args.distribution,
        "perturbed": args.perturbed,
        "equations": equations,
    })
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except (UnknownId, registry.RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull so
        # that flush cannot fail too (the recipe of the `signal` module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
