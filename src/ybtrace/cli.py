"""Command-line front end.

Verbs: catalog, ybe-check, eyb-verify, invariant, alexander, skein-check,
dress, table, classify.  Exit codes: 0 success, 1 mismatch or verification
failure, 2 usage error, 3 parse error.  Output is deterministic; identical
invocations produce byte-identical output.
"""

import argparse
import io
import json
import sys

from . import __version__
from .braid import NAMED_LINKS, BraidWord, get_named_braid, parse_braid
from .catalog import (
    CATALOG_NAMES, check_listed_positions, check_ybe, get_rmatrix, load_rmatrix_json,
    restricted_matrix,
)
from .dressing import (
    diagonal_spec_from_json,
    diagonal_spec_to_json,
    dress_diagonal,
    dressed_eyb,
    preset_dressings,
    preset_names,
)
from .errors import ParseError, UnknownName, UnknownRow, YbtraceError
from .eyb import (
    eyb_from_json,
    eyb_to_json,
    get_table1_entry,
    get_table1_eyb,
    table1_entries,
    verify_eyb,
)
from .invariant import (
    ANNIHILATING_RELATIONS,
    InvariantResult,
    SkeinFamily,
    alexander_nabla,
    check_skein_family,
    classification_report,
    compute_ts,
    get_relation,
    verify_annihilating,
)
from .ring import Scalar, context_from_json, format_scalar, scalar_to_json
from .tables import TableReport, run_table
from .tensor import matrix_to_json


def emit(result, fmt="text"):
    """Render a result object in the requested format, deterministically."""
    if fmt == "json":
        return json.dumps(_to_jsonable(result), sort_keys=True, indent=2)
    if fmt == "csv":
        rows = _to_rows(result)
        out = io.StringIO()
        header = list(rows[0]) if rows else []
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_csv_field(str(row[k])) for k in header) + "\n")
        return out.getvalue().rstrip("\n")
    return _to_text(result)


def _csv_field(text):
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _to_jsonable(result):
    if isinstance(result, Scalar):
        return scalar_to_json(result)
    if isinstance(result, InvariantResult):
        return {
            "value": scalar_to_json(result.value),
            "normalized": result.normalized,
            "unknot_value": (None if result.unknot_value is None
                             else scalar_to_json(result.unknot_value)),
        }
    if isinstance(result, TableReport):
        return {
            "table": result.table,
            "ok": result.ok,
            "cells": [
                {
                    "link": c.link,
                    "column": c.column,
                    "computed": c.computed,
                    "expected": c.expected,
                    "match": c.match,
                }
                for c in result.cells
            ],
        }
    return result


def _to_rows(result):
    if isinstance(result, TableReport):
        return [
            {
                "table": result.table,
                "link": c.link,
                "column": c.column,
                "computed": c.computed,
                "expected": c.expected,
                "match": "yes" if c.match else "no",
            }
            for c in result.cells
        ]
    if isinstance(result, list) and result and isinstance(result[0], dict):
        return result
    raise ValueError("csv output is only defined for tabular results")


def _to_text(result):
    if isinstance(result, Scalar):
        return format_scalar(result)
    if isinstance(result, InvariantResult):
        return format_scalar(result.value)
    if isinstance(result, TableReport):
        lines = []
        for cell in result.cells:
            status = "PASS" if cell.match else "FAIL"
            line = f"table {result.table} | {cell.link} | {cell.column} | {status}"
            if not cell.match:
                line += f" | computed {cell.computed} | expected {cell.expected}"
            lines.append(line)
        lines.append(f"table {result.table}: {'all cells match' if result.ok else 'MISMATCH'}")
        return "\n".join(lines)
    if isinstance(result, list) and result and isinstance(result[0], dict):
        header = list(result[0])
        lines = ["  ".join(header)]
        for row in result:
            lines.append("  ".join(str(row[k]) for k in header))
        return "\n".join(lines)
    return str(result)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an overlong number
            raise ParseError(f"{path}: {exc}") from None


def _operator_from_args(args):
    if getattr(args, "preset", None):
        return preset_dressings(args.preset).eyb
    if args.rmatrix is None:
        raise UnknownName("an operator is required: --rmatrix/--row or --preset")
    return get_table1_eyb(args.rmatrix, args.row, args.sign)


def _resolve_braid(args):
    """The braid named by --link, else the word --braid on --strands strands."""
    if args.link:
        return get_named_braid(args.link).braid
    if args.braid is None:
        raise UnknownName("give --braid or --link")
    return parse_braid(args.braid, args.strands)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ybtrace",
        description="Exact link invariants from two-dimensional Yang-Baxter solutions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("catalog", help="list catalog matrices, operator rows, links")
    p.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=["rmatrices", "eybs", "links", "presets", "relations", "all"],
    )

    p = sub.add_parser("ybe-check", help="check the braid-form Yang-Baxter equation")
    p.add_argument("--rmatrix", choices=CATALOG_NAMES)
    p.add_argument("--file", help="matrix JSON file")
    p.add_argument("--context", help="context JSON file (with --file)")
    p.add_argument("--unchecked", action="store_true",
                   help="load a custom matrix without rejecting non-solutions")

    p = sub.add_parser("eyb-verify", help="verify the enhancement conditions")
    p.add_argument("--rmatrix", choices=CATALOG_NAMES)
    p.add_argument("--row", type=int, default=1)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--file", help="operator JSON file")
    p.add_argument("--context", help="context JSON file (with --file)")

    p = sub.add_parser("invariant", help="trace invariant of a braid closure")
    p.add_argument("--rmatrix", choices=CATALOG_NAMES)
    p.add_argument("--row", type=int, default=1)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--preset", choices=preset_names())
    p.add_argument("--braid", help="whitespace-separated letters, e.g. '1 1 1'")
    p.add_argument("--link", help="a named link instead of --braid")
    p.add_argument("--strands", type=int)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("alexander", help="the regularized one-variable invariant")
    p.add_argument("--braid")
    p.add_argument("--link")
    p.add_argument("--strands", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("skein-check", help="verify an annihilating relation and its skein sum")
    p.add_argument("--relation", required=True, choices=sorted(ANNIHILATING_RELATIONS))
    p.add_argument("--rmatrix", choices=CATALOG_NAMES)
    p.add_argument("--row", type=int, default=1)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--base", default="", help="base braid word")
    p.add_argument("--strands", type=int)
    p.add_argument("--position", type=int, default=1,
                   help="generator index receiving the crossing powers")

    p = sub.add_parser("dress", help="assemble and verify a dressed solution")
    p.add_argument("--preset", choices=preset_names())
    p.add_argument("--file", help="diagonal dressing spec JSON")
    p.add_argument("--context", help="context JSON file (with --file)")
    p.add_argument("--base", choices=CATALOG_NAMES, help="base matrix (with --file)")
    p.add_argument("--base-row", type=int, default=1)
    p.add_argument("--mode", choices=["trivial", "nontrivial"], default="nontrivial")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--no-check", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("table", help="recompute a reference table and diff it")
    p.add_argument("which", type=int, choices=[1, 2, 3, 4])
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("classify", help="invariant classification over the named links")
    p.add_argument("--format", choices=["text", "json", "csv"], default="csv")
    p.add_argument("--sign", choices=["+", "-"], default="+")

    return parser


def _cmd_catalog(args, out):
    what = args.what
    if what in ("rmatrices", "all"):
        for name in CATALOG_NAMES:
            spec = get_rmatrix(name)
            gens = ", ".join(spec.ctx.generators)
            limits = " ".join(f"{g}!=0" for g, _ in spec.constraints)
            out(f"rmatrix {name}  generators: {gens}  nonsingular when: {limits or 'always'}")
    if what in ("eybs", "all"):
        for entry in table1_entries():
            restr = " ".join(f"{g}={v}" for g, v in entry.restrictions) or "-"
            out(
                f"eyb {entry.rmatrix} row {entry.row}  tag: {entry.tag}  "
                f"restriction: {restr}"
            )
    if what in ("links", "all"):
        for name in NAMED_LINKS:
            link = get_named_braid(name)
            word = str(link.braid) or "(empty)"
            out(
                f"link {name}  braid: {word}  strands: {link.braid.strands}  "
                f"components: {link.components}"
            )
    if what in ("presets", "all"):
        for name in preset_names():
            out(f"preset {name}")
    if what in ("relations", "all"):
        for name in sorted(ANNIHILATING_RELATIONS):
            spec = ANNIHILATING_RELATIONS[name]
            terms = " + ".join(f"({c})*R^{p}" for p, c in spec.coefficients)
            out(f"relation {name}: {terms} = 0")
    return 0


def _cmd_ybe_check(args, out):
    if args.rmatrix:
        matrix = get_rmatrix(args.rmatrix).matrix
    elif args.file:
        if not args.context:
            raise UnknownName("--file needs --context")
        ctx = context_from_json(_load_json(args.context))
        obj = _load_json(args.file)
        # an unchecked load is still checked below, so it too refuses an
        # oversized matrix before any of its scalars is parsed
        check_listed_positions(obj)
        try:
            matrix = load_rmatrix_json(ctx, obj, checked=not args.unchecked)
        except ValueError as exc:
            out(str(exc))
            return 1
        if not args.unchecked:  # the checked load has passed the Yang-Baxter check
            out("YBE: ok")
            return 0
    else:
        raise UnknownName("give --rmatrix or --file")
    verdict = check_ybe(matrix)
    if verdict:
        out("YBE: ok")
        return 0
    out(f"YBE: FAIL at {verdict.index}, residual {format_scalar(verdict.residual)}")
    return 1


def _cmd_eyb_verify(args, out):
    if args.file:
        if not args.context:
            raise UnknownName("--file needs --context")
        ctx = context_from_json(_load_json(args.context))
        op = eyb_from_json(ctx, _load_json(args.file))
    else:
        if not args.rmatrix:
            raise UnknownName("give --rmatrix or --file")
        op = get_table1_eyb(args.rmatrix, args.row, args.sign)
    verdict = verify_eyb(op)
    if verdict:
        out("EYB: ok")
        return 0
    out(f"EYB: FAIL condition {verdict.condition}")
    return 1


def _cmd_invariant(args, out):
    op = _operator_from_args(args)
    result = compute_ts(op, _resolve_braid(args), normalized=args.normalized)
    out(emit(result, args.format))
    return 0


def _cmd_alexander(args, out):
    value = alexander_nabla(_resolve_braid(args))
    out(emit(value, args.format))
    return 0


def _cmd_skein_check(args, out):
    if args.position < 1:
        raise UnknownName(f"--position {args.position} names no generator; "
                          "they are numbered from 1")
    word = parse_braid(args.base, args.strands)
    base = BraidWord(max(word.strands, args.position + 1), word.letters)
    relation = get_relation(args.relation)
    rmatrix = args.rmatrix or relation.rmatrix
    op = get_table1_eyb(rmatrix, args.row, args.sign)
    coeffs = []
    for power, text in relation.coefficients:
        try:
            coeffs.append((power, op.ctx.parse(text)))
        except ParseError as exc:  # the row fixes or lacks a generator of the relation
            raise UnknownName(f"row {args.row} of {rmatrix} cannot carry relation "
                              f"{args.relation}: its coefficient {text!r} has an {exc}") from None
    # the relation must annihilate the R that the skein sum is taken over
    verdict = verify_annihilating(op.r, coeffs)
    if not verdict:
        out(f"annihilating relation {args.relation}: FAIL")
        return 1
    out(f"annihilating relation {args.relation}: ok")
    family = SkeinFamily(base, args.position, tuple(coeffs))
    check = check_skein_family(op, family)
    if check:
        out("skein family sum: 0")
        return 0
    out(f"skein family sum: nonzero residual {format_scalar(check.residual)}")
    return 1


def _cmd_dress(args, out):
    if args.preset:
        preset = preset_dressings(args.preset)
        dressed, op, spec = preset.matrix, preset.eyb, preset.spec
    elif args.file:
        if not args.context or not args.base:
            raise UnknownName("--file needs --context and --base")
        ctx = context_from_json(_load_json(args.context))
        spec = diagonal_spec_from_json(ctx, _load_json(args.file))
        entry = get_table1_entry(args.base, args.base_row)
        # the row's own R, dressed before the row's mu text is parsed
        base_matrix = restricted_matrix(entry.rmatrix, entry.restrictions, ctx)
        dressed = dress_diagonal(base_matrix, spec, check=not args.no_check)
        op = dressed_eyb(entry.build(ctx=ctx), dressed, spec, mode=args.mode,
                         sign=args.sign, check=not args.no_check)
    else:
        raise UnknownName("give --preset or --file")
    if args.format == "json":
        payload = {
            "spec": diagonal_spec_to_json(spec),
            "matrix": matrix_to_json(dressed),
            "eyb": eyb_to_json(op),
        }
        out(json.dumps(payload, sort_keys=True, indent=2))
    else:
        out(f"dressed matrix side {dressed.side} with {len(dressed.entries)} entries; checks passed"
            if not args.no_check else
            f"dressed matrix side {dressed.side} with {len(dressed.entries)} entries; checks skipped")
    return 0


def _cmd_table(args, out):
    report = run_table(args.which)
    out(emit(report, args.format))
    return 0 if report.ok else 1


def _cmd_classify(args, out):
    rows = classification_report(sign=args.sign)
    out(emit(rows, args.format))
    return 0 if all(r["match"] != "no" for r in rows) else 1


_COMMANDS = {
    "catalog": _cmd_catalog,
    "ybe-check": _cmd_ybe_check,
    "eyb-verify": _cmd_eyb_verify,
    "invariant": _cmd_invariant,
    "alexander": _cmd_alexander,
    "skein-check": _cmd_skein_check,
    "dress": _cmd_dress,
    "table": _cmd_table,
    "classify": _cmd_classify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    stdout = sys.stdout

    def out(text):
        print(text, file=stdout)

    try:
        return _COMMANDS[args.verb](args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (UnknownName, UnknownRow) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except YbtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
