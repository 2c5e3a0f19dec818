"""Command-line front end: sequence tables, series inspection, identity
audits, and congruence scans.

Data goes to stdout, diagnostics to stderr. Output is deterministic for a
given invocation: canonical row ordering, normalized rational rendering, no
timestamps, and a version string only in the text-format header comment.

Exit codes (stable, for CI use):
    0   success / every audited point HOLDS
    1   at least one audited point FAILS
    2   no failures, but some points UNDEFINED
    64  usage, parse, or parameter-validation error
    70  internal error: a bug, reported on one stderr line, never as FAILS
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from argparse import ArgumentTypeError
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from . import __version__
from .audit import (
    CATALOGUE,
    DEFAULT_GRID,
    PREFACTOR_EXPONENTS,
    PREFACTOR_POWERS,
    GridSpec,
    duality_prefactor,
    exit_code,
    run_identity,
)
from .exact import SingularParameterError, format_rational, parse_rational
from .sequences import (
    Family,
    Params,
    explicit_sequence,
    oracle_sequence,
)
from .series import KERNEL_NAMES, egf_coeff, kernel
from .stirling import FIRST_UNSIGNED, SECOND, build_table

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def convert_arg_line_to_args(self, arg_line):
        """A file's line split at whitespace. No word may start with @: a file
        naming itself would recurse. encode() rejects the lone surrogates that
        Python 3.12+ reads from bytes that are not text, as 3.10-3.11 fail."""
        arg_line.encode()
        args = arg_line.split()
        if any(arg.startswith("@") for arg in args):
            self.error(f"an argument file may not name another file: {arg_line.strip()!r}")
        return args


# The one congruence token, and the check that eq9..eq12 share: only
# they take a variant prefactor.
_CONGRUENCE_TOKEN = "thm8"
_DUALITY_ROWS = CATALOGUE["EQ9"][1]


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_rational(value: Fraction) -> dict[str, str]:
    """Numerator/denominator as decimal strings, safe for any precision."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


# JSON of the values None, True and False.
_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_param(value: Fraction | int | str | None) -> str:
    """A report scalar as JSON text: an int, null or a bool, a string, or a
    Fraction as "p/q" text. It writes every point field, note, reason and
    variant, and every lhs or rhs that is not a Fraction."""
    # the hot int (the n field) by its exact type first: isinstance of an int
    # goes through ABCMeta; a str or Fraction subclass takes the isinstance tests
    kind = type(value)
    if kind is int:
        return str(value)
    if value is None or kind is bool:
        return _JSON_LITERALS[value]
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return f'"{format_rational(value)}"' if isinstance(value, Fraction) else str(value)


def _json_point(point: dict) -> str:
    """A point as JSON object text, its keys sorted, indented as a verdict field."""
    fields = ",\n".join(
        f"            {encode_basestring_ascii(key)}: {_json_param(point[key])}"
        for key in sorted(point)
    )
    return f"{{\n{fields}\n          }}" if fields else "{}"


def _json_side(value: Fraction | int | str | None) -> str:
    """lhs or rhs: a Fraction as the {"den", "num"} object, read from its slots
    as `hlpoly.exact` reads them, any other value as _json_param writes it."""
    # isinstance tests an exact Fraction by its type before any ABCMeta hook
    if isinstance(value, Fraction):
        return (
            f'{{\n            "den": "{value._denominator}",\n'
            f'            "num": "{value._numerator}"\n          }}'
        )
    return _json_param(value)


def _json_reports(command: str, grid: GridSpec, reports, variant: str | None) -> str:
    """An audit or congruence-scan result as the text that
    canonical_json({"command", "grid", "reports"}) gives, written field by
    field with the keys in sorted order. An indented json.dumps runs the
    pure-Python encoder, which took most of an audit's run time; only the
    small grid header still goes through it. The pieces are joined once, so
    the text is held in memory once beside them."""
    # the grid's fields alone, not vars(grid), which holds its sorted keys too
    header = {field: getattr(grid, field) for field in GridSpec.FIELDS}
    header["pairs"] = [[format_rational(alpha), format_rational(a)] for alpha, a in grid.pairs]
    head = json.dumps({"command": command, "grid": header}, indent=2, sort_keys=True)
    # head ends with the grid's closing "\n}"; "reports" sorts after "grid"
    parts = [head[:-2], ',\n  "reports": [']
    points: dict = {}
    # a verdict's constant fields -> the text around its lhs, point and rhs,
    # rendered once per combination (str, None or bool: equal values, equal text)
    constants: dict = {}

    def verdict_texts(verdicts) -> Iterator[str]:
        for v, point, lhs, rhs in _verdict_texts(verdicts, points, _json_point, _json_side):
            key = v.status, v.reason, v.hypothesis_ok, v.hypothesis_note
            kept = constants.get(key)
            if kept is None:
                kept = constants[key] = (
                    "        {\n"
                    f'          "hypothesis_note": {_json_param(v.hypothesis_note)},\n'
                    f'          "hypothesis_ok": {_JSON_LITERALS[v.hypothesis_ok]},\n'
                    '          "lhs": ',
                    f',\n          "reason": {_json_param(v.reason)},\n          "rhs": ',
                    f',\n          "status": {encode_basestring_ascii(v.status)}\n        }}',
                )
            head, reason, status = kept
            yield f'{head}{lhs},\n          "point": {point}{reason}{rhs}{status}'

    for i, report in enumerate(reports):
        verdicts = ",\n".join(verdict_texts(report.verdicts))
        verdicts = f"[\n{verdicts}\n      ]" if verdicts else "[]"
        summary = ",\n".join(
            f"        {encode_basestring_ascii(key)}: {count}"
            for key, count in sorted(report.summary.items())
        )
        parts.append(",\n" if i else "\n")
        parts.append(
            "    {\n"
            f'      "identity": {encode_basestring_ascii(report.identity)},\n'
            f'      "points": {len(report.verdicts)},\n'
            f'      "summary": {{\n{summary}\n      }},\n'
            f'      "variant": {_json_param(variant)},\n'
            f'      "verdicts": {verdicts}\n'
            "    }"
        )
    parts.append("\n  ]\n}\n" if reports else "]\n}\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# flag types, applied by argparse to flags (argv or @FILE) and string defaults
# ---------------------------------------------------------------------------

# Output is built whole, so its rows are bounded before any work: a triangle of
# 300 rows is about 11 MB of CSV (first kind, largest entry 614 digits), and a
# series of order 300 reaches 300!, 615 digits. Family tables share the bound.
_MAX_ROWS = 300


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _row_count(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise ArgumentTypeError(f"must be >= 0, got {value}")
    if value > _MAX_ROWS:
        raise ArgumentTypeError(f"must be <= {_MAX_ROWS}, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError:
        raise ArgumentTypeError(f"must be a rational like 3 or 1/2, got {text!r}") from None


def _alpha(text: str) -> Fraction:
    alpha = _rational(text)
    if alpha == 0:
        raise ArgumentTypeError("alpha must be nonzero")
    return alpha


def _integers(text: str) -> tuple[int, ...]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise ArgumentTypeError("must be a comma list of integers, got none")
    return tuple(_integer(item) for item in items)


def _pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ArgumentTypeError(f"must look like ALPHA,A, got {text!r}")
    return _alpha(parts[0]), _rational(parts[1])


def _prefactor(text: str) -> tuple[str, int]:
    """EXP,POWER of the prefactor family (-1)^EXP * (m!)^POWER, exact tokens only."""
    exp, _, power = text.partition(",")
    if exp not in PREFACTOR_EXPONENTS or power not in map(str, PREFACTOR_POWERS):
        raise ArgumentTypeError(
            f"must be EXP,POWER with EXP one of {', '.join(PREFACTOR_EXPONENTS)} and "
            f"POWER one of {', '.join(map(str, PREFACTOR_POWERS))}, got {text!r}"
        )
    return exp, int(power)


def _listed(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hlpoly",
        description=__doc__.splitlines()[0],
        epilog="@FILE anywhere in the arguments reads flags from FILE, one or more per line.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"hlpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, handler) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("table", "sequence-family tables or Stirling triangles", _cmd_table)
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--stirling", choices=["1", "2"])
    p.add_argument("--k", type=_integer, default="1", help="integer exponent (default 1)")
    p.add_argument("--alpha", type=_alpha, default="1", help="rational, e.g. 1/2 (default 1)")
    p.add_argument("--a", type=_rational, default="1", help="rational (default 1)")
    p.add_argument("--n-max", type=_row_count, default="8", help="last index (default 8)")
    p.add_argument(
        "--max-n", type=_row_count, default="10", help="last triangle row (default 10)"
    )
    p.add_argument(
        "--method",
        choices=["formula", "oracle", "both"],
        default="formula",
        help="Stirling-sum path, generating-function path, or both (default formula)",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("series", "coefficients of a named kernel series", _cmd_series)
    p.add_argument("--kernel", choices=list(KERNEL_NAMES), required=True)
    p.add_argument(
        "--order", type=_row_count, required=True, help=f"truncation order, <= {_MAX_ROWS}"
    )
    p.add_argument(
        "--egf", action="store_true", help="print n!*c_n instead of c_n"
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    # The grid flags have no defaults: GridSpec fills them in (see _grid_from_args).
    grid = DEFAULT_GRID
    audit = add("audit", "check catalogued identities over a parameter grid", _cmd_audit)
    audit.add_argument(
        "--identity",
        choices=list(dict.fromkeys(token for token, _, _ in CATALOGUE.values()))
        + ["all"],
        required=True,
    )
    audit.add_argument(
        "--n-max", type=_integer, help=f"largest sequence index (default {grid.n_max})"
    )
    audit.add_argument(
        "--k-values",
        type=_integers,
        help="comma list; write --k-values=-2,... for negatives "
        f"(default {_listed(grid.k_values)})",
    )
    # a scan is a thm8 audit with its own flags: no stirling-ortho triangle
    # or variant prefactor, a family filter, and k >= 1 throughout
    audit.set_defaults(family="all")
    scan = add("congruence-scan", "prime-period congruence scan across families", _cmd_audit)
    scan.set_defaults(identity=_CONGRUENCE_TOKEN, variant_prefactor=None)
    scan.add_argument("--family", choices=[f.value for f in Family] + ["all"], default="all")
    scan.add_argument("--k-values", type=_integers, default="1,2,3", help="comma list, k >= 1")
    pairs = " ".join(f"{format_rational(al)},{format_rational(a)}" for al, a in grid.pairs)
    pair_help = f"ALPHA,A, repeatable; --pair=-1/2,2 for a negative alpha (default {pairs})"
    for p in (audit, scan):
        p.add_argument("--pair", type=_pair, action="append", help=pair_help)
        p.add_argument(
            "--primes",
            type=_integers,
            help=f"comma list of primes below 2**16 (default {_listed(grid.primes)})",
        )
        p.add_argument(
            "--multipliers",
            type=_integers,
            help=f"congruence index multiplier*prime (default {_listed(grid.multipliers)})",
        )
    audit.add_argument(
        "--stirling-n-max",
        type=_integer,
        help=f"triangle size for stirling-ortho (default {grid.stirling_n_max})",
    )
    audit.add_argument(
        "--variant-prefactor",
        type=_prefactor,
        metavar="EXP,POWER",
        help="replacement prefactor (-1)^EXP * (m!)^POWER for eq9..eq12, EXP one of "
        "0, m, n, m+n and POWER one of -1, 0, 1; e.g. n,-1 for (-1)^n / m!",
    )
    audit.add_argument("--format", choices=["text", "json"], default="text")
    scan.add_argument("--format", choices=["text", "csv", "json"], default="text")

    return parser


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    # exact types, the most frequent first; a subclass falls through to str()
    kind = type(value)
    if kind is Fraction:
        return format_rational(value)
    if kind is int or kind is str:
        return str(value)
    if value is None:
        return "-"
    if kind is bool:
        return "yes" if value else "no"
    return str(value)


def _aligned_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    line = "  ".join(f"{{:<{width}}}" for width in widths).format
    return "\n".join([line(*row).rstrip() for row in (header, *rows)])


def _verdict_texts(verdicts, points: dict, point_text, side_text) -> Iterator[tuple]:
    """(verdict, point's text, lhs's text, rhs's text) for each verdict: every
    writer's one walk. `points`, the command's map id(point) -> (point, text),
    renders each point object once (holding it keeps its id from reuse), and
    rhs reuses lhs's text when one object is both, as in every HOLDS verdict."""
    for v in verdicts:
        kept = points.get(id(v.point))
        if kept is None:
            kept = points[id(v.point)] = v.point, point_text(v.point)
        lhs = side_text(v.lhs)
        yield v, kept[1], lhs, lhs if v.rhs is v.lhs else side_text(v.rhs)


def _point_cells(point: dict) -> list[str]:
    return [_cell(value) for value in point.values()]


def _report_rows(report, points: dict) -> tuple[list[str], Iterator[list[str]]]:
    """The report's column header and a lazy iterator over its rows."""
    point_keys = list(report.verdicts[0].point.keys()) if report.verdicts else []
    with_hyp = any(v.hypothesis_ok is not None for v in report.verdicts)
    header = point_keys + ["status", "lhs", "rhs", "reason"]
    if with_hyp:
        header += ["hypothesis_ok", "hypothesis_note"]

    def rows():
        for v, point, lhs, rhs in _verdict_texts(report.verdicts, points, _point_cells, _cell):
            row = [*point, v.status, lhs, rhs, _cell(v.reason)]
            if with_hyp:
                row += [_cell(v.hypothesis_ok), _cell(v.hypothesis_note)]
            yield row

    return header, rows()


def _render_reports_text(reports, variant: str | None) -> str:
    lines = [f"# hlpoly {__version__}"]
    points: dict = {}
    for report in reports:
        s = report.summary
        title = f"identity {report.identity.lower()}"
        if variant:
            title += f" (variant prefactor: {variant})"
        lines.append("")
        lines.append(
            f"{title}: points={len(report.verdicts)} "
            f"holds={s['holds']} fails={s['fails']} undefined={s['undefined']}"
        )
        header, rows = _report_rows(report, points)
        rows = list(rows)
        if rows:
            lines.append(_aligned_table(header, rows))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns its exit code and its stdout as text pieces, and
# main writes them
# ---------------------------------------------------------------------------


def _cmd_table(args) -> tuple[int, Iterable[str]]:
    if (args.family is None) == (args.stirling is None):
        raise UsageError("table needs exactly one of --family or --stirling")

    if args.stirling is not None:
        kind = FIRST_UNSIGNED if args.stirling == "1" else SECOND
        rows = build_table(kind, args.max_n)
        if args.format == "json":
            payload = {
                "command": "table",
                "kind": f"stirling{args.stirling}",
                "max_n": args.max_n,
                "rows": [[str(entry) for entry in row] for row in rows],
            }
            return EXIT_OK, [canonical_json(payload)]
        return EXIT_OK, ["".join(",".join(map(str, row)) + "\n" for row in rows)]

    family = Family(args.family)
    params = Params(args.k, args.alpha, args.a)
    # looked up when the command runs, so that a test can patch either path
    paths = {"formula": explicit_sequence, "oracle": oracle_sequence}
    both = args.method == "both"
    names = list(paths) if both else [args.method]
    rows = list(zip(*(paths[name](family, args.n_max, params) for name in names)))
    # for both, one check on the values that JSON's "agree" and CSV's last column read
    agree = [row[0] == row[-1] for row in rows]

    if args.format == "json":
        keys = names if both else ["value"]
        values = []
        for n, row in enumerate(rows):
            entry = {"n": n, **{key: _json_rational(v) for key, v in zip(keys, row)}}
            if both:
                entry["agree"] = agree[n]
            values.append(entry)
        payload = {
            "command": "table",
            "family": family.value,
            "k": params.k,
            "alpha": _json_rational(params.alpha),
            "a": _json_rational(params.a),
            "method": args.method,
            "values": values,
        }
        return EXIT_OK, [canonical_json(payload)]
    # Built whole, so that a row that fails to render leaves no partial table.
    lines = []
    for n, row in enumerate(rows):
        cells = [str(n), *map(format_rational, row)]
        if both:
            cells.append("" if agree[n] else f"formula={cells[1]};oracle={cells[2]}")
        lines.append(",".join(cells) + "\n")
    return EXIT_OK, ["".join(lines)]


def _cmd_series(args) -> tuple[int, Iterable[str]]:
    f = kernel(args.kernel, args.order)
    out = [egf_coeff(f, n) if args.egf else f.coefficient(n) for n in range(args.order + 1)]
    if args.format == "json":
        payload = {
            "command": "series",
            "kernel": args.kernel,
            "order": args.order,
            "egf": bool(args.egf),
            "coefficients": [_json_rational(c) for c in out],
        }
        return EXIT_OK, [canonical_json(payload)]
    return EXIT_OK, ["".join(f"{n},{format_rational(c)}\n" for n, c in enumerate(out))]


def _grid_from_args(args) -> GridSpec:
    """The grid of the flags given; GridSpec fills in the rest and checks it."""
    given = {field: getattr(args, field, None) for field in GridSpec.FIELDS}
    given["pairs"] = tuple(args.pair) if args.pair else None
    try:
        return GridSpec(**{key: value for key, value in given.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_audit(args) -> tuple[int, Iterable[str]]:
    """An audit or congruence-scan result in the requested format, and the
    exit code its verdicts give."""
    grid = _grid_from_args(args)
    labels = [
        label
        for label, (token, _, family) in CATALOGUE.items()
        # STIRLING_ORTHO has no family, and only a scan filters by family
        if args.identity in (token, "all") and args.family in ("all", family and family.value)
    ]
    if args.command == "congruence-scan":
        if min(grid.k_values) < 1:
            raise UsageError("congruence scans require k >= 1")
    elif args.identity == _CONGRUENCE_TOKEN and max(grid.k_values) < 1:
        raise UsageError("thm8 needs at least one k >= 1 in --k-values")
    prefactor = variant = None
    if args.variant_prefactor is not None:
        if any(CATALOGUE[label][1] is not _DUALITY_ROWS for label in labels):
            raise UsageError("--variant-prefactor only applies to eq9..eq12")
        prefactor = duality_prefactor(*args.variant_prefactor)
        variant = _listed(args.variant_prefactor)

    # one record per grid point for the whole command: labels share its memos
    points = grid.points()
    reports = [run_identity(label, grid, prefactor, points) for label in labels]
    if args.format == "json":
        output = [_json_reports(args.command, grid, reports, variant)]
    elif args.format == "csv":
        output = _csv_lines(reports)
    else:
        output = [_render_reports_text(reports, variant)]
    return exit_code(reports), output


def _csv_point(point: dict) -> str:
    """A point's cells, each followed by a comma, kept as one string, not a list."""
    return "".join(f"{cell}," for cell in _point_cells(point))


def _csv_lines(reports) -> Iterator[str]:
    # Only congruence-scan offers csv. Its reports all have the columns
    # k, alpha, a, n, p and the hypothesis flag, and none is empty. Rows
    # stream: joining a large scan's rows first raised peak memory by 5%.
    points: dict = {}
    # a verdict's constant fields after rhs -> the row's text from reason on,
    # rendered once per combination, as the JSON writer's `constants` are
    tails: dict = {}
    yield ",".join(["identity"] + _report_rows(reports[0], points)[0]) + "\n"
    for report in reports:
        label = report.identity.lower()
        for v, point, lhs, rhs in _verdict_texts(report.verdicts, points, _csv_point, _cell):
            key = v.reason, v.hypothesis_ok, v.hypothesis_note
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = ",".join(map(_cell, key)) + "\n"
            yield f"{label},{point}{v.status},{lhs},{rhs},{tail}"


def _write(output: Iterable[str]) -> None:
    """Write the pieces to stdout. A reader that closes the pipe early ends
    the output, as the end of a file would."""
    try:
        for piece in output:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at the null device
        # keeps that flush from raising too (Python's note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = _build_parser().parse_args(argv)
        except UnicodeError as exc:  # an argument file that is not text
            raise UsageError(f"cannot read argument file: {exc}")
        try:
            code, output = args.handler(args)
        except SingularParameterError as exc:
            raise UsageError(f"singular parameter: {exc}")
        _write(output)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Exit 1 means FAILS, so an uncaught exception must not end with it.
        # traceback is imported here so that a normal run does not load it.
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = f"{type(exc).__name__}: {exc}".splitlines()[0]
        print(
            f"error: internal error: {detail} "
            f"(in {where.name}, {os.path.basename(where.filename)}:{where.lineno})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
