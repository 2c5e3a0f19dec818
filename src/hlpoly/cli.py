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
import ast
import json
import math
import operator
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
    GridSpec,
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


# The one congruence token, and the row function that eq9..eq12 share: only
# they take a variant prefactor.
_CONGRUENCE_TOKEN = "thm8"
_DUALITY_ROWS = CATALOGUE["EQ9"][1]


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_rational(value: Fraction) -> dict[str, str]:
    """Numerator/denominator as decimal strings, safe for any precision."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


# JSON of the verdict fields that hold None or a bool.
_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_text(value: str | None) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


def _json_param(value: Fraction | int | str) -> str:
    """A point's parameter: a Fraction as "p/q" text, a string, or an int."""
    if isinstance(value, Fraction):
        return f'"{format_rational(value)}"'
    return encode_basestring_ascii(value) if isinstance(value, str) else str(value)


def _json_point(point: dict) -> str:
    """A verdict's point, indented as a verdict field."""
    fields = [
        f"            {encode_basestring_ascii(key)}: {_json_param(value)}"
        for key, value in sorted(point.items())
    ]
    return "{\n" + ",\n".join(fields) + "\n          }" if fields else "{}"


def _json_side(value: Fraction | int | None) -> str:
    """lhs or rhs: a Fraction as the {"den", "num"} object, an int residue, or null."""
    if isinstance(value, Fraction):
        return (
            f'{{\n            "den": "{value.denominator}",\n'
            f'            "num": "{value.numerator}"\n          }}'
        )
    return "null" if value is None else str(value)


def _json_reports(command: str, grid: GridSpec, reports, variant: str | None) -> str:
    """An audit or congruence-scan result as the text that
    canonical_json({"command", "grid", "reports"}) gives, written field by
    field with the keys in sorted order. An indented json.dumps runs the
    pure-Python encoder, which took most of an audit's run time; only the
    small grid header still goes through it. The pieces are joined once, so
    the text is held in memory once beside them."""
    pairs = [[format_rational(alpha), format_rational(a)] for alpha, a in grid.pairs]
    head = json.dumps(
        {"command": command, "grid": {**vars(grid), "pairs": pairs}}, indent=2, sort_keys=True
    )
    # head ends with the grid's closing "\n}"; "reports" sorts after "grid"
    parts = [head[:-2], ',\n  "reports": [']
    for i, report in enumerate(reports):
        verdicts = ",\n".join(
            "        {\n"
            f'          "hypothesis_note": {_json_text(v.hypothesis_note)},\n'
            f'          "hypothesis_ok": {_JSON_LITERALS[v.hypothesis_ok]},\n'
            f'          "lhs": {_json_side(v.lhs)},\n'
            f'          "point": {_json_point(v.point)},\n'
            f'          "reason": {_json_text(v.reason)},\n'
            f'          "rhs": {_json_side(v.rhs)},\n'
            f'          "status": {encode_basestring_ascii(v.status)}\n'
            "        }"
            for v in report.verdicts
        )
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
            f'      "variant": {_json_text(variant)},\n'
            f'      "verdicts": {verdicts}\n'
            "    }"
        )
    parts.append("\n  ]\n}\n" if reports else "]\n}\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# flag types, applied by argparse to flags, config values and string defaults
# ---------------------------------------------------------------------------

# A triangle of 300 rows is about 11 MB of CSV (first kind, largest entry 614
# digits); the text is built whole, so the size is bounded before any work.
_MAX_TRIANGLE_N = 300


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _count(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _triangle_size(text: str) -> int:
    value = _count(text)
    if value > _MAX_TRIANGLE_N:
        raise ArgumentTypeError(f"must be <= {_MAX_TRIANGLE_N}, got {value}")
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


def _listed(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="hlpoly", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hlpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    subparsers: dict[str, _Parser] = {}

    def add(name: str, help_text: str, handler) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key/value JSON file mirroring flags")
        p.set_defaults(handler=handler)
        subparsers[name] = p
        return p

    p = add("table", "sequence-family tables or Stirling triangles", _cmd_table)
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--stirling", choices=["1", "2"])
    p.add_argument("--k", type=_integer, default="1", help="integer exponent (default 1)")
    p.add_argument("--alpha", type=_alpha, default="1", help="rational, e.g. 1/2 (default 1)")
    p.add_argument("--a", type=_rational, default="1", help="rational (default 1)")
    p.add_argument("--n-max", type=_count, default="8", help="last index (default 8)")
    p.add_argument(
        "--max-n", type=_triangle_size, default="10", help="last triangle row (default 10)"
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
    p.add_argument("--order", type=_count, required=True, help="truncation order")
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
    scan = add(
        "congruence-scan", "prime-period congruence scan across families", _cmd_congruence_scan
    )
    scan.add_argument("--family", choices=[f.value for f in Family] + ["all"], default="all")
    scan.add_argument("--k-values", type=_integers, default="1,2,3", help="comma list, k >= 1")
    pairs = " ".join(f"{format_rational(al)},{format_rational(a)}" for al, a in grid.pairs)
    for p in (audit, scan):
        p.add_argument(
            "--pair", type=_pair, action="append", help=f"ALPHA,A, repeatable (default {pairs})"
        )
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
        default=None,
        help="replacement prefactor over n, m for eq9..eq12, e.g. '(-1)**(m+n)/fact(m)'",
    )
    audit.add_argument("--format", choices=["text", "json"], default="text")
    scan.add_argument("--format", choices=["text", "csv", "json"], default="text")

    return parser, subparsers


def _parse_args(parser: _Parser, subparsers, argv: list[str]):
    """Parse argv with the --config file's values spliced in as flags right
    after the command, so that argparse checks them (choices, store_true,
    required) as it checks flags, and flags given on the command line win."""
    try:
        args = parser.parse_args(argv)
    except UsageError:
        # A config file may supply the missing required flag: find the command
        # and its config with nothing required. Without one, the error stands.
        required = [a for p in subparsers.values() for a in p._actions if a.required]
        for action in required:
            action.required = False
        try:
            args = parser.parse_args(argv)
        finally:
            for action in required:
                action.required = True
        if not args.config:
            raise
    if not args.config:
        return args
    at = argv.index(args.command) + 1
    flags = _config_flags(subparsers[args.command], args)
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _config_flags(command_parser: _Parser, args) -> list[str]:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an int past the int-to-str limit
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a flat JSON object")
    actions = {
        action.dest: action
        for action in command_parser._actions
        if action.dest not in ("help", "config")
    }
    flags = []
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key: {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:  # store_true
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false")
            flags += [flag] if value else []
        elif isinstance(action, argparse._AppendAction):
            # a command-line --pair replaces the file's pairs
            if getattr(args, action.dest) is None:
                items = value if isinstance(value, list) else [value]
                flags += [f"{flag}={_config_text(item)}" for item in items]
        else:
            flags.append(f"{flag}={_config_text(value)}")
    return flags


def _config_text(value) -> str:
    """A config value as the flag text it stands for; a list joins with commas.
    The flag's type or choices then check the text."""
    return ",".join(map(_config_text, value)) if isinstance(value, list) else str(value)


# ---------------------------------------------------------------------------
# variant prefactor expressions
# ---------------------------------------------------------------------------


def _divide(left: Fraction, right: Fraction) -> Fraction:
    if right == 0:
        raise UsageError("prefactor divides by zero")
    return left / right


def _power(base: Fraction, exponent: Fraction) -> Fraction:
    if exponent.denominator != 1:
        raise UsageError("** requires an integer exponent")
    if base == 0 and exponent < 0:
        raise UsageError("prefactor raises 0 to a negative power")
    return base ** int(exponent)


def _fact(arg: Fraction) -> Fraction:
    if arg.denominator != 1 or arg < 0:
        raise UsageError("fact(...) requires a nonnegative integer")
    return Fraction(math.factorial(int(arg)))


# The prefactor grammar's binary and unary operators, by ast node type.
_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: _divide,
    ast.Pow: _power,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


# Building and evaluating a prefactor take one Python frame per tree level,
# and evaluation runs some 10 frames deep: past about 990 levels it would
# exceed the default recursion limit of 1000 (measured on 3.10-3.13).
_MAX_PREFACTOR_DEPTH = 800


def parse_prefactor(expression: str):
    """Compile a prefactor expression over the names n and m.

    Allowed: integer literals, n, m, fact(...), + - * / ** and parentheses,
    nested at most _MAX_PREFACTOR_DEPTH levels deep. Evaluates to an exact
    rational for each (n, m).
    """
    too_deep = UsageError(f"prefactor nests deeper than {_MAX_PREFACTOR_DEPTH} levels")
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"bad prefactor expression: {exc.msg}")
    except (RecursionError, MemoryError):  # the parser's own stack overflowed
        raise too_deep from None
    stack = [(tree.body, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_PREFACTOR_DEPTH:
            raise too_deep
        stack += [(c, depth + 1) for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)]

    def build(node):
        """The node's evaluator, a function of (n, m), built as the node is checked."""
        op = _OPERATORS.get(type(getattr(node, "op", None)))
        if isinstance(node, ast.BinOp) and op is not None:
            left, right = build(node.left), build(node.right)
            return lambda n, m: op(left(n, m), right(n, m))
        if isinstance(node, ast.UnaryOp) and op is not None:
            operand = build(node.operand)
            return lambda n, m: op(operand(n, m))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "fact"
            and len(node.args) == 1
            and not node.keywords
        ):
            arg = build(node.args[0])
            return lambda n, m: _fact(arg(n, m))
        # bool is a subclass of int, but True and False are not integer literals
        if isinstance(node, ast.Constant) and type(node.value) is int:
            value = Fraction(node.value)
            return lambda n, m: value
        if isinstance(node, ast.Name) and node.id in ("n", "m"):
            name = node.id
            return lambda n, m: Fraction(n if name == "n" else m)
        raise UsageError(
            "prefactor may only use integers, n, m, fact(...), + - * / ** and parentheses"
        )

    return build(tree.body)


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _aligned_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _report_rows(report) -> tuple[list[str], Iterator[list[str]]]:
    """The report's column header and a lazy iterator over its rows."""
    point_keys = list(report.verdicts[0].point.keys()) if report.verdicts else []
    with_hyp = any(v.hypothesis_ok is not None for v in report.verdicts)
    header = point_keys + ["status", "lhs", "rhs", "reason"]
    if with_hyp:
        header += ["hypothesis_ok", "hypothesis_note"]

    def rows():
        for v in report.verdicts:
            row = [_cell(v.point[key]) for key in point_keys]
            row += [v.status, _cell(v.lhs), _cell(v.rhs), _cell(v.reason)]
            if with_hyp:
                row += [_cell(v.hypothesis_ok), _cell(v.hypothesis_note)]
            yield row

    return header, rows()


def _render_reports_text(reports, variant: str | None) -> str:
    lines = [f"# hlpoly {__version__}"]
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
        header, rows = _report_rows(report)
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
    values: dict[str, list[Fraction]] = {}
    if args.method in ("formula", "both"):
        values["formula"] = explicit_sequence(family, args.n_max, params)
    if args.method in ("oracle", "both"):
        values["oracle"] = oracle_sequence(family, args.n_max, params)

    if args.format == "json":
        rows = []
        for n in range(args.n_max + 1):
            entry: dict = {"n": n}
            if args.method == "both":
                entry["formula"] = _json_rational(values["formula"][n])
                entry["oracle"] = _json_rational(values["oracle"][n])
                entry["agree"] = values["formula"][n] == values["oracle"][n]
            else:
                entry["value"] = _json_rational(values[args.method][n])
            rows.append(entry)
        payload = {
            "command": "table",
            "family": family.value,
            "k": params.k,
            "alpha": _json_rational(params.alpha),
            "a": _json_rational(params.a),
            "method": args.method,
            "values": rows,
        }
        return EXIT_OK, [canonical_json(payload)]
    # Built whole, so that a row that fails to render leaves no partial table.
    lines = []
    for n in range(args.n_max + 1):
        if args.method == "both":
            formula = format_rational(values["formula"][n])
            oracle = format_rational(values["oracle"][n])
            disagreement = "" if formula == oracle else f"formula={formula};oracle={oracle}"
            lines.append(f"{n},{formula},{oracle},{disagreement}\n")
        else:
            lines.append(f"{n},{format_rational(values[args.method][n])}\n")
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
    given = {field: getattr(args, field, None) for field in GridSpec.__dataclass_fields__}
    given["pairs"] = tuple(args.pair) if args.pair else None
    try:
        return GridSpec(**{key: value for key, value in given.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_audit(args) -> tuple[int, Iterable[str]]:
    grid = _grid_from_args(args)
    labels = [
        label
        for label, (token, _, _) in CATALOGUE.items()
        if args.identity in (token, "all")
    ]
    if args.identity == _CONGRUENCE_TOKEN and max(grid.k_values) < 1:
        raise UsageError("thm8 needs at least one k >= 1 in --k-values")
    prefactor = None
    if args.variant_prefactor is not None:
        if any(CATALOGUE[label][1] is not _DUALITY_ROWS for label in labels):
            raise UsageError("--variant-prefactor only applies to eq9..eq12")
        prefactor = parse_prefactor(args.variant_prefactor)

    reports = [run_identity(label, grid, prefactor) for label in labels]
    return _report_output(args, grid, reports)


def _cmd_congruence_scan(args) -> tuple[int, Iterable[str]]:
    grid = _grid_from_args(args)
    if min(grid.k_values) < 1:
        raise UsageError("congruence scans require k >= 1")
    reports = [
        run_identity(label, grid)
        for label, (token, _, family) in CATALOGUE.items()
        if token == _CONGRUENCE_TOKEN and args.family in ("all", family.value)
    ]
    return _report_output(args, grid, reports)


def _csv_lines(reports) -> Iterator[str]:
    # Only congruence-scan offers csv. Its reports all have the columns
    # k, alpha, a, n, p and the hypothesis flag, and none is empty. Rows
    # stream: joining a large scan's rows first raised peak memory by 5%.
    yield ",".join(["identity"] + _report_rows(reports[0])[0]) + "\n"
    for report in reports:
        label = report.identity.lower()
        for row in _report_rows(report)[1]:
            yield ",".join([label] + row) + "\n"


def _report_output(args, grid: GridSpec, reports) -> tuple[int, Iterable[str]]:
    """An audit or congruence-scan result in the requested format, and the
    exit code its verdicts give."""
    # Every report of a run with --variant-prefactor is one of eq9..eq12.
    variant = getattr(args, "variant_prefactor", None)
    if args.format == "json":
        output = [_json_reports(args.command, grid, reports, variant)]
    elif args.format == "csv":
        output = _csv_lines(reports)
    else:
        output = [_render_reports_text(reports, variant)]
    return exit_code(reports), output


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
    parser, subparsers = _build_parser()
    try:
        args = _parse_args(parser, subparsers, argv)
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
