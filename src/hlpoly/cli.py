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
import os
import sys
from fractions import Fraction
from typing import Iterator

from . import __version__
from .audit import (
    CATALOGUE,
    DEFAULT_GRID,
    GridSpec,
    exit_code,
    run_identity,
)
from .exact import (
    SingularParameterError,
    factorial,
    format_rational,
    is_prime,
    parse_rational,
)
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


def _json_params(point: dict) -> dict:
    """A point's parameters, each Fraction as "p/q" text."""
    return {
        key: format_rational(value) if isinstance(value, Fraction) else value
        for key, value in point.items()
    }


def _json_report(report) -> dict:
    """One report as JSON data; lhs/rhs is a Fraction, an int residue or None."""
    return {
        "identity": report.identity,
        "variant": report.variant,
        "points": len(report.verdicts),
        "summary": report.summary,
        "verdicts": [
            {
                "point": _json_params(v.point),
                "status": v.status,
                "lhs": _json_rational(v.lhs) if isinstance(v.lhs, Fraction) else v.lhs,
                "rhs": _json_rational(v.rhs) if isinstance(v.rhs, Fraction) else v.rhs,
                "reason": v.reason,
                "hypothesis_ok": v.hypothesis_ok,
                "hypothesis_note": v.hypothesis_note,
            }
            for v in report.verdicts
        ],
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="hlpoly", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hlpoly {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    subparsers: dict[str, _Parser] = {}

    def add(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key/value JSON file mirroring flags")
        subparsers[name] = p
        return p

    p = add("table", "sequence-family tables or Stirling triangles")
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--stirling", choices=["1", "2"])
    p.add_argument("--k", default="1", help="integer exponent (default 1)")
    p.add_argument("--alpha", default="1", help="rational, e.g. 1/2 (default 1)")
    p.add_argument("--a", default="1", help="rational (default 1)")
    p.add_argument("--n-max", default="8", help="last index (default 8)")
    p.add_argument("--max-n", default="10", help="triangle size (default 10)")
    p.add_argument(
        "--method",
        choices=["formula", "oracle", "both"],
        default="formula",
        help="Stirling-sum path, generating-function path, or both (default formula)",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("series", "coefficients of a named kernel series")
    p.add_argument("--kernel", choices=list(KERNEL_NAMES), required=True)
    p.add_argument("--order", required=True, help="truncation order")
    p.add_argument(
        "--egf", action="store_true", help="print n!*c_n instead of c_n"
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("audit", "check catalogued identities over a parameter grid")
    p.add_argument(
        "--identity",
        choices=list(dict.fromkeys(token for token, _, _ in CATALOGUE.values()))
        + ["all"],
        required=True,
    )
    p.add_argument("--n-max", default="12", help="largest sequence index (default 12)")
    p.add_argument(
        "--k-values",
        default="-2,-1,0,1,2,3",
        help="comma list; write --k-values=-2,... for negatives (default -2..3)",
    )
    p.add_argument(
        "--pair",
        action="append",
        help="alpha,a pair, repeatable (default six standard pairs)",
    )
    p.add_argument("--primes", default="3,5,7,11", help="comma list of primes")
    p.add_argument(
        "--multipliers",
        default="1,2,3",
        help="congruence checks use index multiplier*prime (default 1,2,3)",
    )
    p.add_argument(
        "--stirling-n-max",
        default="20",
        help="triangle size for stirling-ortho (default 20)",
    )
    p.add_argument(
        "--variant-prefactor",
        default=None,
        help="replacement prefactor over n, m for eq9..eq12, e.g. '(-1)**(m+n)/fact(m)'",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("congruence-scan", "prime-period congruence scan across families")
    p.add_argument(
        "--family", choices=[f.value for f in Family] + ["all"], default="all"
    )
    p.add_argument("--k-values", default="1,2,3", help="comma list of k >= 1")
    p.add_argument("--pair", action="append", help="alpha,a pair, repeatable")
    p.add_argument("--primes", default="3,5,7,11", help="comma list of primes")
    p.add_argument("--multipliers", default="1,2,3", help="comma list of n >= 1")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")

    return parser, subparsers


def _parse_args(parser: _Parser, subparsers, argv: list[str]):
    """Parse argv with the --config file's values spliced in as flags right
    after the command, so that argparse checks them (choices, store_true,
    required) as it checks flags, and flags given on the command line win."""
    # The first pass only finds the command and its config file, which may
    # hold a required flag, so nothing is required yet.
    required = [a for p in subparsers.values() for a in p._actions if a.required]
    for action in required:
        action.required = False
    try:
        args = parser.parse_args(argv)
    finally:
        for action in required:
            action.required = True
    if args.command is None:
        raise UsageError("a command is required (table, series, audit, congruence-scan)")
    if args.config:
        at = argv.index(args.command) + 1
        argv = argv[:at] + _config_flags(subparsers[args.command], args) + argv[at:]
    return parser.parse_args(argv)


def _config_flags(command_parser: _Parser, args) -> list[str]:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
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
                flags += [f"{flag}={_config_text(key, item)}" for item in items]
        else:
            flags.append(f"{flag}={_config_text(key, value)}")
    return flags


def _config_text(key: str, value) -> str:
    """A config value as the flag text it stands for; a list joins with commas."""
    if isinstance(value, list):
        return ",".join(_config_text(key, item) for item in value)
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key!r} must be a string, a number or a list")
    return str(value)


# ---------------------------------------------------------------------------
# value parsing helpers (accept both flag strings and config-file values)
# ---------------------------------------------------------------------------


def _as_int(value, label: str) -> int:
    try:
        return int(str(value).strip())
    except ValueError:
        raise UsageError(f"{label} must be an integer, got {value!r}")


def _as_nonneg_int(value, label: str) -> int:
    parsed = _as_int(value, label)
    if parsed < 0:
        raise UsageError(f"{label} must be >= 0, got {parsed}")
    return parsed


def _as_rational(value, label: str) -> Fraction:
    try:
        return parse_rational(str(value).strip())
    except ValueError:
        raise UsageError(f"{label} must be a rational like 3 or 1/2, got {value!r}")


def _as_alpha(value) -> Fraction:
    alpha = _as_rational(value, "alpha")
    if alpha == 0:
        raise UsageError("alpha must be nonzero")
    return alpha


def _as_int_list(value, label: str) -> tuple[int, ...]:
    items = [part for part in str(value).split(",") if part.strip()]
    if not items:
        raise UsageError(f"{label} must not be empty")
    return tuple(_as_int(item, label) for item in items)


def _as_primes(value) -> tuple[int, ...]:
    primes = _as_int_list(value, "primes")
    for p in primes:
        # is_prime is trial division, meant for moduli below 2**16; a larger
        # prime would also take a sequence index of at least 2**16
        if p >= 2**16:
            raise UsageError(f"{p} is too large: primes must be below 2**16 = 65536")
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
    return primes


def _as_pairs(value) -> tuple[tuple[Fraction, Fraction], ...]:
    pairs = []
    for item in value:
        parts = str(item).split(",")
        if len(parts) != 2:
            raise UsageError(f"pair must look like ALPHA,A, got {item!r}")
        pairs.append((_as_alpha(parts[0]), _as_rational(parts[1], "a")))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# variant prefactor expressions
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_prefactor(expression: str):
    """Compile a prefactor expression over the names n and m.

    Allowed: integer literals, n, m, fact(...), + - * / ** and parentheses.
    Evaluates to an exact rational for each (n, m).
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"bad prefactor expression: {exc.msg}")

    def check(node) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            check(node.operand)
        elif isinstance(node, ast.Constant) and isinstance(node.value, int):
            pass
        elif isinstance(node, ast.Name) and node.id in ("n", "m"):
            pass
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "fact"
            and len(node.args) == 1
            and not node.keywords
        ):
            check(node.args[0])
        else:
            raise UsageError(
                "prefactor may only use integers, n, m, fact(...), + - * / ** "
                "and parentheses"
            )

    check(tree)

    def evaluate(node, env):
        if isinstance(node, ast.Expression):
            return evaluate(node.body, env)
        if isinstance(node, ast.Constant):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(env[node.id])
        if isinstance(node, ast.UnaryOp):
            operand = evaluate(node.operand, env)
            return operand if isinstance(node.op, ast.UAdd) else -operand
        if isinstance(node, ast.Call):
            arg = evaluate(node.args[0], env)
            if arg.denominator != 1 or arg < 0:
                raise UsageError("fact(...) requires a nonnegative integer")
            return Fraction(factorial(int(arg)))
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if right == 0:
                raise UsageError("prefactor divides by zero")
            return left / right
        if right.denominator != 1:
            raise UsageError("** requires an integer exponent")
        if left == 0 and right < 0:
            raise UsageError("prefactor raises 0 to a negative power")
        return left ** int(right)

    def prefactor(n: int, m: int) -> Fraction:
        return evaluate(tree, {"n": n, "m": m})

    return prefactor


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


def _render_reports_text(reports) -> str:
    lines = [f"# hlpoly {__version__}"]
    for report in reports:
        s = report.summary
        title = f"identity {report.identity.lower()}"
        if report.variant:
            title += f" (variant prefactor: {report.variant})"
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
# commands
# ---------------------------------------------------------------------------


def _cmd_table(args) -> int:
    if (args.family is None) == (args.stirling is None):
        raise UsageError("table needs exactly one of --family or --stirling")

    if args.stirling is not None:
        max_n = _as_nonneg_int(args.max_n, "max-n")
        kind = FIRST_UNSIGNED if args.stirling == "1" else SECOND
        rows = build_table(kind, max_n)
        if args.format == "json":
            payload = {
                "command": "table",
                "kind": f"stirling{args.stirling}",
                "max_n": max_n,
                "rows": [[str(entry) for entry in row] for row in rows],
            }
            sys.stdout.write(canonical_json(payload))
        else:
            sys.stdout.write("".join(",".join(map(str, row)) + "\n" for row in rows))
        return EXIT_OK

    family = Family(args.family)
    n_max = _as_nonneg_int(args.n_max, "n-max")
    params = Params(_as_int(args.k, "k"), _as_alpha(args.alpha), _as_rational(args.a, "a"))
    values: dict[str, list[Fraction]] = {}
    if args.method in ("formula", "both"):
        values["formula"] = explicit_sequence(family, n_max, params)
    if args.method in ("oracle", "both"):
        values["oracle"] = oracle_sequence(family, n_max, params)

    if args.format == "json":
        rows = []
        for n in range(n_max + 1):
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
        sys.stdout.write(canonical_json(payload))
    else:
        # Built whole, so that a row that fails to render leaves no partial table.
        lines = []
        for n in range(n_max + 1):
            if args.method == "both":
                formula = format_rational(values["formula"][n])
                oracle = format_rational(values["oracle"][n])
                disagreement = "" if formula == oracle else f"formula={formula};oracle={oracle}"
                lines.append(f"{n},{formula},{oracle},{disagreement}\n")
            else:
                lines.append(f"{n},{format_rational(values[args.method][n])}\n")
        sys.stdout.write("".join(lines))
    return EXIT_OK


def _cmd_series(args) -> int:
    order = _as_nonneg_int(args.order, "order")
    f = kernel(args.kernel, order)
    out = [egf_coeff(f, n) if args.egf else f.coefficient(n) for n in range(order + 1)]
    if args.format == "json":
        payload = {
            "command": "series",
            "kernel": args.kernel,
            "order": order,
            "egf": bool(args.egf),
            "coefficients": [_json_rational(c) for c in out],
        }
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write("".join(f"{n},{format_rational(c)}\n" for n, c in enumerate(out)))
    return EXIT_OK


def _grid_from_args(args) -> GridSpec:
    grid = GridSpec(
        n_max=_as_nonneg_int(getattr(args, "n_max", DEFAULT_GRID.n_max), "n-max"),
        k_values=_as_int_list(args.k_values, "k-values"),
        pairs=_as_pairs(args.pair) if args.pair else DEFAULT_GRID.pairs,
        primes=_as_primes(args.primes),
        multipliers=_as_int_list(args.multipliers, "multipliers"),
        stirling_n_max=_as_nonneg_int(
            getattr(args, "stirling_n_max", DEFAULT_GRID.stirling_n_max),
            "stirling-n-max",
        ),
    )
    if min(grid.multipliers) < 1:
        raise UsageError("multipliers must be >= 1")
    return grid


def _cmd_audit(args) -> int:
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

    reports = [
        run_identity(label, grid, prefactor, args.variant_prefactor)
        for label in labels
    ]
    return _write_reports(args, grid, reports)


def _cmd_congruence_scan(args) -> int:
    grid = _grid_from_args(args)
    if min(grid.k_values) < 1:
        raise UsageError("congruence scans require k >= 1")
    reports = [
        run_identity(label, grid)
        for label, (token, _, family) in CATALOGUE.items()
        if token == _CONGRUENCE_TOKEN and args.family in ("all", family.value)
    ]
    return _write_reports(args, grid, reports)


def _write_reports(args, grid: GridSpec, reports) -> int:
    """Print an audit or congruence-scan result in the requested format and
    return the exit code its verdicts give."""
    if args.format == "json":
        pairs = [[format_rational(alpha), format_rational(a)] for alpha, a in grid.pairs]
        payload = {
            "command": args.command,
            "grid": {**vars(grid), "pairs": pairs},
            "reports": [_json_report(r) for r in reports],
        }
        sys.stdout.write(canonical_json(payload))
    elif args.format == "csv":
        # Only congruence-scan offers csv. Its reports all have the columns
        # k, alpha, a, n, p and the hypothesis flag, and none is empty. Rows
        # stream: joining a large scan's rows first raised peak memory by 5%.
        print(",".join(["identity"] + _report_rows(reports[0])[0]))
        for report in reports:
            label = report.identity.lower()
            for row in _report_rows(report)[1]:
                print(",".join([label] + row))
    else:
        sys.stdout.write(_render_reports_text(reports))
    return exit_code(reports)


_HANDLERS = {
    "table": _cmd_table,
    "series": _cmd_series,
    "audit": _cmd_audit,
    "congruence-scan": _cmd_congruence_scan,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        args = _parse_args(parser, subparsers, argv)
        try:
            return _HANDLERS[args.command](args)
        except SingularParameterError as exc:
            raise UsageError(f"singular parameter: {exc}")
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
