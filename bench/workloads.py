"""The benchmark's workloads: seeded argv, pinned outputs and the per-pass gate.

Every workload is one argv for `hlpoly.cli.main`. Seed 0 gives the argv the
workload was defined with; `spec.json` pins that argv, its verdict count and
its stdout sha256. `audit_default` is the same at every seed. Other seeds
draw the `audit_deep` and `congruence_scan` pairs and k-values from fixed
pools, stratified so that the verdict count, and with it the amount of work,
is the same at every seed. Every pool pair has alpha > 0 and a > 0, so no
alpha*m + a vanishes and no point is SINGULAR_PARAMETER.

This module imports only the standard library: the timing process, the traced
process and the benchmark's tests share it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

# Identities the paper proves; a FAILS verdict in any of them is a wrong
# result, whatever the seed.
MUST_HOLD = ("THM1", "THM2", "THM3", "THM4", "THM5", "THM6", "EQ9", "STIRLING_ORTHO")

AUDIT_IDENTITIES = (
    "THM1", "THM2", "THM3", "THM4", "THM5", "THM6",
    "EQ9", "EQ10", "EQ11", "EQ12",
    "THM8_C1", "THM8_C2", "THM8_B",
    "THM9", "THM10", "THM11",
    "STIRLING_ORTHO",
)

CONGRUENCE_HEADER = (
    "identity,k,alpha,a,n,p,status,lhs,rhs,reason,hypothesis_ok,hypothesis_note"
)

# Every argv below exits 1: each grid has at least one FAILS verdict.
EXPECTED_EXIT = 1

# Audit defaults the workloads do not override (see `hlpoly audit --help`).
STIRLING_N_MAX = 20
DEFAULT_PRIMES = (3, 5, 7, 11)
DEFAULT_MULTIPLIERS = (1, 2, 3)

PAIR_POOL = (
    "1,1", "1,2", "1,3", "2,1", "2,3", "3,1",
    "1/2,1", "1/2,3/2", "3/2,1", "1/2,5/2",
    "3,1/3", "3,2/3", "2,1/3", "3,4/3", "1,5/2", "1,7/2",
)
NEGATIVE_K_POOL = (-2, -1)
POSITIVE_K_POOL = (1, 2, 3, 4)

DEEP_N_MAX = 24
DEEP_PAIRS = ("1,1", "1/2,1", "3,1/3")
DEEP_K = (-2, 1, 3)

SCAN_PRIMES = (3, 5, 7, 11, 13)
SCAN_MULTIPLIERS = (1, 2, 3, 4, 5, 6)
SCAN_PAIRS = ("1,1", "1,2", "2,1", "1/2,1", "3,1/3", "1,5/2")
SCAN_K = (1, 2, 3)


# Per workload: the argv, verdict count and stdout sha256 at seed 0.
WORKLOADS = json.loads((Path(__file__).parent / "spec.json").read_text())["workloads"]


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def _pair_args(pairs) -> list[str]:
    return [arg for pair in pairs for arg in ("--pair", pair)]


def grid(name: str, seed: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The (pairs, k-values) `audit_deep` or `congruence_scan` runs at a seed.

    Seed 0 is the defining grid. Other seeds keep its shape: as many pairs,
    and k-values with the same signs, so the verdict count does not depend on
    the seed.
    """
    rng = random.Random(seed)
    if name == "audit_deep":
        if seed == 0:
            return DEEP_PAIRS, DEEP_K
        pairs = tuple(rng.sample(PAIR_POOL, len(DEEP_PAIRS)))
        ks = (rng.choice(NEGATIVE_K_POOL),) + tuple(sorted(rng.sample(POSITIVE_K_POOL, 2)))
        return pairs, ks
    if name == "congruence_scan":
        if seed == 0:
            return SCAN_PAIRS, SCAN_K
        pairs = tuple(rng.sample(PAIR_POOL, len(SCAN_PAIRS)))
        return pairs, tuple(sorted(rng.sample(POSITIVE_K_POOL, len(SCAN_K))))
    raise KeyError(f"no drawn grid for workload {name!r}")


def argv(name: str, seed: int) -> list[str]:
    """The argv `hlpoly.cli.main` receives for a workload at a seed."""
    if name == "audit_default":
        return ["audit", "--identity", "all", "--format", "json"]
    pairs, ks = grid(name, seed)
    if name == "audit_deep":
        return [
            "audit", "--identity", "all", "--format", "json",
            "--n-max", str(DEEP_N_MAX), *_pair_args(pairs), f"--k-values={_csv_list(ks)}",
        ]
    base = [
        "congruence-scan", "--format", "csv",
        "--multipliers", _csv_list(SCAN_MULTIPLIERS), "--primes", _csv_list(SCAN_PRIMES),
    ]
    return base if seed == 0 else [*base, *_pair_args(pairs), f"--k-values={_csv_list(ks)}"]


def run_pass(main, args: list[str]) -> tuple[int, str, float]:
    """One call of `main(args)` with stdout captured in memory.

    Returns (exit code, stdout, wall seconds). Only the call is timed.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = main(args)
        seconds = time.perf_counter() - start
    return code, buffer.getvalue(), seconds


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_audit(payload: dict, expected_verdicts: int) -> list[str]:
    problems = []
    reports = payload.get("reports", [])
    labels = tuple(r.get("identity") for r in reports)
    if labels != AUDIT_IDENTITIES:
        problems.append(f"report order {labels} is not the catalogue order")
    total = 0
    for report in reports:
        statuses = [v["status"] for v in report["verdicts"]]
        total += len(statuses)
        summary = {
            "holds": statuses.count("HOLDS"),
            "fails": statuses.count("FAILS"),
            "undefined": statuses.count("UNDEFINED"),
        }
        if report["points"] != len(statuses) or report["summary"] != summary:
            problems.append(f"{report['identity']}: summary does not match its rows")
        if report["identity"] in MUST_HOLD and summary["fails"]:
            problems.append(f"{report['identity']}: {summary['fails']} FAILS")
    if total != expected_verdicts:
        problems.append(f"{total} verdicts, expected {expected_verdicts}")
    return problems


def _check_congruence(text: str, expected_verdicts: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != CONGRUENCE_HEADER:
        return ["missing congruence-scan CSV header"]
    problems = []
    rows = list(csv.reader(lines[1:]))
    if len(rows) != expected_verdicts:
        problems.append(f"{len(rows)} verdicts, expected {expected_verdicts}")
    for row in rows:
        _, _, alpha, _, _, p, status, lhs, rhs, reason = row[:10]
        p = int(p)
        divides = Fraction(alpha).numerator % p == 0
        if divides != (reason == "P_DIVIDES_ALPHA"):
            problems.append(f"P_DIVIDES_ALPHA misreported in row {row}")
        elif status in ("HOLDS", "FAILS"):
            residues_ok = all(cell.isdigit() and int(cell) < p for cell in (lhs, rhs))
            if not residues_ok or (status == "HOLDS") != (lhs == rhs):
                problems.append(f"bad residues in row {row}")
        elif status != "UNDEFINED" or reason not in (
            "NONREDUCIBLE_DENOMINATOR", "P_DIVIDES_ALPHA",
        ):
            problems.append(f"bad status or reason in row {row}")
    return problems


def expected_verdicts(name: str, seed: int) -> int:
    """Verdict count of a workload's grid, from the grid's shape."""
    if name == "audit_default":
        return WORKLOADS[name]["verdicts"]
    pairs, ks = grid(name, seed)
    positive = sum(1 for k in ks if k >= 1)
    if name == "congruence_scan":
        return 3 * len(pairs) * positive * len(SCAN_MULTIPLIERS) * len(SCAN_PRIMES)
    per_index = 13 * len(pairs) * len(ks) * (DEEP_N_MAX + 1)
    congruence = 3 * len(pairs) * positive * len(DEFAULT_MULTIPLIERS) * len(DEFAULT_PRIMES)
    return per_index + congruence + (STIRLING_N_MAX + 1) * (STIRLING_N_MAX + 2)


def check_pass(
    name: str, seed: int, code: int, out: str, expected_digest: str | None
) -> list[str]:
    """Everything wrong with one pass's result; an empty list means correct.

    `expected_digest` is the pinned digest at seed 0, and at other seeds the
    digest of the run's first pass, so every pass must reproduce it.
    """
    problems = []
    if code != EXPECTED_EXIT:
        problems.append(f"exit code {code}, expected {EXPECTED_EXIT}")
    if expected_digest is not None and digest(out) != expected_digest:
        problems.append("stdout sha256 differs from the expected digest")
    count = expected_verdicts(name, seed)
    if name == "congruence_scan":
        problems += _check_congruence(out, count)
    else:
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return problems + ["stdout is not JSON"]
        problems += _check_audit(payload, count)
    return problems


class Gate:
    """Checks every pass of one run of a workload at a seed.

    The expected stdout digest is the pinned one where a pin exists (seed 0,
    and `audit_default` at any seed); elsewhere the first correct pass sets
    it, so every later pass must reproduce that output byte for byte.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        pinned = seed == 0 or name == "audit_default"
        self.expected = WORKLOADS[name]["sha256"] if pinned else None

    def check(self, code: int, out: str) -> list[str]:
        problems = check_pass(self.name, self.seed, code, out, self.expected)
        if self.expected is None and not problems:
            self.expected = digest(out)
        return problems
