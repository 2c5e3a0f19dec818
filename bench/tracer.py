"""Traced process: per-layer counts and times for one workload.

    python3 bench/tracer.py WORKLOAD SEED SECONDS SPANS_PATH

The layers are the package modules: cli, audit, sequences, series, stirling
and exact. Wrappers go on every binding a caller in another module uses, for
example `hlpoly.audit.explicit_value` rather than the name in
`hlpoly.sequences`, because `from .sequences import explicit_value` copies the
name. The cli->audit->sequences->series boundaries record a span per call
(name, start, end, parent); the hot leaves (Stirling lookups, pow_rat,
mod_reduce, PowerSeries multiplication) record a count and cumulative time.

After one untraced warm-up pass, untraced and traced passes alternate while
the next pair is expected to end within SECONDS seconds (at least one pair
runs). Counts come from the first traced pass and must repeat
exactly in every later one; times are medians over the traced passes. Spans
stay in memory and are written to SPANS_PATH at the end. Prints one JSON
object on stdout.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
import hlpoly  # noqa: E402
from hlpoly import audit, cli, exact, sequences, series, stirling  # noqa: E402

MODULES = (hlpoly, cli, audit, sequences, series, stirling, exact)

# (span name, function) at each layer boundary
SPANS = (
    ("audit.run_identity", audit.run_identity),
    ("sequences.explicit_value", sequences.explicit_value),
    ("sequences.oracle_sequence", sequences.oracle_sequence),
    ("sequences.deriv_printed", sequences.deriv_coeffs_printed),
    ("sequences.deriv_oracle", sequences.deriv_coeffs_oracle),
    ("series.phi_apply", series.phi_apply),
    ("series.phif_apply", series.phif_apply),
)
# (counter name, function) for hot leaves
LEAVES = (
    ("stirling.lookup", stirling.stirling1_unsigned),
    ("stirling.lookup", stirling.stirling2),
    ("exact.pow_rat", exact.pow_rat),
    ("exact.mod_reduce", exact.mod_reduce),
)

BUILD_REPEATS = 5


class Trace:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self):
        # [name, start, end, parent index or None, identity label or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.explicit_args: set = set()
        self.top_index = 0
        self.reports: list = []

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            detail = before(args) if before else None
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, detail])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if after:
                after(result)
            return result

        return traced

    def leaf(self, name, fn, before=None):
        calls, busy, raised = self.calls, self.busy, self.raised
        clock = time.perf_counter

        def counted(*args, **kwargs):
            if before:
                before(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                busy[name] += clock() - start
                calls[name] += 1

        return counted

    def _note_explicit(self, args):
        self.explicit_args.add(args)

    def _note_lookup(self, args):
        if args[0] > self.top_index:
            self.top_index = args[0]

    def install(self) -> list:
        """Wrap every boundary; returns the undo list for `uninstall`."""
        undo: list = []
        hooks = {
            "audit.run_identity": (lambda args: args[0], self.reports.append),
            "sequences.explicit_value": (self._note_explicit, None),
        }
        for name, fn in SPANS:
            before, after = hooks.get(name, (None, None))
            _rebind(fn, self.span(name, fn, before, after), undo)
        for name, fn in LEAVES:
            before = self._note_lookup if name == "stirling.lookup" else None
            _rebind(fn, self.leaf(name, fn, before), undo)
        mul = series.PowerSeries.__mul__
        counted = self.leaf("series.mul", mul)
        for attr in ("__mul__", "__rmul__"):
            undo.append((setattr, series.PowerSeries, attr, getattr(series.PowerSeries, attr)))
            setattr(series.PowerSeries, attr, counted)
        return undo


def _rebind(target, replacement, undo: list) -> None:
    """Point every binding of `target` outside its defining module at
    `replacement`: module globals, and tuples held in module-level dicts such
    as the triangle in `audit._DUALITY_SHAPE`. A refactor that leaves no
    binding raises, so a boundary cannot silently stop being recorded."""
    found = 0
    for module in MODULES:
        if module.__name__ == target.__module__:
            continue
        for key, value in list(vars(module).items()):
            if value is target:
                undo.append((setattr, module, key, value))
                setattr(module, key, replacement)
                found += 1
            elif isinstance(value, dict):
                for dkey, item in list(value.items()):
                    if isinstance(item, tuple) and any(x is target for x in item):
                        undo.append((value.__setitem__, dkey, item))
                        value[dkey] = tuple(replacement if x is target else x for x in item)
                        found += 1
    if not found:
        raise LookupError(f"no caller binds {target.__module__}.{target.__name__}")


def uninstall(undo: list) -> None:
    for action, *args in reversed(undo):
        action(*args)


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value).bit_length()
    return 0


def pass_metrics(trace: Trace, out: str) -> tuple[dict, dict]:
    """(exact counts, seconds) of one traced pass."""
    durations = Counter()
    child_time = Counter()
    self_time = Counter()
    calls = Counter()
    for name, start, end, parent, _ in trace.spans:
        calls[name] += 1
        durations[name] += end - start
        if parent is not None:
            child_time[parent] += end - start
    identity_s = Counter()
    for index, (name, start, end, _, label) in enumerate(trace.spans):
        self_time[name] += end - start - child_time[index]
        if label is not None:
            identity_s[label] += end - start

    verdicts = [v for report in trace.reports for v in report.verdicts]
    statuses = Counter(v.status for v in verdicts)
    evaluable = statuses["HOLDS"] + statuses["FAILS"]
    counts = {
        "cli.output_bytes": len(out.encode("utf-8")),
        "audit.verdicts": len(verdicts),
        "audit.fails": statuses["FAILS"],
        "audit.undefined": statuses["UNDEFINED"],
        "audit.evaluable_ratio": evaluable / len(verdicts) if verdicts else 0.0,
        "sequences.explicit_value.calls": calls["sequences.explicit_value"],
        "sequences.explicit_value.distinct": len(trace.explicit_args),
        "sequences.oracle_sequence.calls": calls["sequences.oracle_sequence"],
        "sequences.deriv_printed.calls": calls["sequences.deriv_printed"],
        "sequences.deriv_oracle.calls": calls["sequences.deriv_oracle"],
        "series.phi_apply.calls": calls["series.phi_apply"],
        "series.phif_apply.calls": calls["series.phif_apply"],
        "series.mul.calls": trace.calls["series.mul"],
        "stirling.lookups": trace.calls["stirling.lookup"],
        "exact.pow_rat.calls": trace.calls["exact.pow_rat"],
        "exact.mod_reduce.calls": trace.calls["exact.mod_reduce"],
        "exact.mod_reduce.nonreducible": trace.raised[
            "exact.mod_reduce", "NonreducibleDenominatorError"
        ],
        "exact.max_bits": max(
            (_bits(x) for v in verdicts for x in (v.lhs, v.rhs)), default=0
        ),
    }
    seconds = {
        "cli.self_s": self_time["cli.main"],
        "audit.run_identity_s": durations["audit.run_identity"],
        "audit.self_s": self_time["audit.run_identity"],
        **{f"audit.identity_s.{label}": identity_s[label] for label in workloads.AUDIT_IDENTITIES},
        "sequences.explicit_value_s": durations["sequences.explicit_value"],
        "sequences.oracle_sequence_s": durations["sequences.oracle_sequence"],
        "sequences.deriv_printed_s": durations["sequences.deriv_printed"],
        "sequences.deriv_oracle_s": durations["sequences.deriv_oracle"],
        "series.phi_apply_s": durations["series.phi_apply"],
        "series.phif_apply_s": durations["series.phif_apply"],
        "stirling.lookup_s": trace.busy["stirling.lookup"],
    }
    return counts, seconds


def stirling_build_s(max_n: int) -> float:
    """Median time to build both triangles to `max_n` from nothing, which the
    module's cache hides after the first pass."""
    samples = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        stirling.build_table(stirling.FIRST_UNSIGNED, max_n)
        stirling.build_table(stirling.SECOND, max_n)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure(name: str, seed: int, seconds: float, spans_path: Path) -> dict:
    args = workloads.argv(name, seed)
    gate = workloads.Gate(name, seed)
    problems: list[str] = []
    attempted = failed = 0

    def checked(main) -> tuple[str, float]:
        nonlocal attempted, failed
        code, out, wall_s = workloads.run_pass(main, args)
        found = gate.check(code, out)
        attempted += 1
        failed += bool(found)
        problems.extend(found)
        return out, wall_s

    checked(cli.main)  # warm-up: fills the Stirling cache, as a timed pass finds it
    untraced, traced, spans = [], [], []
    first_counts, top_index = None, 0
    end = time.perf_counter() + seconds
    while True:
        lap = time.perf_counter()
        untraced.append(checked(cli.main)[1])
        trace = Trace()
        undo = trace.install()
        try:
            out, wall_s = checked(trace.span("cli.main", cli.main))
        finally:
            uninstall(undo)
        counts, times = pass_metrics(trace, out)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            problems.append("exact counts differ between traced passes")
            failed += 1
        traced.append({**times, "wall_s": wall_s})
        spans.append(trace.spans)
        top_index = max(top_index, trace.top_index)
        now = time.perf_counter()
        if 2 * now - lap > end:
            break

    metrics = dict(first_counts)
    for key in traced[0]:
        metrics[key] = statistics.median(t[key] for t in traced)
    metrics["stirling.build_s"] = stirling_build_s(top_index)
    metrics["trace.overhead_s"] = metrics.pop("wall_s") - statistics.median(untraced)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "fields": ["name", "start", "end", "parent", "identity"],
        "passes": spans,
    }))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "traced_passes": len(traced),
        "metrics": metrics,
    }


if __name__ == "__main__":
    workload, seed, seconds, spans_file = sys.argv[1:5]
    print(json.dumps(measure(workload, int(seed), float(seconds), Path(spans_file))))
