"""The hlpoly benchmark: three CLI workloads, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no install. NAME is
`audit_default`, `audit_deep`, `congruence_scan`, or `all` for the three in
turn. The workloads and their pinned outputs are in `workloads.py`; the metric
names, units and directions are in BENCHMARK.json, and `layers.json` says
which end-to-end metric each per-layer metric should move, and on which
workload.

With `--trace 0` it reports the end-to-end metrics:

  wall_s          median wall time of one warm pass of `hlpoly.cli.main(argv)`
                  with stdout captured in memory, run in one fresh process
                  with no threads and no tracing, each pass restated at the
                  reference host speed of `hostspeed.py`; the raw median is
                  printed beside it
  verdicts_per_s  verdict rows of the workload's grid divided by wall_s
  setup_s         median time for a fresh interpreter to finish
                  `import hlpoly.cli`, host-speed scaled the same way
  peak_rss_mb     maximum RSS of a fresh interpreter after one cold pass

With `--trace 1` a separate process wraps the package's public functions and
reports the per-layer metrics (see `tracer.py`); its spans are written to
`.bench_out/`.

Every pass is checked outside its timed region: exit code 1, the pinned
stdout sha256 at seed 0 (at other seeds, the digest of the run's first pass),
the verdict count of the grid, and the paper's invariants (no FAILS in
THM1-THM6, EQ9 or STIRLING_ORTHO). A failing pass counts in `failed` and its
time is discarded; error_rate is failed / attempted. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "hlpoly" / "cli.py"

SETUP_SAMPLES = 11
PROBES_PER_SIDE = 5
CHILD_TIMEOUT_S = 160
IMPORT_PROBE = "import hlpoly.cli, time; print(time.perf_counter())"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # A fixed string-hash seed gives every child the same dict and set
    # layouts; in six-run trials the spread of wall_s halved with it.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list[str]) -> str:
    """Run a Python child to completion; return its stdout or raise."""
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {result.returncode}:\n{result.stderr}")
    return result.stdout


def measure_setup() -> tuple[float, float]:
    """(scaled, raw) median seconds from spawning a fresh interpreter until
    `import hlpoly.cli` has finished. The first spawn is not counted, since it
    may write the bytecode cache."""
    _run_child(["-c", IMPORT_PROBE])
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        probes = [hostspeed.probe_s() for _ in range(PROBES_PER_SIDE)]
        start = time.perf_counter()
        ready = float(_run_child(["-c", IMPORT_PROBE]))
        probes += [hostspeed.probe_s() for _ in range(PROBES_PER_SIDE)]
        raw.append(ready - start)
        scaled.append(hostspeed.scaled(ready - start, probes))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    setup = measure_setup()
    result = json.loads(_run_child([str(BENCH / "worker.py"), name, str(seed), str(seconds)]))
    return summarize(name, seed, result, setup)


def summarize(name: str, seed: int, result: dict, setup: tuple[float, float]) -> dict:
    """End-to-end metrics from a worker's passes; failed passes are counted
    and their times dropped."""
    passes = result["passes"]
    failed = [p for p in passes if p["problems"]]
    good = [p for p in passes if not p["cold"] and not p["problems"]]
    for p in failed:
        print(f"{name}: failed pass: {'; '.join(p['problems'])}", file=sys.stderr)
    if not good:
        raise RuntimeError(f"{name}: no warm pass was correct")
    wall_s = statistics.median(p["scaled_s"] for p in good)
    raw_wall = statistics.median(p["wall_s"] for p in good)
    verdicts = workloads.expected_verdicts(name, seed)
    setup_s, setup_raw = setup
    metrics = {
        "wall_s": (wall_s, "s"),
        "verdicts_per_s": (verdicts / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(good)} warm passes; raw {raw_wall:.4f} s",
        "verdicts_per_s": f"{verdicts} verdicts per pass / wall_s",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; raw {setup_raw:.4f} s",
        "peak_rss_mb": "1 fresh interpreter, one cold pass",
    }
    return {
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": metrics,
        "notes": notes,
    }


def traced(name: str, seed: int, seconds: float) -> dict:
    spans = ROOT / ".bench_out" / f"spans-{name}-{seed}.json"
    result = json.loads(
        _run_child([str(BENCH / "tracer.py"), name, str(seed), str(seconds), str(spans)])
    )
    for problem in result["problems"]:
        print(f"{name}: failed pass: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: (result["metrics"][key], unit) for key, unit in units.items()},
        "notes": {"trace.overhead_s": f"median of {result['traced_passes']} traced passes "
                  "minus median of as many untraced ones; spans in " + str(spans.relative_to(ROOT))},
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_report(name: str, seed: int, report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"{name} seed {seed}: {attempted} passes checked, {failed} failed")
    for key, (value, unit) in report["metrics"].items():
        note = report["notes"].get(key, "")
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {key:36} {shown} {unit:6} {note}".rstrip())
    print(f"  {'error_rate':36} {failed / attempted:14.6g} {'':6} {failed} of {attempted} passes failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"error: no hlpoly source at {SOURCE.relative_to(ROOT)}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else end_to_end
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            report = measure(name, args.seed, args.seconds)
            _print_report(name, args.seed, report)
            attempted += report["attempted"]
            failed += report["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            for key, (value, unit) in report["metrics"].items():
                metrics[prefix + key] = {"value": value, "unit": unit}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
