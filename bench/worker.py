"""Timing process: one fresh interpreter, one workload, no threads, no tracing.

    python3 bench/worker.py WORKLOAD SEED SECONDS

The first pass runs cold; the peak RSS is read right after it, so it is the
peak of a fresh interpreter running one pass. Warm passes then repeat while
the next one is expected to end within SECONDS seconds (at least three run),
each sampled for host speed (see hostspeed.py). Every pass is checked outside
its timed region. Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from hlpoly.cli import main  # noqa: E402

MIN_WARM_PASSES = 3


def measure(name: str, seed: int, seconds: float) -> dict:
    args = workloads.argv(name, seed)
    gate = workloads.Gate(name, seed)
    code, out, cold_s = workloads.run_pass(main, args)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = [{"cold": True, "wall_s": cold_s, "problems": gate.check(code, out)}]
    del out

    warm = 0
    end = time.perf_counter() + seconds
    while True:
        lap = time.perf_counter()
        with hostspeed.Sampler() as speed:
            code, out, wall_s = workloads.run_pass(main, args)
        passes.append({
            "cold": False,
            "wall_s": wall_s,
            "scaled_s": speed.scaled(wall_s),
            "problems": gate.check(code, out),
        })
        warm += 1
        now = time.perf_counter()
        # stop before a pass that would end past the deadline
        if warm >= MIN_WARM_PASSES and 2 * now - lap > end:
            break
    return {"peak_rss_kb": peak_rss_kb, "passes": passes}


if __name__ == "__main__":
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    print(json.dumps(measure(workload, seed, seconds)))
