"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection: the
traced runs below take about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Exact counts of the seed-0 traced passes.
SEED0_COUNTS = {
    "audit_default": {
        "audit.verdicts": 7194,
        "sequences.explicit_value.calls": 27450,
        "sequences.explicit_value.distinct": 1674,
    },
    "audit_deep": {
        "audit.verdicts": 3603,
        "sequences.explicit_value.calls": 22446,
        "sequences.explicit_value.distinct": 693,
    },
    "congruence_scan": {
        "audit.verdicts": 1620,
        "sequences.explicit_value.calls": 3132,
        "sequences.explicit_value.distinct": 1575,
        "exact.mod_reduce.nonreducible": 1227,
        "audit.undefined": 1281,
    },
}

# Boundaries every workload crosses, and those only the audits cross.
ALWAYS_CALLED = (
    "sequences.explicit_value.calls", "stirling.lookups",
    "exact.pow_rat.calls", "exact.mod_reduce.calls",
)
AUDIT_ONLY = (
    "sequences.oracle_sequence.calls", "sequences.deriv_printed.calls",
    "sequences.deriv_oracle.calls", "series.phi_apply.calls",
    "series.phif_apply.calls", "series.mul.calls",
)


def test_declared_metrics_follow_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["paths"] == ["bench"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert list(SPEC["workloads"]) == list(workloads.WORKLOADS)
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert list(SPEC["metrics"]) == names
    for meta in SPEC["metrics"].values():
        assert set(meta["on"]) | set(meta["not_on"]) <= set(workloads.WORKLOADS)
        assert set(meta["moves"]) <= {m["name"] for m in DECLARED["end_to_end"]}


def test_seed_zero_is_the_pinned_argv_and_every_seed_keeps_the_verdict_count():
    for name, pinned in SPEC["workloads"].items():
        assert workloads.argv(name, 0) == pinned["argv"]
        for seed in range(40):
            assert workloads.expected_verdicts(name, seed) == pinned["verdicts"]
            assert workloads.argv(name, seed) == workloads.argv(name, seed)
    for name in ("audit_deep", "congruence_scan"):
        drawn = {tuple(workloads.argv(name, seed)) for seed in range(1, 40)}
        assert len(drawn) > 30


@pytest.fixture(scope="module")
def scan_output():
    from hlpoly.cli import main

    code, out, _ = workloads.run_pass(main, workloads.argv("congruence_scan", 0))
    return code, out


def test_gate_accepts_the_pinned_output_and_rejects_a_wrong_one(scan_output):
    code, out = scan_output
    pinned = workloads.WORKLOADS["congruence_scan"]["sha256"]
    assert workloads.check_pass("congruence_scan", 0, code, out, pinned) == []
    assert workloads.check_pass("congruence_scan", 0, code, out, "0" * 64)
    assert workloads.check_pass("congruence_scan", 0, 2, out, pinned)
    assert workloads.check_pass("congruence_scan", 0, code, out.replace("HOLDS", "FAILS", 1), None)


def test_gate_rejects_a_failure_in_a_proved_identity():
    from hlpoly.cli import main

    args = ["audit", "--identity", "all", "--format", "json", "--n-max", "2", "--pair", "1,1"]
    code, out, _ = workloads.run_pass(main, args)
    payload = json.loads(out)
    count = sum(r["points"] for r in payload["reports"])
    assert workloads._check_audit(payload, count) == []
    thm1 = payload["reports"][0]
    thm1["verdicts"][0]["status"] = "FAILS"
    thm1["summary"] = {"holds": thm1["summary"]["holds"] - 1, "fails": 1, "undefined": 0}
    assert workloads._check_audit(payload, count) == ["THM1: 1 FAILS"]


def test_a_wrong_digest_is_an_error_and_is_not_timed(monkeypatch):
    monkeypatch.setitem(
        workloads.WORKLOADS, "congruence_scan",
        {**workloads.WORKLOADS["congruence_scan"], "sha256": "0" * 64},
    )
    result = worker.measure("congruence_scan", 0, 0.0)
    assert all(p["problems"] for p in result["passes"])
    with pytest.raises(RuntimeError):
        run.summarize("congruence_scan", 0, result, (0.1, 0.1))

    good = {"cold": False, "wall_s": 2.0, "scaled_s": 1.0, "problems": []}
    bad = {"cold": False, "wall_s": 9.0, "scaled_s": 9.0, "problems": ["wrong"]}
    report = run.summarize("congruence_scan", 0, {"peak_rss_kb": 1024, "passes": [good, bad]}, (0.1, 0.1))
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert report["metrics"]["wall_s"][0] == pytest.approx(1.0)


def test_the_timing_process_never_installs_the_wrappers():
    probe = (
        "import sys, worker\n"
        "from hlpoly import audit, cli, sequences, series\n"
        "mul = series.PowerSeries.__mul__\n"
        "worker.measure('congruence_scan', 0, 0.0)\n"
        "print('tracer' not in sys.modules, audit.explicit_value is sequences.explicit_value,\n"
        "      cli.run_identity is audit.run_identity, series.PowerSeries.__mul__ is mul)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=BENCH, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["True"] * 4


def test_uninstall_restores_every_binding():
    def bindings():
        snapshot = {(m.__name__, k): v for m in tracer.MODULES for k, v in vars(m).items()}
        snapshot["duality"] = dict(tracer.audit._DUALITY_SHAPE)
        snapshot["mul"] = (tracer.series.PowerSeries.__mul__, tracer.series.PowerSeries.__rmul__)
        return snapshot

    before = bindings()
    undo = tracer.Trace().install()
    assert tracer.audit.explicit_value is not tracer.sequences.explicit_value
    tracer.uninstall(undo)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] or after[key] == before[key] for key in before)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(SEED0_COUNTS))
def test_traced_run_reports_every_layer_metric_and_the_seed0_counts(name):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    report = _last_json(result.stdout)
    assert report["correct"] and report["failed"] == 0
    metrics = {key: value["value"] for key, value in report["metrics"].items()}
    assert list(metrics) == [m["name"] for m in DECLARED["per_layer"]]
    for key, expected in SEED0_COUNTS[name].items():
        assert metrics[key] == expected, key
    assert all(metrics[key] > 0 for key in ALWAYS_CALLED)
    assert metrics["audit.run_identity_s"] > 0 and metrics["cli.self_s"] > 0
    if name == "congruence_scan":
        assert all(metrics[key] == 0 for key in AUDIT_ONLY)
        assert metrics["series.phi_apply_s"] == metrics["series.phif_apply_s"] == 0
    else:
        assert all(metrics[key] > 0 for key in AUDIT_ONLY)
        assert all(metrics[f"audit.identity_s.{label}"] > 0 for label in workloads.AUDIT_IDENTITIES)
    spans = json.loads((ROOT / ".bench_out" / f"spans-{name}-0.json").read_text())
    roots = [s for s in spans["passes"][0] if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]


def test_end_to_end_run_prints_every_metric():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "congruence_scan", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    report = _last_json(result.stdout)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 4
    assert list(report["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(value["value"] > 0 for value in report["metrics"].values())
    for key in ("wall_s", "verdicts_per_s", "setup_s", "peak_rss_mb", "error_rate"):
        assert re.search(rf"^  {key} ", result.stdout, re.M)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit_default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout
