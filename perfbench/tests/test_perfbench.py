"""Tests of the benchmark itself: metric output and the correctness gate.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: text lines (issue names) each workload family prints with a sample count
TEXT_NAMES = {
    "table2": ("setup_s", "campaign_wall_s", "campaign_cpu_s", "peak_rss_mb"),
    "serve": (
        "setup_s",
        "rps",
        "latency_p50_ms",
        "latency_p90_ms",
        "cpu_ms_per_request",
        "peak_rss_mb",
    ),
}


def smoke(workload, trace):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload",
            workload,
            "--scale",
            "smoke",
            "--seconds",
            "2",
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, lines[:-1]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert LAYER_UNITS == workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    result, text = smoke(workload, 0)
    metrics = result["metrics"]
    assert set(metrics) == set(E2E_UNITS)
    for name, entry in metrics.items():
        assert entry["unit"] == E2E_UNITS[name]
        assert entry["value"] > 0, name
    family = workload.split("-")[0]
    names = TEXT_NAMES[family] + (("latency_p99_ms",) if workload == "serve-hot" else ())
    for name in names:
        assert any(
            line.startswith(name + " ") and "(n=" in line for line in text
        ), name
    assert any(line.startswith("failed_frac 0.000000 ratio") for line in text)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics(workload):
    result, text = smoke(workload, 1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == set(LAYER_UNITS)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == LAYER_UNITS[name]
    assert any(line.startswith("trace.coverage ") for line in text)
    assert any(line.startswith("trace.overhead ") for line in text)
    assert metrics["trace.coverage"] > 0.9
    assert metrics["trace.overhead"] > 0
    if workload == "table2-serial":
        assert metrics["search.runs"] > 0
        assert metrics["opt_for_part.items"] > 0
        assert metrics["obs.session_overhead"] > 0
        assert metrics["nondisjoint.calls"] == 0
        assert metrics["modes.calls"] == 0
        assert metrics["hardware.self_s"] == 0
    elif workload == "table2-jobs2":
        assert metrics["engine.overhead_s"] != 0
    else:
        assert metrics["search.runs"] > 0
        assert metrics["hardware.self_s"] > 0
        assert metrics["modes.calls"] > 0
        assert metrics["pool.workers_started"] >= 1
        assert any(line.startswith("serve.overhead_ms ") for line in text)
    if workload == "serve-hot":
        assert metrics["serve.cache_hit_ratio"] > 0.5


def _result_of(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_gate_fails_on_one_tampered_campaign_med(monkeypatch, capsys):
    original = workloads.check_campaign

    def tampering(report, ctx, scale, index, campaign):
        if index == 0:
            campaign["rows"][0][2][0].med += 1.0
        return original(report, ctx, scale, index, campaign)

    monkeypatch.setattr(workloads, "check_campaign", tampering)
    code = run.main(
        ["--workload", "table2-serial", "--scale", "smoke", "--seconds", "0.1"]
    )
    result = _result_of(capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_gate_fails_on_one_tampered_served_med(monkeypatch, capsys):
    original = workloads.check_replies

    def tampering(report, ctx, groups):
        label, _, replies = groups[-1]
        assert label == "timed" and replies
        envelope = json.loads(replies[0].body)
        envelope["artifact"]["med"] += 1.0
        replies[0].body = json.dumps(envelope).encode()
        return original(report, ctx, groups)

    monkeypatch.setattr(workloads, "check_replies", tampering)
    code = run.main(
        ["--workload", "serve-cold", "--scale", "smoke", "--seconds", "1"]
    )
    result = _result_of(capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_check_artifact_recomputes_med():
    from repro.compile_api import compile_one

    artifact = compile_one(
        "cos", bits=6, budget="fast", architecture="bto-normal-nd"
    ).payload
    assert gate.check_artifact(artifact) == []
    assert gate.check_verilog(artifact) == []
    tampered = dict(artifact, med=artifact["med"] + 2.0**-12)
    assert gate.check_artifact(tampered)
    pinned = {"serve/smoke": {artifact["fingerprint"]: artifact["med"]}}
    fingerprint = artifact["fingerprint"]
    assert gate.check_expected_serve("smoke", 0, {fingerprint: artifact}, pinned) == []
    assert gate.check_expected_serve("smoke", 0, {fingerprint: tampered}, pinned)


def test_check_run_recomputes_med():
    import numpy as np
    from repro.core.bs_sa import run_bssa
    from repro.core.config import AlgorithmConfig
    from repro.workloads import get

    result = run_bssa(
        get("exp", 6), AlgorithmConfig.fast(), rng=np.random.default_rng(0)
    )
    assert gate.check_run(result) == []
    result.med += 2.0**-12
    assert gate.check_run(result)
