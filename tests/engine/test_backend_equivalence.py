"""Differential equivalence of the campaign execution backends.

One smoke-scale Table-II campaign is executed four ways — (a) serial
(no engine), (b) per-job spawn engine, (c) warm pool, (d) a warm pool
of one worker, so every job shares one process and its warm caches —
and must produce byte-identical MEDs (every statistic except wall-clock
timings) and identical run manifests modulo timings and cache-warmth
counters.  This is the acceptance test of the warm-pool backend:
persistent workers, the shared-memory table transport and caches kept
warm across jobs may change *when* things are computed, never *what*.

The packed kernel tier adds a second axis: a campaign whose instances
all take the packed sweep (every backend above) must match the same
campaign forced onto the float sweep by the oracle's gate fake —
including a chaos-marked SIGKILL-and-resume on the packed tier, whose
resumed results must match a fault-free float-sweep run.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro import caching, obs
from repro.experiments.engine import (
    EngineConfig,
    campaign_status,
    resume_campaign,
    run_experiment_campaign,
)
from repro.experiments.runner import ExperimentScale
from repro.experiments.table2 import run_table2
from repro.faults import ENV_VAR, FaultPlan

from ..oracle.serial import float_tier

_BASE_SEED = 3


def _strip_times(result_dict):
    """Table-II payload with every wall-clock-derived field zeroed."""
    payload = json.loads(json.dumps(result_dict, sort_keys=True))
    for row in payload["rows"]:
        row["dalta_time"] = 0.0
        row["bssa_time"] = 0.0
    for key in list(payload["geomeans"]):
        if key.endswith("_time"):
            payload["geomeans"][key] = 0.0
    payload["improvement"].pop("time", None)
    return payload


def _campaign(tmp_path, name, config):
    sink = obs.MemorySink()
    with obs.session(sink):
        result, outcome = run_experiment_campaign(
            "table2",
            "smoke",
            base_seed=_BASE_SEED,
            campaign_dir=str(tmp_path / name),
            config=config,
        )
    assert outcome.complete, f"{name} campaign incomplete"
    return result, sink


def _manifest(sink):
    """A run manifest modulo timings and cache-warmth counters.

    Phase timings and ``cache.*`` / ``opt.*`` / ``pool.*`` counters
    legitimately differ with backend and cache warmth (a cache hit
    skips the counted inner work); everything identity-bearing — command,
    config hash, base seed, every spawned seed record, and the engine
    job accounting — must match exactly.
    """
    summary = obs.summarize.summarize(sink.records)
    counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("engine.")
    }
    manifest = obs.RunManifest.build(
        command="repro run table2",
        config={
            "experiment": "table2",
            "scale": "smoke",
            "base_seed": _BASE_SEED,
        },
        base_seed=_BASE_SEED,
        counters=counters,
    )
    for record in sink.events("run.seeded"):
        manifest.add_seed(record.get("attrs", {}))
    payload = manifest.to_dict()
    payload.pop("created")
    payload.pop("phase_timings")
    return payload


class TestBackendEquivalence:
    def test_serial_spawn_pool_and_one_worker_pool_are_byte_identical(
        self, tmp_path
    ):
        serial = run_table2(ExperimentScale.smoke(), base_seed=_BASE_SEED)

        spawn_result, spawn_sink = _campaign(
            tmp_path, "spawn", EngineConfig(n_jobs=2)
        )
        pool_result, pool_sink = _campaign(
            tmp_path, "pool", EngineConfig(n_jobs=2, backend="pool")
        )
        # one worker runs every job, so each job after the first
        # starts with the caches its predecessors left warm
        single_result, single_sink = _campaign(
            tmp_path, "pool-1", EngineConfig(n_jobs=1, backend="pool")
        )

        blobs = [
            json.dumps(_strip_times(result.as_dict()), sort_keys=True)
            for result in (serial, spawn_result, pool_result, single_result)
        ]
        assert blobs[0] == blobs[1], "spawn engine diverged from serial"
        assert blobs[1] == blobs[2], "warm pool diverged from spawn"
        assert blobs[1] == blobs[3], "one-worker pool diverged from spawn"

        spawn_manifest = _manifest(spawn_sink)
        assert _manifest(pool_sink) == spawn_manifest, (
            "spawn vs pool manifests differ beyond timings"
        )
        assert _manifest(single_sink) == spawn_manifest, (
            "spawn vs one-worker pool manifests differ beyond timings"
        )


class TestPackedKernelAxis:
    """Serial Table-II on the packed tier against the float sweep.

    The suite above runs every backend on the packed tier (every
    Table-II instance passes the exactness gate); here the same
    campaign runs in-process with the gate fake forcing the float
    sweep, and must be byte-identical to the packed serial run.
    """

    def test_packed_off_backends_match_packed_on_serial(self):
        caching.clear_caches()
        packed_on = run_table2(ExperimentScale.smoke(), base_seed=_BASE_SEED)
        with float_tier():
            caching.clear_caches()
            serial_off = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )
        blobs = [
            json.dumps(_strip_times(result.as_dict()), sort_keys=True)
            for result in (packed_on, serial_off)
        ]
        assert blobs[0] == blobs[1], "packed tier changed serial results"


_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

_KILL_AFTER_JOB = 2

_CHILD = """
import sys
from repro.experiments.engine import run_experiment_campaign
run_experiment_campaign("table2", "smoke", {seed}, campaign_dir=sys.argv[1])
"""


@pytest.mark.chaos
class TestPackedKillResume:
    """SIGKILL a packed campaign; resume; compare to the float sweep.

    The strongest cross-check of the tier: a campaign killed at a job
    boundary *with the packed kernel engaged*, resumed from its
    checkpoints (still packed), must reproduce — byte for byte — the
    MEDs of an uninterrupted in-process campaign that the gate fake
    keeps off packed code entirely.  Any drift in the packed sweep, the checkpoint payloads, or
    the resume accounting shows up as a diff here.
    """

    def test_resumed_packed_campaign_matches_packed_off_run(self, tmp_path):
        campaign_dir = str(tmp_path / "packed-chaos")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[ENV_VAR] = f"abort@{_KILL_AFTER_JOB}"
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD.format(seed=_BASE_SEED), campaign_dir],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        status = campaign_status(campaign_dir)
        assert len(status.done) == _KILL_AFTER_JOB + 1

        caching.clear_caches()
        result, outcome = resume_campaign(campaign_dir, faults=FaultPlan())
        assert outcome.complete
        assert outcome.resumed == _KILL_AFTER_JOB + 1

        with float_tier():
            caching.clear_caches()
            reference = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )

        resumed_blob = json.dumps(
            _strip_times(result.as_dict()), sort_keys=True
        )
        reference_blob = json.dumps(
            _strip_times(reference.as_dict()), sort_keys=True
        )
        assert resumed_blob == reference_blob
