"""Generate ``BENCH_parallel.json``: spawn vs warm-pool campaign timing.

The same seeded Table-II campaign is executed through the checkpointed
engine under every execution backend —

* ``serial`` — the no-engine, single-process protocol (anchor),
* ``spawn`` — the fault-isolated per-job subprocess backend (each job
  pays a fresh interpreter + import),
* ``pool_cold`` — the warm-pool backend with cold caches (persistent
  workers, shared-memory truth tables) —

and the script asserts every mode's MEDs are **byte-identical** before
recording wall-clock times and speedups.  Timed passes run without
telemetry; one extra untimed pool campaign records the per-backend
pool counters for the snapshot.

Usage::

    PYTHONPATH=src python -m benchmarks.snapshot_parallel \
        --scale default --repeats 2 --out BENCH_parallel.json

CI runs the smoke scale as a consistency gate: any cross-backend MED
disagreement fails the script.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro import caching, obs
from repro.experiments import ExperimentScale, run_table2
from repro.experiments.engine import (
    EngineConfig,
    resolve_jobs,
    run_experiment_campaign,
)

from benchmarks import snapshot_provenance


def _meds(result) -> list:
    """Every MED statistic of a protocol result, in row order."""
    return [
        {"benchmark": row.benchmark, "dalta": row.dalta, "bssa": row.bssa}
        for row in result.rows
    ]


def _campaign(scale, base_seed: int, config: EngineConfig, campaign_dir: Path):
    """One fresh-directory campaign; returns (elapsed, result)."""
    caching.clear_caches()
    start = time.perf_counter()
    result, outcome = run_experiment_campaign(
        "table2",
        scale,
        base_seed=base_seed,
        campaign_dir=str(campaign_dir),
        config=config,
    )
    elapsed = time.perf_counter() - start
    if not outcome.complete:
        raise RuntimeError(
            f"campaign in {campaign_dir} incomplete: "
            f"{len(outcome.quarantined)} quarantined"
        )
    return elapsed, result


def _timed_mode(scale, base_seed, config, root: Path, tag: str, repeats: int):
    """``repeats`` fresh campaigns of one backend; returns (times, result)."""
    times, result = [], None
    for repeat in range(repeats):
        elapsed, result = _campaign(
            scale, base_seed, config, root / f"{tag}-{repeat}"
        )
        times.append(elapsed)
    return times, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "default"), default="smoke")
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated subset (default: the scale's full suite)",
    )
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="engine workers (default: all CPUs)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed repetitions per backend (min is reported)",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    factories = {"smoke": ExperimentScale.smoke, "default": ExperimentScale.default}
    scale = factories[args.scale]()
    if args.benchmarks:
        scale = replace(scale, benchmarks=tuple(args.benchmarks.split(",")))
    jobs = resolve_jobs(args.jobs)

    spawn_config = EngineConfig(n_jobs=jobs)
    pool_config = EngineConfig(n_jobs=jobs, backend="pool")

    snapshot = {
        "protocol": "table2",
        "provenance": snapshot_provenance(),
        "scale": scale.name,
        "n_inputs": scale.n_inputs,
        "n_runs": scale.n_runs,
        "benchmarks": list(scale.benchmarks),
        "base_seed": args.base_seed,
        "jobs": jobs,
        "repeats": args.repeats,
    }

    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as tmp:
        root = Path(tmp)

        # -- serial anchor: the no-engine single-process protocol ------
        serial_times, serial_result = [], None
        for _ in range(args.repeats):
            caching.clear_caches()
            start = time.perf_counter()
            serial_result = run_table2(scale, base_seed=args.base_seed)
            serial_times.append(time.perf_counter() - start)

        # -- engine backends, each over fresh campaign directories -----
        spawn_times, spawn_result = _timed_mode(
            scale, args.base_seed, spawn_config, root, "spawn", args.repeats
        )
        cold_times, cold_result = _timed_mode(
            scale, args.base_seed, pool_config, root, "pool-cold", args.repeats
        )

        # -- byte-identity across every backend ------------------------
        meds = _meds(serial_result)
        for tag, result in (
            ("spawn", spawn_result),
            ("pool_cold", cold_result),
        ):
            if _meds(result) != meds:
                print(f"FAIL: {tag} backend changed the MEDs", file=sys.stderr)
                print(json.dumps(meds, indent=2), file=sys.stderr)
                print(json.dumps(_meds(result), indent=2), file=sys.stderr)
                return 1
        snapshot["meds"] = meds
        snapshot["byte_identical"] = True

        snapshot["serial"] = {"seconds": serial_times, "min": min(serial_times)}
        snapshot["spawn"] = {"seconds": spawn_times, "min": min(spawn_times)}
        snapshot["pool_cold"] = {"seconds": cold_times, "min": min(cold_times)}
        snapshot["speedup"] = {
            "pool_cold_vs_spawn": min(spawn_times) / min(cold_times),
        }

        # -- pool counters of one untimed, telemetry-on pool campaign --
        sink = obs.MemorySink()
        with obs.session(sink):
            _campaign(scale, args.base_seed, pool_config, root / "counters")
        summary = obs.summarize.summarize(sink.records)
        snapshot["pool_counters"] = summary.pool_stats()

    rendered = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
