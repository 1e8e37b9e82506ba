"""Generate ``BENCH_table2.json``: a seeded Table-II wall-clock snapshot.

The snapshot runs the full Table-II protocol (``run_table2``: every
benchmark × both algorithms × ``n_runs`` independent seeds, serially in
one process — the shape the caches amortise over) and records

* wall-clock of the current tree (cold caches), per repeat,
* optionally, wall-clock of a *baseline checkout* (``--baseline``
  points at an older tree's ``src``; both sides run as interleaved
  subprocesses so machine drift hits them equally),
* the cache hit/miss statistics and per-phase wall-clock breakdown
  (``phase_timings``: span name -> count/total seconds) of a cold pass
  run under telemetry,
* the kernel-tier engagement of that pass (``engagement``: how many
  ``OptForPart`` requests took the packed sweep, its f32 variant, or
  the float fallback), and
* the per-benchmark MEDs, asserted **byte-identical** across every
  repeat and the telemetry pass.

The script fails when any two passes disagree on a MED, when the packed
tier never engages, or when any Table-II instance falls back to the
float sweep.

Usage::

    PYTHONPATH=src python -m benchmarks.snapshot_table2 \
        --scale default --benchmarks cos,exp,multiplier \
        --repeats 2 --baseline /tmp/seedrepo/src --out BENCH_table2.json

CI runs the smoke scale with no baseline as a <60s consistency gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import caching, obs
from repro.experiments import ExperimentScale, run_table2

from benchmarks import snapshot_provenance

#: child program for subprocess timings — argv: scale, benchmarks, seed
_CHILD = """\
import json, sys, time
from dataclasses import replace
from repro.experiments import ExperimentScale, run_table2
factories = {"smoke": ExperimentScale.smoke, "default": ExperimentScale.default}
scale = replace(
    factories[sys.argv[1]](), benchmarks=tuple(sys.argv[2].split(","))
)
start = time.perf_counter()
result = run_table2(scale, base_seed=int(sys.argv[3]))
elapsed = time.perf_counter() - start
rows = [
    {"benchmark": r.benchmark, "dalta": r.dalta, "bssa": r.bssa}
    for r in result.rows
]
print(json.dumps({"elapsed": elapsed, "rows": rows}))
"""


def _meds(result) -> list:
    """Every MED statistic of a protocol result, in row order."""
    return [
        {"benchmark": row.benchmark, "dalta": row.dalta, "bssa": row.bssa}
        for row in result.rows
    ]


def _run_protocol(scale, base_seed: int):
    """One cold protocol execution; returns (elapsed, result)."""
    caching.clear_caches()
    start = time.perf_counter()
    result = run_table2(scale, base_seed=base_seed)
    return time.perf_counter() - start, result


def _run_child(src_path: str, scale_name: str, benchmarks, base_seed: int):
    """Time one protocol execution of a checkout in a subprocess."""
    env = dict(os.environ, PYTHONPATH=src_path)
    output = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD,
            scale_name,
            ",".join(benchmarks),
            str(base_seed),
        ],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(output.stdout)


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
        "--repeats",
        type=int,
        default=1,
        help="timed repetitions (min is reported)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="src/ directory of an older checkout to race against "
        "(interleaved subprocesses)",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    factories = {"smoke": ExperimentScale.smoke, "default": ExperimentScale.default}
    scale = factories[args.scale]()
    if args.benchmarks:
        scale = replace(scale, benchmarks=tuple(args.benchmarks.split(",")))

    snapshot = {
        "protocol": "table2",
        "provenance": snapshot_provenance(),
        "scale": scale.name,
        "n_inputs": scale.n_inputs,
        "n_runs": scale.n_runs,
        "benchmarks": list(scale.benchmarks),
        "base_seed": args.base_seed,
        "repeats": args.repeats,
    }

    # -- current tree (cold), every repeat must reproduce the MEDs -------
    times = []
    meds = None
    for _ in range(args.repeats):
        elapsed, result = _run_protocol(scale, args.base_seed)
        times.append(elapsed)
        if meds is None:
            meds = _meds(result)
        elif _meds(result) != meds:
            print("FAIL: a repeat changed the protocol outputs", file=sys.stderr)
            return 1
    snapshot["meds"] = meds
    snapshot["fast"] = {"seconds": times, "min": min(times)}

    # -- cache statistics, per-phase wall clock and tier engagement of one
    # cold pass (this pass runs under telemetry, so it is not used for the
    # timed wall-clock numbers above)
    memory = obs.MemorySink()
    with obs.session(memory):
        _, traced = _run_protocol(scale, args.base_seed)
    if _meds(traced) != meds:
        print("FAIL: telemetry changed the protocol outputs", file=sys.stderr)
        return 1
    snapshot["cache_stats"] = caching.cache_stats()
    summary = obs.summarize.summarize(memory.records)
    snapshot["phase_timings"] = summary.phase_timings()
    counters = memory.counters()
    engagement = {
        key: int(counters.get(f"opt.{key}", 0))
        for key in ("packed_calls", "packed_f32_calls", "packed_ineligible")
    }
    snapshot["engagement"] = engagement
    if not engagement["packed_calls"] or engagement["packed_ineligible"]:
        print(
            f"FAIL: Table-II left the packed tier: {engagement}", file=sys.stderr
        )
        return 1

    # -- optional race against an older checkout -----------------------
    if args.baseline:
        baseline_times, current_times = [], []
        baseline_rows = current_rows = None
        for _ in range(args.repeats):
            child = _run_child(
                args.baseline, scale.name, scale.benchmarks, args.base_seed
            )
            baseline_times.append(child["elapsed"])
            baseline_rows = child["rows"]
            child = _run_child(
                str(Path(__file__).resolve().parent.parent / "src"),
                scale.name,
                scale.benchmarks,
                args.base_seed,
            )
            current_times.append(child["elapsed"])
            current_rows = child["rows"]
        if baseline_rows != current_rows:
            print("FAIL: outputs differ from the baseline checkout", file=sys.stderr)
            return 1
        snapshot["baseline"] = {
            "src": args.baseline,
            "seconds": baseline_times,
            "min": min(baseline_times),
            "byte_identical": True,
        }
        snapshot["current_subprocess"] = {
            "seconds": current_times,
            "min": min(current_times),
        }
        snapshot["speedup_vs_baseline"] = min(baseline_times) / min(current_times)

    rendered = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
