"""The repo benchmark: Table-II campaigns and ``repro serve`` traffic.

Run from the repository root::

    python3 perfbench/run.py --workload table2-serial --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
separate traced protocol and reports per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every operation passed the correctness gate (``gate.py``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("default", "smoke"),
        default="default",
        help="smoke = tiny inputs for the benchmark's own tests",
    )
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="merge this run's MEDs into expected_meds.json (default seed only)",
    )
    return parser.parse_args(argv)


def result_line(report, trace: bool) -> str:
    metrics = report.per_layer if trace else report.end_to_end
    return json.dumps(
        {
            "correct": report.failed == 0,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {
                name: {"value": entry[0], "unit": entry[1]}
                for name, entry in metrics.items()
            },
        }
    )


def record_expected(report) -> None:
    import gate

    try:
        expected = gate.load_expected()
    except FileNotFoundError:
        expected = {}
    for section, meds in report.observed.items():
        expected.setdefault(section, {}).update(meds)
    with open(gate.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    args = parse_args(argv)

    import gate
    from workloads import WORKLOADS, Context

    if args.record_expected and args.seed != gate.DEFAULT_SEED:
        print("error: --record-expected needs the default seed", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scale=args.scale,
            src_dir=SRC,
            work_dir=work_dir,
        )
        report = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.record_expected:
        record_expected(report)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}")
    for line in report.text:
        print(line)
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"failed_frac {failed_frac:.6f} ratio ({report.failed}/{report.attempted})")
    for operation, messages in report.failures.items():
        for message in messages:
            print(f"FAILED {operation}: {message}", file=sys.stderr)
    print(result_line(report, bool(args.trace)))
    return 0 if report.failed == 0 and report.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
