"""The four workloads: two Table-II campaigns and two serve traffic mixes.

Each workload function takes a :class:`Context` and returns a
:class:`Report`.  With ``trace`` off it measures the end-to-end metrics;
with ``trace`` on it runs the separate traced protocol and fills the
per-layer metrics.  Both modes run the correctness gate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import gate
import layers
from serve_driver import Daemon, closed_loop

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: closed-loop client connections (the machine's core count is 2)
CLIENTS = 2
#: served artifacts per run whose Verilog is simulated
VERILOG_SAMPLE = 2
#: computed serve requests replayed in-process by a traced run
REPLAY_LIMIT = {"default": 40, "smoke": 6}
#: Table-II benchmarks of both campaign workloads
TABLE2_BENCHMARKS = ("cos", "exp", "multiplier")
SERVE_ARCHITECTURES = ("dalta", "bto-normal", "bto-normal-nd")
#: serve request size per scale: (bits, hot-set size)
SERVE_SIZE = {"default": (10, 24), "smoke": (6, 6)}
#: every FRESH_EVERY-th serve-hot request is a never-seen fingerprint
FRESH_EVERY = 7
ZIPF_EXPONENT = 1.1


@dataclasses.dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str
    src_dir: str
    work_dir: str


@dataclasses.dataclass
class Report:
    attempted: int = 0
    #: operation id -> failure messages
    failures: Dict[Any, List[str]] = dataclasses.field(default_factory=dict)
    #: name -> (value, unit, sample count)
    end_to_end: Dict[str, Tuple[float, str, int]] = dataclasses.field(
        default_factory=dict
    )
    #: name -> (value, unit)
    per_layer: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)
    #: human-readable lines printed before the JSON result
    text: List[str] = dataclasses.field(default_factory=list)
    #: MEDs observed, for recording ``expected_meds.json``
    observed: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)

    def fail(self, operations, message: str) -> None:
        for operation in operations:
            self.failures.setdefault(operation, []).append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def line(self, name: str, value: float, unit: str, n: int, note: str = "") -> None:
        self.text.append(f"{name:<22} {value:>12.4f} {unit:<10} (n={n}){note}")


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ======================================================================
# Table-II campaigns
# ======================================================================
def table2_scale(scale: str):
    from repro.experiments.runner import ExperimentScale

    base = ExperimentScale.by_name(scale)
    return dataclasses.replace(base, benchmarks=TABLE2_BENCHMARKS)


_SETUP_PROBE = """
import sys
from repro.experiments.engine import Engine, EngineConfig
from repro.experiments.runner import ExperimentScale, build_suite
from repro.experiments.table2 import run_table2
import dataclasses
scale = dataclasses.replace(ExperimentScale.by_name(sys.argv[1]), benchmarks=tuple(sys.argv[2:]))
build_suite(scale)
"""


def table2_setup_seconds(ctx: Context) -> List[float]:
    """Fresh-interpreter set-up: import the campaign path, build the suite."""
    env = dict(os.environ, PYTHONPATH=ctx.src_dir)
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, ctx.scale, *TABLE2_BENCHMARKS],
            env=env,
            check=True,
            stdin=subprocess.DEVNULL,
            cwd=ctx.work_dir,
        )
        times.append(time.perf_counter() - started)
    return times


@contextlib.contextmanager
def capture_rows():
    """Collect ``(benchmark, algorithm, runs)`` as ``run_table2`` builds rows.

    ``run_table2`` reduces runs to statistics; the gate needs the runs
    themselves, so the row builder both paths share is observed.
    """
    from repro.experiments import table2

    rows: List[Tuple[str, str, list]] = []
    original = table2._table2_row

    def recording(name, dalta_runs, bssa_runs):
        rows.append((name, "dalta", list(dalta_runs)))
        rows.append((name, "bs-sa", list(bssa_runs)))
        return original(name, dalta_runs, bssa_runs)

    table2._table2_row = recording
    try:
        yield rows
    finally:
        table2._table2_row = original


def process_tree_cpu() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_campaign(ctx: Context, scale, jobs: int) -> Dict[str, Any]:
    """One ``run_table2`` campaign, timed, with its runs captured."""
    from repro.experiments.engine import Engine, EngineConfig
    from repro.experiments.table2 import run_table2

    with capture_rows() as rows:
        cpu0 = process_tree_cpu()
        started = time.perf_counter()
        engine = None
        if jobs > 1:
            checkpoint_dir = tempfile.mkdtemp(prefix="campaign-", dir=ctx.work_dir)
            engine = Engine(checkpoint_dir, EngineConfig(n_jobs=jobs))
        run_table2(scale, base_seed=ctx.seed, engine=engine)
        wall = time.perf_counter() - started
        cpu = process_tree_cpu() - cpu0
    return {"wall": wall, "cpu": cpu, "rows": rows, "engine": engine}


def check_campaign(report: Report, ctx: Context, scale, index: int, campaign) -> None:
    """Gate one campaign: every run's MED, the row count, pinned MEDs."""
    expected_runs = scale.n_runs
    rows = campaign["rows"]
    report.attempted += 2 * len(scale.benchmarks) * expected_runs
    seen = {(name, algorithm) for name, algorithm, _ in rows}
    for name in scale.benchmarks:
        for algorithm in ("dalta", "bs-sa"):
            if (name, algorithm) not in seen:
                report.fail(
                    [(index, name, algorithm, i) for i in range(expected_runs)],
                    f"campaign {index}: no {name}/{algorithm} row",
                )
    for name, algorithm, runs in rows:
        if len(runs) != expected_runs:
            report.fail(
                [(index, name, algorithm, i) for i in range(len(runs), expected_runs)],
                f"campaign {index}: {name}/{algorithm} has {len(runs)} runs",
            )
        for i, run in enumerate(runs):
            for message in gate.check_run(run):
                report.fail([(index, name, algorithm, i)], message)
    for key, message in gate.check_expected_table2(ctx.scale, ctx.seed, rows):
        name, algorithm, i = key.split("/")
        report.fail([(index, name, algorithm, int(i))], message)
    report.observed[f"table2/{ctx.scale}"] = dict(gate.table2_keys(rows))


def table2_workload(ctx: Context, jobs: int) -> Report:
    report = Report()
    scale = table2_scale(ctx.scale)
    setups = [] if ctx.trace else table2_setup_seconds(ctx)
    # one untimed smoke-size campaign finishes lazy imports and first-call
    # initialisation, so the first timed campaign is not an outlier
    run_campaign(ctx, table2_scale("smoke"), jobs)
    if ctx.trace:
        return table2_traced(ctx, scale, jobs, report)

    campaigns = []
    started = time.perf_counter()
    while True:
        campaigns.append(run_campaign(ctx, scale, jobs))
        elapsed = time.perf_counter() - started
        if elapsed + campaigns[-1]["wall"] > ctx.seconds:
            break
    for index, campaign in enumerate(campaigns):
        check_campaign(report, ctx, scale, index, campaign)

    runs_per_campaign = 2 * len(scale.benchmarks) * scale.n_runs
    wall = statistics.median(c["wall"] for c in campaigns)
    cpu = statistics.median(c["cpu"] for c in campaigns)
    latencies = [
        1000.0 * run.elapsed_seconds
        for c in campaigns
        for _, _, runs in c["rows"]
        for run in runs
    ]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss = (self_kb + (child_kb if jobs > 1 else 0)) / 1024.0
    n = len(campaigns)
    e2e = report.end_to_end
    e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    e2e["ops_per_s"] = (runs_per_campaign / wall, "1/s", n)
    e2e["cpu_ms_per_op"] = (1000.0 * cpu / runs_per_campaign, "ms", n)
    e2e["latency_p50_ms"] = (percentile(latencies, 50), "ms", len(latencies))
    e2e["latency_p90_ms"] = (percentile(latencies, 90), "ms", len(latencies))
    e2e["peak_rss_mb"] = (rss, "MB", 1)

    report.line("setup_s", e2e["setup_s"][0], "s", len(setups))
    report.line("campaign_wall_s", wall, "s", n)
    report.line("campaign_cpu_s", cpu, "s", n)
    report.line("peak_rss_mb", rss, "MB", 1)
    return report


def _zero_layers() -> Dict[str, Tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}


#: per-layer metric -> (traced layer, column of the reduced table)
TRACED_METRICS = {
    "search.self_s": ("search", "self_s"),
    "search.runs": ("search", "calls"),
    "partition.random_calls": ("partition", "calls"),
    "partition.self_s": ("partition", "self_s"),
    "cost.calls": ("cost", "calls"),
    "cost.self_s": ("cost", "self_s"),
    "opt_for_part.calls": ("opt_for_part", "calls"),
    "opt_for_part.items": ("opt_for_part", "items"),
    "opt_for_part.self_s": ("opt_for_part", "self_s"),
    "nondisjoint.calls": ("nondisjoint", "calls"),
    "nondisjoint.self_s": ("nondisjoint", "self_s"),
    "modes.calls": ("modes", "calls"),
    "modes.self_s": ("modes", "self_s"),
    "hardware.self_s": ("hardware", "self_s"),
    "compile_api.artifact_self_s": ("artifact", "self_s"),
}


def _search_layers(
    per_layer: Dict[str, Tuple[float, str]], table: Dict[str, Dict[str, float]]
) -> None:
    """Fill the in-process layer metrics from a reduced trace."""
    for metric, (layer, column) in TRACED_METRICS.items():
        per_layer[metric] = (layers.layer_value(table, layer, column), PER_LAYER_UNITS[metric])
    calls = per_layer["opt_for_part.calls"][0]
    items = per_layer["opt_for_part.items"][0]
    per_layer["opt_for_part.items_per_call"] = (items / calls if calls else 0.0, "items/call")


def _caching_layers(
    per_layer: Dict[str, Tuple[float, str]], totals: Dict[str, Dict[str, float]]
) -> None:
    def ratio(name: str) -> float:
        stats = totals.get(name, {})
        probes = stats.get("hits", 0) + stats.get("misses", 0)
        return stats.get("hits", 0) / probes if probes else 0.0

    per_layer["caching.opt_memo_hit_ratio"] = (ratio("opt.memo"), "ratio")
    per_layer["caching.opt_memo_evictions"] = (
        float(totals.get("opt.memo", {}).get("evictions", 0)),
        "count",
    )
    per_layer["caching.table_index_hit_ratio"] = (ratio("table_index"), "ratio")


def _trace_summary(
    report: Report,
    table: Dict[str, Dict[str, float]],
    traced_wall: float,
    untraced_wall: float,
    title: str,
) -> None:
    covered = sum(row["self_s"] for row in table.values())
    coverage = covered / traced_wall if traced_wall > 0 else 0.0
    overhead = traced_wall / untraced_wall if untraced_wall > 0 else 0.0
    report.per_layer["trace.coverage"] = (coverage, "ratio")
    report.per_layer["trace.overhead"] = (overhead, "ratio")
    report.text.append(layers.render_table(table, traced_wall, title))
    report.text.append(
        f"trace.coverage {coverage:.4f} (layer self time {covered:.4f} s "
        f"over traced wall {traced_wall:.4f} s)"
    )
    report.text.append(
        f"trace.overhead {overhead:.4f} (traced wall {traced_wall:.4f} s "
        f"over untraced wall {untraced_wall:.4f} s)"
    )


def table2_traced(ctx: Context, scale, jobs: int, report: Report) -> Report:
    """Untraced and traced campaigns, plus telemetry-session ones if serial.

    The serial telemetry comparison runs off, on, on, off, so that a
    drift in machine speed cancels out of ``obs.session_overhead``.
    """
    from repro import obs

    report.per_layer = _zero_layers()
    plain = [run_campaign(ctx, scale, jobs)]
    sessions = []
    if jobs == 1:
        for _ in range(2):
            with obs.session(obs.NullSink()):
                sessions.append(run_campaign(ctx, scale, jobs))
        plain.append(run_campaign(ctx, scale, jobs))
    tracer = layers.Tracer()
    with tracer:
        traced = run_campaign(ctx, scale, jobs)
    for index, campaign in enumerate(plain + sessions + [traced]):
        check_campaign(report, ctx, scale, index, campaign)
    tracer.write(os.path.join(ctx.work_dir, "spans.jsonl"))
    table = layers.reduce_spans(tracer.spans)
    _search_layers(report.per_layer, table)
    plain_wall = statistics.mean(c["wall"] for c in plain)
    if jobs == 1:
        _caching_layers(report.per_layer, tracer.cache_totals)
        session_wall = statistics.mean(c["wall"] for c in sessions)
        ratio = session_wall / plain_wall
        report.per_layer["obs.session_overhead"] = (ratio, "ratio")
        report.text.append(
            f"obs.session_overhead {ratio:.4f} (mean NullSink session wall "
            f"{session_wall:.4f} s over mean telemetry-off wall {plain_wall:.4f} s, "
            f"n={len(sessions)}+{len(plain)})"
        )
    else:
        outcome = plain[0]["engine"].last_outcome
        searched = sum(r.elapsed_seconds for r in outcome.results if r is not None)
        overhead = plain_wall * jobs - searched
        report.per_layer["engine.overhead_s"] = (overhead, "s")
        report.per_layer["engine.retries"] = (float(outcome.retries), "count")
        report.text.append(
            f"engine.overhead_s {overhead:.4f} (wall {plain_wall:.4f} s x "
            f"{jobs} jobs - {searched:.4f} s of search runs); "
            f"engine.retries {outcome.retries}"
        )
    _trace_summary(
        report,
        table,
        traced["wall"],
        plain_wall,
        f"layer table: {ctx.workload}, one traced campaign",
    )
    return report


# ======================================================================
# serve traffic
# ======================================================================
def _request(benchmark: str, architecture: str, bits: int, seed: int) -> Dict[str, Any]:
    return {
        "benchmark": benchmark,
        "bits": bits,
        "budget": "fast",
        "algorithm": "bs-sa",
        "architecture": architecture,
        "seed": seed,
    }


def distinct_requests(bits: int, base_seed: int) -> Iterator[Dict[str, Any]]:
    """Never-repeating requests: every benchmark x architecture, new seeds."""
    from repro.workloads import names

    benchmarks = names()
    index = 0
    while True:
        yield _request(
            benchmarks[(index // len(SERVE_ARCHITECTURES)) % len(benchmarks)],
            SERVE_ARCHITECTURES[index % len(SERVE_ARCHITECTURES)],
            bits,
            base_seed + index,
        )
        index += 1


def numbered(
    requests: Iterator[Dict[str, Any]], sent: Dict[int, Dict[str, Any]]
) -> Iterator[Tuple[int, bytes]]:
    """``(index, body)`` pairs for the client loop, recording each in ``sent``."""
    for index, request in enumerate(requests):
        sent[index] = request
        yield index, json.dumps(request, sort_keys=True).encode()


def hot_traffic(
    hot: Sequence[Dict[str, Any]],
    fresh: Iterator[Dict[str, Any]],
    rng: np.random.Generator,
) -> Iterator[Dict[str, Any]]:
    """Zipf draws over the hot set, every FRESH_EVERY-th request fresh."""
    ranks = np.arange(1, len(hot) + 1, dtype=np.float64)
    weights = ranks**-ZIPF_EXPONENT
    weights /= weights.sum()
    index = 0
    while True:
        if index % FRESH_EVERY == FRESH_EVERY - 1:
            yield next(fresh)
        else:
            yield hot[int(rng.choice(len(hot), p=weights))]
        index += 1


def _boot(ctx: Context, warm: Optional[List[Dict[str, Any]]]):
    """One set-up: daemon boot to ``/healthz`` plus the hot-set warm-up."""
    started = time.perf_counter()
    daemon = Daemon(ctx.src_dir, ctx.work_dir).start()
    replies = []
    try:
        if warm:
            replies, _ = closed_loop(daemon, numbered(iter(warm), {}), CLIENTS, seconds=None)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started, replies


def serve_setup(ctx: Context, warm: Optional[List[Dict[str, Any]]]):
    """SETUP_REPEATS set-ups; the last daemon stays up for the timed phase."""
    times = []
    daemon = None
    replies = []
    for repeat in range(SETUP_REPEATS):
        daemon, seconds, replies = _boot(ctx, warm)
        times.append(seconds)
        if repeat < SETUP_REPEATS - 1:
            daemon.stop()
    return daemon, times, replies


def check_replies(
    report: Report,
    ctx: Context,
    groups: Sequence[Tuple[str, Dict[int, Dict[str, Any]], Sequence]],
) -> Dict[str, Dict[str, Any]]:
    """Gate served replies; returns the distinct artifacts by fingerprint.

    ``groups`` holds ``(label, requests by index, replies)`` per phase
    (warm-up, timed); the operation id of a reply is ``(label, index)``.
    """
    from repro.compile_api import canonical_json

    artifacts: Dict[str, Dict[str, Any]] = {}
    first_bytes: Dict[str, str] = {}
    operations: Dict[Any, List[Any]] = {}
    for label, requests, replies in groups:
        for reply in replies:
            operation = (label, reply.index)
            if reply.status != 200:
                report.fail([operation], f"{label} request {reply.index}: HTTP {reply.status}")
                continue
            envelope = json.loads(reply.body)
            artifact = envelope["artifact"]
            fingerprint = envelope["fingerprint"]
            request = requests[reply.index]
            if (
                artifact["target"]["name"] != request["benchmark"]
                or artifact["architecture"] != request["architecture"]
            ):
                report.fail([operation], f"{label} request {reply.index}: wrong artifact")
            canonical = canonical_json(artifact)
            operations.setdefault(fingerprint, []).append(operation)
            if fingerprint not in first_bytes:
                first_bytes[fingerprint] = canonical
                artifacts[fingerprint] = artifact
            elif first_bytes[fingerprint] != canonical:
                report.fail(
                    [operation],
                    f"{label} request {reply.index}: artifact bytes differ from "
                    f"the first reply for {fingerprint}",
                )
    for fingerprint, artifact in artifacts.items():
        for message in gate.check_artifact(artifact):
            report.fail(operations[fingerprint], message)
    for fingerprint, message in gate.check_expected_serve(ctx.scale, ctx.seed, artifacts):
        report.fail(operations.get(fingerprint, [("expected", None)]), message)
    fingerprints = sorted(artifacts)
    sample = np.random.default_rng(ctx.seed).choice(
        len(fingerprints), size=min(VERILOG_SAMPLE, len(fingerprints)), replace=False
    )
    for position in sample:
        fingerprint = fingerprints[int(position)]
        for message in gate.check_verilog(artifacts[fingerprint]):
            report.fail(operations[fingerprint], message)
    return artifacts


def _state_layers(report: Report, state: Dict[str, Any]) -> None:
    counters = state.get("counters", {})
    histograms = state.get("histograms", {})
    cache = state.get("serve", {}).get("cache", {})
    batch = histograms.get("serve.batch_size", {})
    executed = counters.get("serve.executed", 0)
    probes = cache.get("hits", 0) + cache.get("misses", 0)
    per_layer = report.per_layer
    per_layer["serve.batches"] = (float(counters.get("serve.batches", 0)), "count")
    per_layer["serve.batch_size_mean"] = (
        batch["total"] / batch["count"] if batch.get("count") else 0.0,
        "requests",
    )
    per_layer["serve.batched_ratio"] = (
        counters.get("serve.batched_jobs", 0) / executed if executed else 0.0,
        "ratio",
    )
    per_layer["serve.fusion_batched"] = (
        float(counters.get("serve.fusion_batched", 0)),
        "count",
    )
    per_layer["serve.retries"] = (float(counters.get("serve.retries", 0)), "count")
    per_layer["serve.cache_hit_ratio"] = (
        cache.get("hits", 0) / probes if probes else 0.0,
        "ratio",
    )
    per_layer["serve.coalesced"] = (float(counters.get("serve.coalesced", 0)), "count")
    for name in ("pool.jobs", "pool.workers_started", "pool.memo_published"):
        per_layer[name] = (float(counters.get(name, 0)), "count")


def serve_replay(
    ctx: Context,
    report: Report,
    requests: Dict[int, Dict[str, Any]],
    replies: Sequence,
    served: Dict[str, Dict[str, Any]],
) -> None:
    """Replay computed requests in-process through ``compile_one``.

    The pool worker runs the same body, so the replay's layer table
    stands for the daemon's search, hardware and artifact layers.
    """
    from repro.compile_api import canonical_json, compile_one

    computed = sorted(
        (reply for reply in replies if reply.status == 200
         and json.loads(reply.body)["source"] == "computed"),
        key=lambda reply: reply.index,
    )[: REPLAY_LIMIT[ctx.scale]]

    def replay():
        times = []
        for reply in computed:
            started = time.perf_counter()
            artifact = compile_one(**requests[reply.index])
            times.append(time.perf_counter() - started)
            fingerprint = artifact.fingerprint
            if canonical_json(artifact.payload) != canonical_json(served[fingerprint]):
                report.fail(
                    [("replay", reply.index)],
                    f"in-process compile of request {reply.index} differs "
                    "from the served artifact",
                )
        return times

    untraced = replay()
    tracer = layers.Tracer()
    with tracer:
        started = time.perf_counter()
        replay()
        traced_wall = time.perf_counter() - started
    tracer.write(os.path.join(ctx.work_dir, "spans.jsonl"))
    table = layers.reduce_spans(tracer.spans)
    _search_layers(report.per_layer, table)
    _caching_layers(report.per_layer, tracer.cache_totals)
    overheads = [
        1000.0 * (reply.latency - seconds) for reply, seconds in zip(computed, untraced)
    ]
    overhead = statistics.median(overheads) if overheads else 0.0
    report.per_layer["serve.overhead_ms"] = (overhead, "ms")
    report.text.append(
        f"serve.overhead_ms {overhead:.4f} (median served latency minus "
        f"in-process compile_one time, n={len(overheads)})"
    )
    _trace_summary(
        report,
        table,
        traced_wall,
        sum(untraced),
        f"layer table: {ctx.workload}, in-process replay of "
        f"{len(computed)} computed request(s)",
    )


def serve_workload(ctx: Context, hot: bool) -> Report:
    report = Report()
    bits, hot_size = SERVE_SIZE[ctx.scale]
    rng = np.random.default_rng(ctx.seed)
    base_seeds = rng.integers(1, 1 << 30, size=2)
    fresh = distinct_requests(bits, int(base_seeds[0]))
    warm: Dict[int, Dict[str, Any]] = {}
    if hot:
        hot_source = distinct_requests(bits, int(base_seeds[1]))
        hot_set = [next(hot_source) for _ in range(hot_size)]
        warm = dict(enumerate(hot_set))
        traffic = hot_traffic(hot_set, fresh, rng)
    else:
        traffic = fresh
    sent: Dict[int, Dict[str, Any]] = {}

    daemon, setups, warm_replies = serve_setup(ctx, list(warm.values()))
    try:
        cpu0 = daemon.cpu_seconds()
        replies, wall = closed_loop(daemon, numbered(traffic, sent), CLIENTS, ctx.seconds)
        cpu = daemon.cpu_seconds() - cpu0
        state = daemon.state()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    report.attempted = len(replies) + len(warm_replies)
    artifacts = check_replies(
        report, ctx, [("warm-up", warm, warm_replies), ("timed", sent, replies)]
    )
    report.observed[f"serve/{ctx.scale}"] = {
        fp: artifact["med"] for fp, artifact in artifacts.items()
    }

    ok = [reply for reply in replies if reply.status == 200]
    latencies = [1000.0 * reply.latency for reply in ok]
    n = len(latencies)
    e2e = report.end_to_end
    e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    e2e["ops_per_s"] = (len(ok) / wall, "1/s", n)
    e2e["cpu_ms_per_op"] = (1000.0 * cpu / max(len(replies), 1), "ms", n)
    e2e["latency_p50_ms"] = (percentile(latencies, 50), "ms", n)
    e2e["latency_p90_ms"] = (percentile(latencies, 90), "ms", n)
    e2e["peak_rss_mb"] = (rss, "MB", 1)

    report.line("setup_s", e2e["setup_s"][0], "s", len(setups))
    report.line("rps", e2e["ops_per_s"][0], "requests/s", n)
    report.line("latency_p50_ms", e2e["latency_p50_ms"][0], "ms", n)
    report.line("latency_p90_ms", e2e["latency_p90_ms"][0], "ms", n)
    if hot:
        p99 = percentile(latencies, 99)
        beyond = sum(1 for value in latencies if value > p99)
        note = "" if beyond >= 10 else " (fewer than 10 samples beyond: indicative)"
        report.line("latency_p99_ms", p99, "ms", n, f" beyond={beyond}{note}")
    report.line("cpu_ms_per_request", e2e["cpu_ms_per_op"][0], "ms", len(replies))
    report.line("peak_rss_mb", rss, "MB", 1)

    if ctx.trace:
        report.per_layer = _zero_layers()
        _state_layers(report, state)
        serve_replay(ctx, report, sent, replies, artifacts)
    return report


#: every per-layer metric and its unit; each workload reports all of
#: them, with 0 where the workload bypasses the layer
PER_LAYER_UNITS = {
    "search.self_s": "s",
    "search.runs": "count",
    "partition.random_calls": "count",
    "partition.self_s": "s",
    "cost.calls": "count",
    "cost.self_s": "s",
    "opt_for_part.calls": "count",
    "opt_for_part.items": "count",
    "opt_for_part.items_per_call": "items/call",
    "opt_for_part.self_s": "s",
    "nondisjoint.calls": "count",
    "nondisjoint.self_s": "s",
    "modes.calls": "count",
    "modes.self_s": "s",
    "hardware.self_s": "s",
    "compile_api.artifact_self_s": "s",
    "serve.overhead_ms": "ms",
    "serve.batches": "count",
    "serve.batch_size_mean": "requests",
    "serve.batched_ratio": "ratio",
    "serve.fusion_batched": "count",
    "serve.retries": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "pool.jobs": "count",
    "pool.workers_started": "count",
    "pool.memo_published": "count",
    "engine.overhead_s": "s",
    "engine.retries": "count",
    "caching.opt_memo_hit_ratio": "ratio",
    "caching.opt_memo_evictions": "count",
    "caching.table_index_hit_ratio": "ratio",
    "obs.session_overhead": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

WORKLOADS = {
    "table2-serial": lambda ctx: table2_workload(ctx, jobs=1),
    "table2-jobs2": lambda ctx: table2_workload(ctx, jobs=2),
    "serve-cold": lambda ctx: serve_workload(ctx, hot=False),
    "serve-hot": lambda ctx: serve_workload(ctx, hot=True),
}
