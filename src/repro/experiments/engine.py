"""Fault-tolerant, checkpointed execution of experiment campaigns.

The paper's headline tables come from thousands of independent seeded
runs; :func:`repro.experiments.parallel.run_many` executes them but a
single worker crash (OOM, preemption, a poison job) loses the whole
campaign.  This module subsumes ``run_many`` with a durable job
engine:

* every :class:`~repro.experiments.parallel.RunSpec` becomes a job
  whose result is persisted **atomically** (write to a temp file,
  ``fsync``, ``os.replace``) through a pluggable
  :class:`~repro.experiments.store.CheckpointStore`, so an interrupted
  campaign resumes from its checkpoints and completes byte-identical
  to an uninterrupted run — seeds come from the existing
  ``SeedSequence.spawn`` scheme, so resume never re-draws RNG state;
* each job runs in a supervised worker process with a per-job timeout,
  bounded retries with deterministic backoff, and quarantine of poison
  jobs (partial-result reporting instead of campaign abort);
* a campaign can be **sharded across hosts**: ``EngineConfig`` carries
  a ``shard_index/shard_count`` identity, jobs are partitioned by
  stable fingerprint hash (:func:`~repro.experiments.store.shard_of`),
  and with the shared-directory store each engine claims work through
  expiring leases — a SIGKILLed or hung shard simply stops renewing
  and a sibling adopts its jobs.  Separate per-shard directories are
  joined back with :func:`~repro.experiments.store.merge_campaigns`;
* a seedable fault-injection harness (:mod:`repro.faults`) can kill,
  hang, or corrupt chosen jobs — and kill whole shards or plant stale
  leases — so the chaos tests and CI prove the recovery paths are
  byte-exact.

Telemetry (when enabled) gains ``engine.resumed`` / ``engine.retries``
/ ``engine.timeouts`` / ``engine.quarantined`` counters (plus the
``engine.shard`` gauge and ``lease.claimed/expired/stolen`` from the
shared store) and the worker spans are folded into the parent session
exactly as ``run_many`` does; with telemetry off the engine path's
outputs are byte-identical to ``run_many`` under the same base seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .. import faults as faults_mod
from .. import obs
from ..core.result import ApproximationResult, SearchStats
from ..core.serialize import setting_from_dict, setting_to_dict
from ..core.settings import SettingSequence
from . import reporting
from .parallel import RunSpec
from .store import (
    CAMPAIGN_FILE as _CAMPAIGN_FILE,
    DEFAULT_LEASE_TTL,
    JOBS_DIR as _JOBS_DIR,
    QUARANTINE_DIR as _QUARANTINE_DIR,
    SCHEMA as _SCHEMA,
    CampaignError,
    CampaignMismatch,
    CheckpointStore,
    LocalStore,
    SharedDirStore,
    atomic_write_json,
    make_store,
    shard_indices,
    shard_of,
)

__all__ = [
    "EngineConfig",
    "Engine",
    "resolve_jobs",
    "CampaignError",
    "CampaignMismatch",
    "CampaignOutcome",
    "CampaignStatus",
    "JobFailure",
    "atomic_write_json",
    "backoff_seconds",
    "result_to_payload",
    "result_from_payload",
    "run_experiment_campaign",
    "resume_campaign",
    "campaign_status",
]

#: environment variable marking the process as one shard of a larger
#: campaign (``"i/n"``) — stamped into benchmark snapshot provenance
#: so the regression ratchet can reject partial-shard numbers
SHARD_ENV_VAR = "REPRO_SHARD"


def backoff_seconds(attempt: int, base: float) -> float:
    """Deterministic exponential backoff before retry ``attempt``.

    Attempt 0 (the first execution) never waits; retry ``a`` waits
    ``base * 2**(a - 1)`` seconds.  No jitter — two runs of the same
    campaign with the same fault plan retry on the same schedule.
    """
    if attempt <= 0 or base <= 0:
        return 0.0
    return base * (2.0 ** (attempt - 1))


def resolve_jobs(requested: Optional[int], job_count: Optional[int] = None) -> int:
    """Effective worker count for a campaign.

    ``requested=None`` defaults to ``os.cpu_count()``; with a known
    ``job_count`` the result is clamped to it (never start workers
    with nothing to do) and to at least 1.  Explicit requests below 1
    are rejected — the CLI surfaces that as a ``--jobs`` argument
    error before any work starts.
    """
    if requested is not None and requested < 1:
        raise ValueError("jobs must be >= 1")
    effective = requested if requested is not None else (os.cpu_count() or 1)
    if job_count is not None:
        effective = min(effective, max(1, job_count))
    return max(1, effective)


# ======================================================================
# Job payloads: ApproximationResult <-> durable JSON
# ======================================================================
def result_to_payload(spec: RunSpec, result: ApproximationResult) -> Dict[str, Any]:
    """Serialise one job's result for its checkpoint file."""
    return {
        "schema": _SCHEMA,
        "fingerprint": spec.fingerprint(),
        "label": spec.label,
        "algorithm": result.algorithm,
        "benchmark": spec.name,
        "med": result.med,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": dataclasses.asdict(result.stats),
        "round_history": list(result.round_history),
        "settings": [setting_to_dict(s) for s in result.sequence.settings],
        "seed": spec.seed_info(),
    }


def result_from_payload(
    spec: RunSpec, payload: Dict[str, Any]
) -> ApproximationResult:
    """Reconstruct a job result, validating it belongs to ``spec``."""
    if payload.get("schema") != _SCHEMA:
        raise CampaignError(f"unsupported job payload schema {payload.get('schema')!r}")
    if payload.get("fingerprint") != spec.fingerprint():
        raise CampaignMismatch(
            f"job payload fingerprint {payload.get('fingerprint')!r} does not "
            f"match spec {spec.label} ({spec.fingerprint()})"
        )
    settings = [setting_from_dict(s) for s in payload["settings"]]
    sequence = SettingSequence(spec.n_outputs, settings)
    stats_fields = {f.name for f in dataclasses.fields(SearchStats)}
    stats = SearchStats(
        **{k: v for k, v in payload.get("stats", {}).items() if k in stats_fields}
    )
    return ApproximationResult(
        algorithm=payload["algorithm"],
        target=spec.target_function(),
        sequence=sequence,
        med=float(payload["med"]),
        elapsed_seconds=float(payload["elapsed_seconds"]),
        stats=stats,
        round_history=[float(v) for v in payload.get("round_history", [])],
    )


# ======================================================================
# Worker process entry point
# ======================================================================
def _job_worker(
    spec: RunSpec,
    path: str,
    fault: Optional[faults_mod.Fault],
    capture_telemetry: bool,
) -> None:
    """Execute one job and persist its payload atomically.

    Runs in a child process.  The worker itself writes the checkpoint
    file, so a worker killed at *any* point leaves either no file or a
    complete one — the parent decides success purely by payload
    validity.  Injected crash/hang faults fire before the computation;
    an injected corruption replaces the payload with garbage (the
    parent must detect and retry it).
    """
    faults_mod.inject_worker_fault(fault)
    sink = obs.MemorySink()
    with obs.session(sink):
        result = spec.execute()
    if fault is not None and fault.kind == "corrupt":
        with open(path, "w") as handle:
            handle.write('{"schema": 1, "med": 0.0, "settings": [{"trunc')
        return
    payload = result_to_payload(spec, result)
    if capture_telemetry:
        payload["telemetry"] = sink.records
    atomic_write_json(path, payload)


# ======================================================================
# Engine configuration and outcomes
# ======================================================================
@dataclass(frozen=True)
class EngineConfig:
    """Supervision knobs of the checkpointed engine."""

    #: concurrent worker processes
    n_jobs: int = 1
    #: per-job wall-clock timeout in seconds (None = unlimited)
    job_timeout: Optional[float] = None
    #: retries after the first failed attempt before quarantine
    max_retries: int = 2
    #: base of the deterministic exponential retry backoff (seconds)
    backoff_base: float = 0.0
    #: supervision poll interval (seconds)
    poll_interval: float = 0.02
    #: execution backend: "spawn" = one fault-isolated process per job,
    #: "pool" = persistent warm workers over shared memory (see
    #: repro.experiments.pool) — outputs are byte-identical either way
    backend: str = "spawn"
    #: serve live /metrics + /healthz on this port while the campaign
    #: runs (0 = ephemeral port; None = no server).  Read-only: the
    #: endpoint never changes campaign results.
    metrics_port: Optional[int] = None
    #: checkpoint store: "local" = single-writer directory, "shared" =
    #: concurrent-writer directory with lease-based claiming (see
    #: repro.experiments.store)
    store: str = "local"
    #: this engine's shard identity (both or neither of index/count);
    #: jobs are partitioned by stable fingerprint hash, so membership
    #: is byte-identical on every host regardless of count
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    #: seconds a shared-store lease stays valid without a heartbeat
    lease_ttl: float = DEFAULT_LEASE_TTL
    #: with a shared store, pick up other shards' unclaimed/expired
    #: jobs once this shard's own partition is done (work stealing)
    adopt: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if self.backend not in ("spawn", "pool"):
            raise ValueError(
                f"unknown backend {self.backend!r}; choose spawn or pool"
            )
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ValueError("metrics_port must be in [0, 65535]")
        if self.store not in ("local", "shared"):
            raise ValueError(
                f"unknown store {self.store!r}; choose local or shared"
            )
        if (self.shard_index is None) != (self.shard_count is None):
            raise ValueError(
                "shard_index and shard_count must be set together "
                "(e.g. --shard 2/4)"
            )
        if self.shard_count is not None:
            if self.shard_count < 1:
                raise ValueError("shard_count must be >= 1")
            if not (0 <= self.shard_index < self.shard_count):
                raise ValueError(
                    f"shard_index must be in [0, {self.shard_count}); "
                    f"got {self.shard_index}"
                )
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")

    @property
    def shard_label(self) -> Optional[str]:
        """``"i/n"`` when sharded, else ``None``."""
        if self.shard_index is None:
            return None
        return f"{self.shard_index}/{self.shard_count}"


@dataclass
class JobFailure:
    """Why one job attempt (or a whole job) failed."""

    index: int
    label: str
    reason: str
    attempts: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class CampaignOutcome:
    """What a campaign run produced.

    ``results`` is in spec order; quarantined jobs are ``None`` —
    partial-result reporting instead of campaign abort.  A strictly
    partitioned shard run leaves other shards' jobs ``None`` too and
    counts them in ``skipped``; merge the shard directories to get the
    full campaign.
    """

    results: List[Optional[ApproximationResult]]
    resumed: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    skipped: int = 0
    quarantined: List[JobFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(result is not None for result in self.results)

    def require_complete(self) -> List[ApproximationResult]:
        if not self.complete:
            if self.quarantined:
                labels = ", ".join(f.label for f in self.quarantined)
                raise CampaignError(
                    f"campaign incomplete: {len(self.quarantined)} job(s) "
                    f"quarantined ({labels})"
                )
            raise CampaignError(
                f"campaign incomplete: {self.skipped} job(s) belong to "
                "other shards — merge the shard directories first"
            )
        return list(self.results)  # type: ignore[arg-type]


# ======================================================================
# The engine
# ======================================================================
class _Running:
    __slots__ = ("process", "deadline", "attempt")

    def __init__(self, process, deadline: Optional[float], attempt: int) -> None:
        self.process = process
        self.deadline = deadline
        self.attempt = attempt


class _JobQueue:
    """Claim-aware scheduling state shared by both supervision backends.

    ``pending`` holds this shard's own jobs (retries re-enter here);
    ``deferred`` holds jobs whose lease claim failed — a live sibling
    holds them — keyed to the wall time of the next claim attempt;
    ``foreign`` holds other shards' jobs, only drawn once the own
    partition has drained.
    """

    def __init__(
        self,
        owned: Sequence[int],
        foreign: Sequence[int],
        retry_delay: float,
    ) -> None:
        self.pending: deque = deque(owned)
        self.foreign: deque = deque(foreign)
        self.retry_delay = retry_delay
        self.deferred: Dict[int, float] = {}

    def defer(self, index: int) -> None:
        self.deferred[index] = time.time() + self.retry_delay

    def requeue(self, index: int) -> None:
        self.pending.append(index)

    def next_index(self) -> Optional[int]:
        if self.pending:
            return self.pending.popleft()
        now = time.time()
        due = [index for index, when in self.deferred.items() if when <= now]
        if due:
            index = min(due)
            del self.deferred[index]
            return index
        if self.foreign:
            return self.foreign.popleft()
        return None

    def __bool__(self) -> bool:
        return bool(self.pending or self.deferred or self.foreign)


class Engine:
    """Checkpointed, supervised executor of :class:`RunSpec` campaigns.

    With ``campaign_dir=None`` the engine still supervises workers
    (timeouts, retries, quarantine) but checkpoints into a temporary
    directory discarded after the run.  With a directory, completed
    jobs are durable: a second ``run`` over the same specs skips them
    (``engine.resumed``) and an interrupted campaign picks up where it
    stopped.  With a shard identity the engine runs its own partition
    of the job list; on a shared store it then adopts siblings' jobs
    whose leases are absent or expired.
    """

    def __init__(
        self,
        campaign_dir: Optional[str] = None,
        config: Optional[EngineConfig] = None,
        faults: Optional[faults_mod.FaultPlan] = None,
    ) -> None:
        self.campaign_dir = campaign_dir
        self.config = config or EngineConfig()
        self.faults = faults if faults is not None else faults_mod.from_env()
        #: recorded in campaign.json so ``repro resume`` can rebuild specs
        self.invocation: Optional[Dict[str, Any]] = None
        #: outcome of the most recent :meth:`run`
        self.last_outcome: Optional[CampaignOutcome] = None
        #: the checkpoint store of the in-flight (or last) run
        self.store: Optional[CheckpointStore] = None
        #: live metrics hub while a --metrics-port run is in flight
        self._hub = None
        #: (host, port) of the running metrics server, if any
        self.metrics_address: Optional[Tuple[str, int]] = None
        self._foreign: Set[int] = set()
        self._claimed: Set[int] = set()
        self._lease_faults_fired: Set[int] = set()

    # -- campaign layout ----------------------------------------------
    def _init_campaign(self, specs: Sequence[RunSpec]) -> None:
        """Create or validate the campaign manifest for these specs."""
        if self.store is None:
            assert self.campaign_dir is not None
            self.store = make_store(
                self.campaign_dir,
                self.config.store,
                lease_ttl=self.config.lease_ttl,
            )
            self.store.prepare()
        jobs = [
            {
                "id": f"job-{index:05d}",
                "label": spec.label,
                "fingerprint": spec.fingerprint(),
                "benchmark": spec.name,
                "algorithm": spec.algorithm,
            }
            for index, spec in enumerate(specs)
        ]
        existing = self.store.read_manifest()
        if existing is not None:
            recorded = [job["fingerprint"] for job in existing.get("jobs", [])]
            ours = [job["fingerprint"] for job in jobs]
            if recorded != ours:
                raise CampaignMismatch(
                    f"{self.campaign_dir} holds a different campaign "
                    f"({len(recorded)} job(s) recorded, {len(ours)} requested; "
                    "fingerprints differ)"
                )
            return
        shard: Optional[Dict[str, Any]] = None
        if self.config.shard_count is not None:
            # A shared directory is written by every shard (whoever
            # inits first wins the race), so it records no single
            # index; a per-shard local directory records its own.
            shard = {
                "index": (
                    None
                    if self.store.supports_leases
                    else self.config.shard_index
                ),
                "count": self.config.shard_count,
            }
        manifest = {
            "schema": _SCHEMA,
            "created": time.time(),
            "engine": dataclasses.asdict(self.config),
            "invocation": self.invocation,
            "shard": shard,
            "jobs": jobs,
        }
        self.store.write_manifest(manifest)

    # -- the run loop --------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> CampaignOutcome:
        """Execute the campaign, resuming any persisted jobs."""
        specs = list(specs)
        outcome = CampaignOutcome(results=[None] * len(specs))
        if not specs:
            self.last_outcome = outcome
            return outcome
        config = self.config
        self._foreign = set()
        self._claimed = set()
        self._lease_faults_fired = set()
        try:
            with contextlib.ExitStack() as stack:
                self._start_metrics(stack, len(specs))
                if config.shard_label is not None:
                    os.environ[SHARD_ENV_VAR] = config.shard_label
                    stack.callback(os.environ.pop, SHARD_ENV_VAR, None)
                if self.campaign_dir is not None:
                    self.store = make_store(
                        self.campaign_dir,
                        config.store,
                        lease_ttl=config.lease_ttl,
                    )
                    self.store.prepare()
                    self._init_campaign(specs)
                    self._execute(specs, outcome)
                else:
                    with tempfile.TemporaryDirectory(
                        prefix="repro-engine-"
                    ) as tmp_dir:
                        self.store = LocalStore(tmp_dir)
                        self.store.prepare()
                        self._execute(specs, outcome)
        finally:
            self._hub = None
        self.last_outcome = outcome
        return outcome

    def _start_metrics(self, stack: contextlib.ExitStack, total: int) -> None:
        """Serve a live /metrics + /healthz view while the campaign runs.

        Only active with ``config.metrics_port``.  The endpoint is
        strictly read-only; the one observable side effect is that a
        telemetry session (with a :class:`~repro.obs.NullSink`) is
        opened when none is active, so live counters exist to serve —
        results stay byte-identical either way (the telemetry on/off
        differential tests prove it).
        """
        port = self.config.metrics_port
        if port is None:
            return
        from ..obs import exposition

        if obs.current() is None:
            stack.enter_context(obs.session(obs.NullSink()))
        hub = exposition.MetricsHub(telemetry=obs.current())
        invocation = self.invocation or {}
        fields: Dict[str, Any] = dict(
            state="running",
            total=total,
            backend=self.config.backend,
            experiment=invocation.get("experiment"),
            scale=invocation.get("scale"),
        )
        if self.config.shard_label is not None:
            fields["shard"] = self.config.shard_label
            fields["store"] = self.config.store
        hub.campaign_update(**fields)
        server = exposition.MetricsServer(hub, port=port)
        server.start()
        self.metrics_address = (server.host, server.port)
        print(f"[repro] live metrics: {server.url}/metrics", file=sys.stderr)
        stack.callback(server.stop)
        stack.callback(lambda: hub.campaign_update(state="done", running=0))
        stack.enter_context(exposition.activated(hub))
        self._hub = hub

    def _sync_hub(
        self, outcome: CampaignOutcome, running: Optional[int] = None
    ) -> None:
        """Publish campaign progress to the live hub, if one is active."""
        hub = self._hub
        if hub is None:
            return
        fields: Dict[str, Any] = {
            "done": outcome.resumed + outcome.executed,
            "resumed": outcome.resumed,
            "retried": outcome.retries,
            "timeouts": outcome.timeouts,
            "skipped": outcome.skipped,
            "quarantined": len(outcome.quarantined),
        }
        if running is not None:
            fields["running"] = running
        hub.campaign_update(**fields)

    def _execute(self, specs: List[RunSpec], outcome: CampaignOutcome) -> None:
        assert self.store is not None
        telemetry = obs.current()
        config = self.config
        with obs.span(
            "engine.run",
            jobs=len(specs),
            n_jobs=config.n_jobs,
            backend=config.backend,
            shard=config.shard_label,
        ):
            if config.shard_index is not None:
                obs.gauge("engine.shard", config.shard_index)
                obs.gauge("engine.shard_count", config.shard_count)
            if config.shard_count is not None and config.shard_count > 1:
                fingerprints = [spec.fingerprint() for spec in specs]
                owned_set = set(
                    shard_indices(
                        fingerprints, config.shard_index, config.shard_count
                    )
                )
            else:
                owned_set = set(range(len(specs)))
            adopt_foreign = self.store.supports_leases and config.adopt
            owned: List[int] = []
            foreign: List[int] = []
            for index, spec in enumerate(specs):
                if telemetry is not None:
                    telemetry.event("run.seeded", **spec.seed_info())
                if self._try_resume(spec, index, outcome):
                    continue
                if index in owned_set:
                    owned.append(index)
                elif adopt_foreign:
                    foreign.append(index)
                else:
                    outcome.skipped += 1
                    obs.incr("engine.skipped")
            self._foreign = set(foreign)
            retry_delay = config.poll_interval
            if self.store.supports_leases:
                retry_delay = max(
                    config.poll_interval, self.store.lease_ttl / 4.0
                )
            queue = _JobQueue(owned, foreign, retry_delay)
            if config.backend == "pool":
                self._supervise_pool(specs, queue, outcome)
            else:
                self._supervise(specs, queue, outcome)

    def _try_resume(
        self, spec: RunSpec, index: int, outcome: CampaignOutcome
    ) -> bool:
        """Adopt a persisted checkpoint for this job, if one is valid."""
        assert self.store is not None
        try:
            payload = self.store.read_job(index)
        except (ValueError, OSError):
            # Torn or stale checkpoint (should be impossible with atomic
            # writes, but e.g. an injected corruption survives a kill):
            # discard and re-run the job.
            self.store.discard_job(index)
            return False
        if payload is None:
            return False
        try:
            result = result_from_payload(spec, payload)
        except CampaignMismatch:
            raise
        except (ValueError, KeyError, TypeError):
            self.store.discard_job(index)
            return False
        outcome.results[index] = result
        outcome.resumed += 1
        obs.incr("engine.resumed")
        obs.observe("run.med", result.med)
        obs.event(
            "engine.job_resumed", job=index, label=spec.label, med=result.med
        )
        self._sync_hub(outcome)
        return True

    def _adopt_quarantine(
        self, specs: List[RunSpec], index: int, outcome: CampaignOutcome
    ) -> bool:
        """Adopt a sibling shard's quarantine record for a foreign job."""
        assert self.store is not None
        path = self.store.quarantine_path(index)
        if not os.path.exists(path):
            return False
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return False
        failure = JobFailure(
            index=index,
            label=record.get("label", specs[index].label),
            reason=record.get("reason", "quarantined-by-sibling"),
            attempts=int(record.get("attempts", 0) or 0),
            detail=record.get("detail", ""),
        )
        outcome.quarantined.append(failure)
        obs.incr("engine.quarantine_adopted")
        obs.event(
            "engine.quarantine_adopted", job=index, label=failure.label
        )
        self._sync_hub(outcome)
        return True

    # -- shared supervision helpers (both backends) --------------------
    def _admit(
        self,
        specs: List[RunSpec],
        index: int,
        outcome: CampaignOutcome,
        queue: _JobQueue,
        telemetry,
    ) -> bool:
        """Resolve a job without running it if possible; claim otherwise.

        Returns True when the caller should launch a worker: the job
        has no checkpoint, no (foreign) quarantine record, and this
        engine now holds its claim.  A claim lost to a live sibling
        re-enters the queue's deferred set — by its next attempt the
        sibling has either checkpointed the job (we adopt it) or died
        (its lease expires and we steal it).
        """
        assert self.store is not None
        if outcome.results[index] is not None:
            return False
        if self._try_resume(specs[index], index, outcome):
            return False
        if index in self._foreign and self._adopt_quarantine(
            specs, index, outcome
        ):
            return False
        fault = self.faults.lease_fault(index)
        if fault is not None and index not in self._lease_faults_fired:
            self._lease_faults_fired.add(index)
            obs.incr("faults.injected")
            obs.event("faults.lease_injected", job=index, kind=fault.kind)
            self.store.plant_stale_lease(index)
        if not self.store.try_claim(index):
            queue.defer(index)
            return False
        if index not in self._claimed:
            self._claimed.add(index)
            kill = self.faults.shard_kill(
                self.config.shard_index, len(self._claimed)
            )
            if kill is not None:
                # Injected shard death: die the hard way right after
                # claiming, leaving a stale lease and no checkpoint —
                # the textbook straggler a sibling must reclaim.
                obs.incr("faults.injected")
                if telemetry is not None:
                    telemetry.flush()
                os.kill(os.getpid(), signal.SIGKILL)
        return True

    def _prepare_attempt(self, index: int, attempt: int):
        """Backoff sleep + fault-plan lookup before (re)starting a job."""
        delay = backoff_seconds(attempt, self.config.backoff_base)
        if delay:
            time.sleep(delay)
        fault = self.faults.worker_fault(index, attempt)
        if fault is not None:
            obs.incr("faults.injected")
            obs.event(
                "faults.worker_injected",
                job=index,
                kind=fault.kind,
                attempt=attempt,
            )
        return fault

    def _fail_job(
        self,
        specs: List[RunSpec],
        attempts: Dict[int, int],
        queue: _JobQueue,
        outcome: CampaignOutcome,
        index: int,
        reason: str,
        detail: str = "",
    ) -> None:
        """Record a failed attempt: retry (bounded) or quarantine."""
        assert self.store is not None
        attempts[index] = attempts.get(index, 0) + 1
        self.store.discard_job(index)
        if attempts[index] <= self.config.max_retries:
            outcome.retries += 1
            obs.incr("engine.retries")
            obs.event(
                "engine.retry",
                job=index,
                label=specs[index].label,
                attempt=attempts[index],
                reason=reason,
            )
            # The lease is kept across retries — the next launch
            # refreshes it in place.
            queue.requeue(index)
            self._sync_hub(outcome)
            return
        failure = JobFailure(
            index=index,
            label=specs[index].label,
            reason=reason,
            attempts=attempts[index],
            detail=detail,
        )
        outcome.quarantined.append(failure)
        obs.incr("engine.quarantined")
        obs.event(
            "engine.quarantine", job=index, label=failure.label, reason=reason
        )
        self.store.write_quarantine(index, failure.to_dict())
        self.store.release(index)
        self._sync_hub(outcome)

    def _finish_job(
        self,
        specs: List[RunSpec],
        attempts: Dict[int, int],
        queue: _JobQueue,
        outcome: CampaignOutcome,
        telemetry,
        index: int,
        attempt: int,
    ) -> None:
        """Validate and adopt a persisted checkpoint for a finished job.

        Success is decided purely by payload validity on disk — both
        backends persist before adopting, so a crash at any point
        leaves a resumable campaign.
        """
        assert self.store is not None
        try:
            payload = self.store.read_job(index)
            if payload is None:
                raise ValueError("checkpoint missing after worker exit")
            result = result_from_payload(specs[index], payload)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self._fail_job(
                specs,
                attempts,
                queue,
                outcome,
                index,
                "corrupt-payload",
                detail=str(exc),
            )
            return
        outcome.results[index] = result
        outcome.executed += 1
        obs.incr("engine.jobs")
        obs.observe("engine.job_seconds", result.elapsed_seconds)
        obs.observe("run.med", result.med)
        if telemetry is not None and isinstance(payload.get("telemetry"), list):
            telemetry.absorb(payload["telemetry"], worker=index)
        self._sync_hub(outcome)
        obs.event(
            "engine.job_completed",
            job=index,
            label=specs[index].label,
            attempt=attempt,
            med=result.med,
            elapsed=result.elapsed_seconds,
        )
        fault = self.faults.engine_fault(index)
        if fault is not None:
            # Injected engine death: flush what we have, then die the
            # hard way (SIGKILL) exactly as a crashed orchestrator
            # would — the resume path must make this invisible.  The
            # lease is deliberately not released: a dead engine
            # wouldn't have, either.
            obs.incr("faults.injected")
            if telemetry is not None:
                telemetry.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        self.store.release(index)

    def _supervise(
        self,
        specs: List[RunSpec],
        queue: _JobQueue,
        outcome: CampaignOutcome,
    ) -> None:
        """Per-job-spawn supervision loop with timeout and retry."""
        config = self.config
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        telemetry = obs.current()
        attempts: Dict[int, int] = {}
        running: Dict[int, _Running] = {}

        def launch(index: int) -> None:
            attempt = attempts.get(index, 0)
            fault = self._prepare_attempt(index, attempt)
            path = self.store.job_path(index)
            process = context.Process(
                target=_job_worker,
                args=(specs[index], path, fault, telemetry is not None),
            )
            process.start()
            deadline = (
                time.monotonic() + config.job_timeout
                if config.job_timeout is not None
                else None
            )
            running[index] = _Running(process, deadline, attempt)

        def fail(index: int, reason: str, detail: str = "") -> None:
            self._fail_job(
                specs, attempts, queue, outcome, index, reason, detail
            )

        try:
            while queue or running:
                while len(running) < config.n_jobs:
                    index = queue.next_index()
                    if index is None:
                        break
                    if self._admit(specs, index, outcome, queue, telemetry):
                        launch(index)
                self.store.renew_held()
                self._sync_hub(outcome, running=len(running))
                progressed = False
                for index in list(running):
                    slot = running[index]
                    process = slot.process
                    if process.is_alive():
                        if (
                            slot.deadline is not None
                            and time.monotonic() > slot.deadline
                        ):
                            process.kill()
                            process.join()
                            process.close()
                            del running[index]
                            outcome.timeouts += 1
                            obs.incr("engine.timeouts")
                            fail(
                                index,
                                "timeout",
                                detail=f"exceeded {config.job_timeout}s",
                            )
                            progressed = True
                        continue
                    process.join()
                    exitcode = process.exitcode
                    process.close()
                    del running[index]
                    progressed = True
                    if exitcode == 0:
                        self._finish_job(
                            specs,
                            attempts,
                            queue,
                            outcome,
                            telemetry,
                            index,
                            slot.attempt,
                        )
                    else:
                        fail(index, f"worker-exit:{exitcode}")
                if not progressed and (running or queue):
                    time.sleep(config.poll_interval)
        finally:
            self.store.release_all()

    def _supervise_pool(
        self,
        specs: List[RunSpec],
        queue: _JobQueue,
        outcome: CampaignOutcome,
    ) -> None:
        """Warm-pool supervision: same retry/timeout/quarantine semantics.

        Workers ship payloads over their result pipe; the parent writes
        each checkpoint atomically and then adopts it through the same
        read-back path as the spawn backend, so checkpoint contents and
        campaign results are byte-identical across backends.  A timed
        out or crashed worker is killed and replaced (the pool restarts
        it); its job is retried like any other failure.
        """
        from .pool import WorkerPool

        config = self.config
        telemetry = obs.current()
        attempts: Dict[int, int] = {}
        running: Dict[int, Optional[float]] = {}  # index -> deadline

        def fail(index: int, reason: str, detail: str = "") -> None:
            self._fail_job(
                specs, attempts, queue, outcome, index, reason, detail
            )

        backlog = len(queue.pending) + len(queue.foreign)
        pool = WorkerPool(
            min(config.n_jobs, max(1, backlog)),
            capture_telemetry=telemetry is not None,
            # stream mid-job counter/histogram snapshots only when a
            # live metrics hub is consuming them
            metrics_interval=0.2 if self._hub is not None else None,
        )
        try:
            while queue or running:
                while pool.has_idle():
                    index = queue.next_index()
                    if index is None:
                        break
                    if not self._admit(specs, index, outcome, queue, telemetry):
                        continue
                    attempt = attempts.get(index, 0)
                    fault = self._prepare_attempt(index, attempt)
                    pool.submit(index, specs[index], attempt, fault)
                    running[index] = (
                        time.monotonic() + config.job_timeout
                        if config.job_timeout is not None
                        else None
                    )
                self.store.renew_held()
                self._sync_hub(outcome, running=len(running))
                for event in pool.wait(config.poll_interval):
                    running.pop(event.index, None)
                    if event.kind == "ok":
                        if event.raw is not None:
                            # injected corruption: persist the same
                            # garbage the spawn worker writes
                            self.store.write_job_raw(event.index, event.raw)
                        else:
                            self.store.write_job(event.index, event.payload)
                        self._finish_job(
                            specs,
                            attempts,
                            queue,
                            outcome,
                            telemetry,
                            event.index,
                            event.attempt,
                        )
                    elif event.kind == "error":
                        fail(event.index, "worker-error", event.detail)
                    else:
                        fail(event.index, f"worker-exit:{event.exitcode}")
                now = time.monotonic()
                for index, deadline in list(running.items()):
                    if deadline is not None and now > deadline:
                        pool.kill_job(index)
                        del running[index]
                        outcome.timeouts += 1
                        obs.incr("engine.timeouts")
                        fail(
                            index,
                            "timeout",
                            detail=f"exceeded {config.job_timeout}s",
                        )
        finally:
            pool.close()
            self.store.release_all()


# ======================================================================
# Experiment campaign orchestration (CLI `run` / `resume` / `status`)
# ======================================================================
_EXPERIMENTS = ("table2", "fig5")


def _run_experiment(experiment: str, scale, base_seed: int, engine: Engine):
    from .fig5 import run_fig5
    from .table2 import run_table2

    if experiment == "table2":
        return run_table2(scale, base_seed=base_seed, engine=engine)
    if experiment == "fig5":
        return run_fig5(scale, base_seed=base_seed, engine=engine)
    raise CampaignError(
        f"unknown experiment {experiment!r}; choose from {_EXPERIMENTS}"
    )


def run_experiment_campaign(
    experiment: str,
    scale,
    base_seed: int = 0,
    campaign_dir: Optional[str] = None,
    config: Optional[EngineConfig] = None,
    faults: Optional[faults_mod.FaultPlan] = None,
) -> Tuple[Any, CampaignOutcome]:
    """Run a paper experiment as a checkpointed campaign.

    ``scale`` is an :class:`~repro.experiments.runner.ExperimentScale`
    or a registered scale name.  Returns the experiment result object
    and the engine outcome (resume/retry/quarantine accounting).
    """
    from .runner import ExperimentScale

    if isinstance(scale, str):
        scale = ExperimentScale.by_name(scale)
    engine = Engine(campaign_dir, config, faults)
    engine.invocation = {
        "experiment": experiment,
        "scale": scale.name,
        "base_seed": base_seed,
    }
    result = _run_experiment(experiment, scale, base_seed, engine)
    assert engine.last_outcome is not None
    return result, engine.last_outcome


def _load_manifest(campaign_dir: str) -> Dict[str, Any]:
    manifest_path = os.path.join(campaign_dir, _CAMPAIGN_FILE)
    if not os.path.exists(manifest_path):
        raise CampaignError(f"no campaign found at {campaign_dir}")
    with open(manifest_path) as handle:
        return json.load(handle)


def resume_campaign(
    campaign_dir: str,
    config: Optional[EngineConfig] = None,
    faults: Optional[faults_mod.FaultPlan] = None,
) -> Tuple[Any, CampaignOutcome]:
    """Resume an interrupted campaign from its checkpoint directory.

    Rebuilds the spec list from the invocation recorded in
    ``campaign.json``; completed jobs are adopted from their checkpoint
    files (never re-executed), the rest run to completion.  A shard
    directory resumes as that shard (identity comes from the manifest
    unless the caller's config already carries one), and a shared
    directory resumes with the shared store.
    """
    manifest = _load_manifest(campaign_dir)
    invocation = manifest.get("invocation")
    if not invocation:
        raise CampaignError(
            f"{campaign_dir} records no invocation; it was not created by "
            "`repro run` — resume it by re-running the original engine call"
        )
    config = config or EngineConfig()
    recorded_engine = manifest.get("engine") or {}
    if recorded_engine.get("store") == "shared" and config.store == "local":
        config = dataclasses.replace(config, store="shared")
    shard = manifest.get("shard") or {}
    if (
        config.shard_index is None
        and shard.get("index") is not None
        and shard.get("count")
    ):
        config = dataclasses.replace(
            config,
            shard_index=int(shard["index"]),
            shard_count=int(shard["count"]),
        )
    return run_experiment_campaign(
        invocation["experiment"],
        invocation["scale"],
        int(invocation.get("base_seed") or 0),
        campaign_dir,
        config,
        faults,
    )


@dataclass
class CampaignStatus:
    """Snapshot of a checkpoint directory's progress."""

    campaign_dir: str
    invocation: Optional[Dict[str, Any]]
    total: int
    shard: Optional[Dict[str, Any]] = None
    done: List[str] = field(default_factory=list)
    running: List[str] = field(default_factory=list)
    pending: List[str] = field(default_factory=list)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    #: per-shard progress rows ({"shard", "done", "total", "here"})
    #: when the manifest records a shard count > 1
    per_shard: List[Dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        header = f"campaign {self.campaign_dir}"
        if self.invocation:
            header += (
                f" — {self.invocation.get('experiment')}"
                f" (scale={self.invocation.get('scale')},"
                f" seed={self.invocation.get('base_seed')})"
            )
        if self.shard and self.shard.get("count"):
            index = self.shard.get("index")
            where = "shared dir" if index is None else f"shard {index}"
            header += f" [{where} of {self.shard['count']}]"
        rows = [
            ["done", len(self.done)],
            ["running", len(self.running)],
            ["pending", len(self.pending)],
            ["quarantined", len(self.quarantined)],
            ["total", self.total],
        ]
        lines = [reporting.format_table(["state", "jobs"], rows, title=header)]
        for row in self.per_shard:
            marker = "  <- this directory" if row.get("here") else ""
            lines.append(
                f"  shard {row['shard']}: {row['done']}/{row['total']} "
                f"done{marker}"
            )
        for failure in self.quarantined:
            lines.append(
                f"  quarantined {failure.get('label', '?')}: "
                f"{failure.get('reason', '?')} "
                f"after {failure.get('attempts', '?')} attempt(s)"
            )
        return "\n".join(lines)


def campaign_status(campaign_dir: str) -> CampaignStatus:
    """Inspect a checkpoint directory without executing anything.

    A job counts as *running* only while a live (unexpired) lease
    covers it; a leased-but-unclaimed job — its holder died and the
    lease expired, or a ghost lease was left behind — is *pending*,
    exactly what an engine claiming work would conclude.
    """
    manifest = _load_manifest(campaign_dir)
    jobs = manifest.get("jobs", [])
    shard = manifest.get("shard")
    status = CampaignStatus(
        campaign_dir=campaign_dir,
        invocation=manifest.get("invocation"),
        total=len(jobs),
        shard=shard,
    )
    # A plain local dir has no leases/ directory, so lease_info is
    # None for every job and the lease classification is a no-op.
    leases = SharedDirStore(campaign_dir)
    jobs_dir = os.path.join(campaign_dir, _JOBS_DIR)
    quarantine_dir = os.path.join(campaign_dir, _QUARANTINE_DIR)
    now = time.time()
    states: List[str] = []
    for index, job in enumerate(jobs):
        job_id = job["id"]
        label = job.get("label", job_id)
        if os.path.exists(os.path.join(jobs_dir, f"{job_id}.json")):
            status.done.append(label)
            states.append("done")
        elif os.path.exists(os.path.join(quarantine_dir, f"{job_id}.json")):
            with open(os.path.join(quarantine_dir, f"{job_id}.json")) as handle:
                status.quarantined.append(json.load(handle))
            states.append("quarantined")
        else:
            info = leases.lease_info(index)
            if info is not None and not info.expired(now):
                status.running.append(label)
                states.append("running")
            else:
                status.pending.append(label)
                states.append("pending")
    count = (shard or {}).get("count")
    if count and count > 1:
        here = (shard or {}).get("index")
        for shard_id in range(count):
            members = [
                position
                for position, job in enumerate(jobs)
                if shard_of(job["fingerprint"], count) == shard_id
            ]
            status.per_shard.append(
                {
                    "shard": shard_id,
                    "done": sum(
                        1 for position in members if states[position] == "done"
                    ),
                    "total": len(members),
                    "here": here == shard_id,
                }
            )
    return status
