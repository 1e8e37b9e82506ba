"""Warm-pool execution backend: persistent workers over shared memory.

The per-job-spawn backend in :mod:`repro.experiments.engine` pays a
cold interpreter + numpy import per job and pickles every truth table
over the pipe.  This module provides the throughput-oriented
alternative the engine and :func:`repro.experiments.parallel.run_many`
can select per campaign:

* a :class:`WorkerPool` of persistent worker processes, started once
  and fed jobs over per-worker pipes (no shared queue, so killing a
  hung worker can never corrupt another worker's channel);
* a :class:`TableArena` that publishes truth tables into
  ``multiprocessing.shared_memory`` segments, content-addressed by
  digest — workers attach once per distinct table and hand the
  algorithms a zero-copy read-only numpy view instead of a pickle.

Determinism: workers run :meth:`RunSpec.execute` with
``fresh_caches=False``, so the index and neighbour caches stay warm
across jobs.  Those caches hold pure functions of their keys, and every
run still re-seeds from the same ``SeedSequence.spawn`` draw, so
results are byte-identical to the serial and per-job-spawn backends —
the differential test in ``tests/engine/test_backend_equivalence.py``
pins this.  Worker *telemetry counters* (cache hits) legitimately
differ with cache warmth; manifests are compared modulo timings and
cache counters.

Fault injection: the pool accepts the same :class:`repro.faults.Fault`
objects as the spawn backend — ``crash``/``hang`` fire inside the
worker before computation (the supervisor restarts the worker),
``corrupt`` makes the worker ship the same truncated payload the spawn
worker writes.  The spawn backend remains the fault-isolation
reference and the chaos suite is pinned to it.
"""

from __future__ import annotations

import hashlib
import os
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from .. import faults as faults_mod
from .. import obs
from ..obs import exposition
from ..boolean.packed import PackedTable
from ..core.config import AlgorithmConfig
from .parallel import RunSpec

__all__ = ["TableArena", "PoolEvent", "WorkerPool"]

#: the truncated payload an injected ``corrupt`` fault produces — the
#: same garbage the spawn backend's worker writes to its checkpoint
_CORRUPT_PAYLOAD = '{"schema": 1, "med": 0.0, "settings": [{"trunc'


def _preferred_context():
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


# ======================================================================
# Shared-memory truth-table transport
# ======================================================================
class TableArena:
    """Content-addressed store of truth tables in shared memory.

    ``publish`` is idempotent per table content: the eight benchmarks
    of a Table-II campaign occupy eight segments no matter how many
    hundreds of jobs reference them.  Only the parent creates and
    unlinks segments; workers attach read-only by name.

    Non-negative integer tables are published as
    :class:`~repro.boolean.packed.PackedTable` bit-planes instead of raw
    ``int64`` entries whenever that page is smaller — ``n_outputs`` bits
    per entry rather than 64 (5.3x smaller for the default 12-bit
    Table-II functions), which directly raises arena capacity.  The ref
    is still content-addressed by the digest of the *raw* table bytes,
    so packed and raw pages of the same table share an address, and
    workers unpack once per digest back to the byte-identical ``int64``
    array — the algorithms never see the representation.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, Dict]] = {}
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._segments)

    def publish(self, table: np.ndarray) -> Dict[str, Any]:
        """Copy ``table`` into shared memory (once) and return its ref."""
        table = np.ascontiguousarray(table, dtype=np.int64)
        digest = hashlib.sha1(table.tobytes()).hexdigest()
        cached = self._segments.get(digest)
        if cached is not None:
            return cached[1]
        packed = None
        if table.ndim == 1 and table.size and int(table.min()) >= 0:
            candidate = PackedTable(
                table, max(1, int(table.max()).bit_length())
            )
            # tiny tables can pack *larger* (one word per plane) — keep
            # whichever page is smaller
            if candidate.nbytes < table.nbytes:
                packed = candidate
        payload = packed.planes if packed is not None else table
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, payload.nbytes)
        )
        view = np.ndarray(payload.shape, dtype=payload.dtype, buffer=segment.buf)
        view[...] = payload
        ref = {
            "name": segment.name,
            "shape": list(table.shape),
            "dtype": str(table.dtype),
            "digest": digest,
        }
        if packed is not None:
            ref["packed"] = {
                "length": packed.length,
                "n_outputs": packed.n_outputs,
                "words": int(packed.planes.shape[-1]),
            }
        self._segments[digest] = (segment, ref)
        self.bytes += payload.nbytes
        obs.incr("pool.shm_tables")
        obs.incr("pool.shm_bytes", payload.nbytes)
        if packed is not None:
            obs.incr("pool.shm_packed_pages")
        return ref

    def close(self) -> None:
        for segment, _ in self._segments.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self.bytes = 0


def _attach(segments: Dict[str, shared_memory.SharedMemory], name: str):
    """Worker-side segment attachment cache (attach once per name)."""
    segment = segments.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        segments[name] = segment
    return segment


def _table_view(
    segments: Dict[str, shared_memory.SharedMemory],
    tables: Dict[str, np.ndarray],
    ref: Dict[str, Any],
) -> np.ndarray:
    """Materialise a read-only view of a published table.

    Raw pages are zero-copy views of the segment; packed pages are
    unpacked (once per digest per worker) back to the byte-identical
    ``int64`` entry array the algorithms expect.
    """
    view = tables.get(ref["digest"])
    if view is None:
        segment = _attach(segments, ref["name"])
        packed = ref.get("packed")
        if packed is not None:
            planes = np.ndarray(
                (packed["n_outputs"], packed["words"]),
                dtype=np.dtype("<u8"),
                buffer=segment.buf,
            )
            view = (
                PackedTable._trusted(
                    packed["length"], packed["n_outputs"], np.array(planes)
                )
                .to_table(np.dtype(ref["dtype"]))
                .reshape(tuple(ref["shape"]))
            )
        else:
            view = np.ndarray(
                tuple(ref["shape"]),
                dtype=np.dtype(ref["dtype"]),
                buffer=segment.buf,
            )
        view.flags.writeable = False
        tables[ref["digest"]] = view
    return view


# ======================================================================
# Worker process
# ======================================================================
def _spec_message(spec: RunSpec) -> Dict[str, Any]:
    """The picklable, table-free half of a RunSpec."""
    return {
        "algorithm": spec.algorithm,
        "n_inputs": spec.n_inputs,
        "n_outputs": spec.n_outputs,
        "name": spec.name,
        "config": spec.config,
        "base_seed": spec.base_seed,
        "spawn_index": spec.spawn_index,
        "architecture": spec.architecture,
        "direct_seed": spec.direct_seed,
    }


def _spec_from_message(fields: Dict[str, Any], table: np.ndarray) -> RunSpec:
    config = fields["config"]
    assert isinstance(config, AlgorithmConfig)
    return RunSpec(
        fields["algorithm"],
        table,
        fields["n_inputs"],
        fields["n_outputs"],
        fields["name"],
        config,
        fields["base_seed"],
        fields["spawn_index"],
        fields["architecture"],
        fields["direct_seed"],
    )


def _stream_telemetry(
    results, send_lock, current_job, stop, interval: float
) -> None:
    """Daemon thread: ship cumulative telemetry snapshots mid-job.

    Each message carries the *whole* current-job session so arrival
    order does not matter; the parent keeps only the latest snapshot
    per worker and drops it the moment the job's authoritative
    end-of-job records are absorbed (no double counting).  A torn
    snapshot (the main thread mutating a dict mid-copy) is simply
    skipped — the next tick replaces it.
    """
    while not stop.wait(interval):
        job = current_job["job"]
        session = obs.current()
        if job is None or session is None:
            continue
        try:
            counters = dict(session.counters)
            gauges = dict(session.gauges)
            histograms = {
                name: hist.to_dict()
                for name, hist in dict(session.histograms).items()
            }
        except RuntimeError:  # resized mid-copy; retry next tick
            continue
        message = {
            "kind": "telemetry",
            "job": list(job),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        try:
            with send_lock:
                results.send(message)
        except (BrokenPipeError, OSError):
            return


def _pool_worker(
    worker_id: int,
    tasks,
    results,
    metrics_interval: Optional[float],
    parent_pid: int,
) -> None:
    """Persistent worker loop: recv job → execute → reply.

    Import ordering note: this function runs in a child of the pool
    parent, so numpy/repro are already imported under the fork start
    method — the pool's whole point.  Under spawn the first job pays
    the import once and the rest stay warm.

    With ``metrics_interval`` a daemon thread streams cumulative
    telemetry snapshots of the in-flight job over the same result pipe
    (serialised by a send lock); the computation itself is untouched.
    """
    from ..core.serialize import setting_to_dict  # noqa: F401  (warm import)
    from .engine import result_to_payload

    segments: Dict[str, shared_memory.SharedMemory] = {}
    tables: Dict[str, np.ndarray] = {}
    send_lock = threading.Lock()
    current_job: Dict[str, Any] = {"job": None}
    stop_streaming = threading.Event()
    if metrics_interval:
        threading.Thread(
            target=_stream_telemetry,
            args=(
                results,
                send_lock,
                current_job,
                stop_streaming,
                metrics_interval,
            ),
            name=f"repro-pool-stream-{worker_id}",
            daemon=True,
        ).start()

    def _send(message: Dict[str, Any]) -> None:
        with send_lock:
            results.send(message)

    # Under the fork start method every worker inherits its siblings'
    # pipe ends, so a SIGKILLed pool parent never produces an EOF on
    # ``tasks`` — the write end survives in the other orphans.  Poll
    # with a timeout and watch for re-parenting instead: a worker whose
    # parent died exits on its own rather than lingering forever.  The
    # parent's pid comes from the pool itself: a worker that starts
    # after its parent already died would read its adoptive parent from
    # ``os.getppid()`` and never see the change.
    orphaned = False
    while True:
        try:
            while not tasks.poll(1.0):
                if os.getppid() != parent_pid:
                    orphaned = True
                    break
            if orphaned:
                break
            message = tasks.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        fault = message["fault"]
        faults_mod.inject_worker_fault(fault)
        table = _table_view(segments, tables, message["table"])
        spec = _spec_from_message(message["spec"], table)
        sink = obs.MemorySink()
        current_job["job"] = (message["index"], message["attempt"])
        try:
            # keep the index and neighbour caches warm across jobs
            with obs.session(sink):
                result = spec.execute(fresh_caches=False)
        except Exception:
            current_job["job"] = None
            _send(
                {
                    "kind": "error",
                    "index": message["index"],
                    "attempt": message["attempt"],
                    "detail": traceback.format_exc(limit=8),
                }
            )
            continue
        current_job["job"] = None
        raw: Optional[str] = None
        if fault is not None and fault.kind == "corrupt":
            payload: Dict[str, Any] = {}
            raw = _CORRUPT_PAYLOAD
        else:
            payload = result_to_payload(spec, result)
            if message["capture"]:
                payload["telemetry"] = sink.records
        _send(
            {
                "kind": "ok",
                "index": message["index"],
                "attempt": message["attempt"],
                "payload": payload,
                "raw": raw,
            }
        )
    stop_streaming.set()


# ======================================================================
# The pool
# ======================================================================
@dataclass
class PoolEvent:
    """One completion observed by :meth:`WorkerPool.wait`.

    ``kind`` is ``"ok"`` (payload valid or ``raw`` corrupt text),
    ``"error"`` (the job raised inside a healthy worker) or ``"died"``
    (the worker process exited mid-job — e.g. an injected crash).
    """

    kind: str
    index: int
    attempt: int
    worker_id: int
    payload: Optional[Dict[str, Any]] = None
    raw: Optional[str] = None
    detail: str = ""
    exitcode: Optional[int] = None


class _WorkerHandle:
    __slots__ = ("worker_id", "process", "task_send", "result_recv", "job")

    def __init__(self, worker_id, process, task_send, result_recv) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_send = task_send
        self.result_recv = result_recv
        #: (job index, attempt) while busy, else None
        self.job: Optional[Tuple[int, int]] = None


class WorkerPool:
    """Persistent pre-warmed workers with shared-memory tables.

    The lifecycle is ``submit`` / ``wait`` (used by the engine's
    supervision loop) or the one-shot :meth:`run` (used by
    ``run_many``), then :meth:`close` — which stops the workers and
    tears down every shared-memory segment.
    """

    def __init__(
        self,
        n_workers: int,
        capture_telemetry: bool = False,
        metrics_interval: Optional[float] = None,
        context=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if metrics_interval is not None and metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        self.n_workers = n_workers
        self.capture_telemetry = capture_telemetry
        #: seconds between mid-job telemetry snapshots (None = off)
        self.metrics_interval = metrics_interval
        self._context = context if context is not None else _preferred_context()
        self.arena = TableArena()
        self._workers: List[_WorkerHandle] = []
        self._closed = False
        # Workers attaching a table segment register it with the
        # resource tracker.  Started here, before the first fork, the
        # tracker is one process shared with every worker; otherwise
        # each forked worker starts its own, which unlinks the
        # segments that worker attached as soon as it exits.
        resource_tracker.ensure_running()
        for worker_id in range(n_workers):
            self._workers.append(self._spawn(worker_id))

    # -- worker lifecycle ---------------------------------------------
    def _spawn(self, worker_id: int) -> _WorkerHandle:
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_pool_worker,
            args=(
                worker_id,
                task_recv,
                result_send,
                self.metrics_interval,
                os.getpid(),
            ),
            daemon=True,
        )
        process.start()
        # the parent keeps only its ends; the worker holds the others
        task_recv.close()
        result_send.close()
        obs.incr("pool.workers_started")
        hub = exposition.active_hub()
        if hub is not None:
            hub.worker_seen(worker_id)
        return _WorkerHandle(worker_id, process, task_send, result_recv)

    def _restart(self, handle: _WorkerHandle) -> None:
        self._teardown(handle)
        replacement = self._spawn(handle.worker_id)
        self._workers[self._workers.index(handle)] = replacement
        obs.incr("pool.worker_restarts")

    @staticmethod
    def _teardown(handle: _WorkerHandle) -> None:
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()
        handle.process.close()
        handle.task_send.close()
        handle.result_recv.close()

    # -- scheduling ----------------------------------------------------
    def idle_workers(self) -> List[_WorkerHandle]:
        return [w for w in self._workers if w.job is None]

    def has_idle(self) -> bool:
        return any(w.job is None for w in self._workers)

    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.job is not None)

    def stats(self) -> Dict[str, Any]:
        """Service-facing snapshot (the serve daemon's ``/state`` block).

        Only the owning thread may call this (like ``submit``/``wait``
        — the pool is not thread-safe); the serve dispatcher and the
        campaign engine both satisfy that by construction.
        """
        return {
            "workers": self.n_workers,
            "busy": self.busy_count(),
            "alive": sum(1 for w in self._workers if w.process.is_alive()),
            "arena_tables": len(self.arena),
        }

    def submit(
        self,
        index: int,
        spec: RunSpec,
        attempt: int = 0,
        fault: Optional[faults_mod.Fault] = None,
    ) -> int:
        """Dispatch one job to the lowest-numbered idle worker."""
        idle = self.idle_workers()
        if not idle:
            raise RuntimeError("no idle worker available")
        handle = idle[0]
        if not handle.process.is_alive():  # pragma: no cover - defensive
            # died while idle (should not happen) — replace silently
            self._restart(handle)
            handle = self.idle_workers()[0]
        message = {
            "index": index,
            "attempt": attempt,
            "spec": _spec_message(spec),
            "table": self.arena.publish(spec.table),
            "fault": fault,
            "capture": self.capture_telemetry,
        }
        handle.task_send.send(message)
        handle.job = (index, attempt)
        hub = exposition.active_hub()
        if hub is not None:
            hub.worker_seen(handle.worker_id, job=[index, attempt])
        return handle.worker_id

    def wait(self, timeout: Optional[float]) -> List[PoolEvent]:
        """Collect finished jobs (and dead workers) without blocking long.

        Results are drained before death checks so a worker that
        replied and then crashed still counts its job as finished.
        """
        busy = [w for w in self._workers if w.job is not None]
        if not busy:
            return []
        waitees: List[Any] = [w.result_recv for w in busy]
        waitees.extend(w.process.sentinel for w in busy)
        ready = set(connection.wait(waitees, timeout))
        events: List[PoolEvent] = []
        for handle in busy:
            if handle.result_recv not in ready:
                continue
            # Drain streamed telemetry snapshots (never surfaced as
            # PoolEvents) until the completion message, if one is in.
            message = None
            try:
                while True:
                    message = handle.result_recv.recv()
                    if message.get("kind") != "telemetry":
                        break
                    self._stream_report(handle, message)
                    if not handle.result_recv.poll():
                        message = None
                        break
            except (EOFError, OSError):
                continue  # worker died mid-send; sentinel path handles it
            if message is None:
                continue
            index, attempt = handle.job  # type: ignore[misc]
            handle.job = None
            hub = exposition.active_hub()
            if hub is not None:
                hub.worker_clear(handle.worker_id)
            if message["kind"] == "ok":
                obs.incr("pool.jobs")
                events.append(
                    PoolEvent(
                        "ok",
                        index,
                        attempt,
                        handle.worker_id,
                        payload=message["payload"],
                        raw=message.get("raw"),
                    )
                )
            else:
                events.append(
                    PoolEvent(
                        "error",
                        index,
                        attempt,
                        handle.worker_id,
                        detail=message.get("detail", ""),
                    )
                )
        for handle in busy:
            if handle.job is None or handle.process.is_alive():
                continue
            index, attempt = handle.job
            handle.job = None
            hub = exposition.active_hub()
            if hub is not None:
                hub.worker_gone(handle.worker_id)
            exitcode = handle.process.exitcode
            events.append(
                PoolEvent(
                    "died",
                    index,
                    attempt,
                    handle.worker_id,
                    exitcode=exitcode,
                )
            )
            self._restart(handle)
        return events

    def _stream_report(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        """Route one streamed snapshot to the live hub (if any).

        Snapshots whose ``(index, attempt)`` no longer match the
        worker's current job are stale (the job completed or was
        killed between the worker's send and our recv) and count only
        as a liveness heartbeat — accepting them would double-count a
        job already folded into the session.
        """
        hub = exposition.active_hub()
        if hub is None:
            return
        job = message.get("job")
        if handle.job is None or job is None or tuple(job) != handle.job:
            hub.worker_seen(handle.worker_id)
            return
        hub.worker_report(
            handle.worker_id,
            list(job),
            counters=message.get("counters"),
            gauges=message.get("gauges"),
            histograms=message.get("histograms"),
        )

    def kill_job(self, index: int) -> bool:
        """Kill the worker running job ``index`` (timeout enforcement)."""
        for handle in self._workers:
            if handle.job is not None and handle.job[0] == index:
                handle.job = None
                hub = exposition.active_hub()
                if hub is not None:
                    hub.worker_gone(handle.worker_id)
                self._restart(handle)
                return True
        return False

    # -- one-shot driver for run_many ---------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Execute all specs, returning payloads in spec order.

        No retry semantics — a worker error or death raises, matching
        ``ProcessPoolExecutor`` behaviour in ``run_many``.  Use the
        engine for supervision.
        """
        payloads: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        pending = deque(range(len(specs)))
        remaining = len(specs)
        while remaining:
            while pending and self.has_idle():
                index = pending.popleft()
                self.submit(index, specs[index])
            for event in self.wait(0.05):
                if event.kind == "ok":
                    payloads[event.index] = event.payload
                    remaining -= 1
                elif event.kind == "error":
                    raise RuntimeError(
                        f"pool job {event.index} raised:\n{event.detail}"
                    )
                else:
                    raise RuntimeError(
                        f"pool worker died on job {event.index} "
                        f"(exit {event.exitcode})"
                    )
        return payloads  # type: ignore[return-value]

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Stop workers and free shared memory."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.task_send.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline_join = 2.0
        for handle in self._workers:
            handle.process.join(timeout=deadline_join)
            self._teardown(handle)
        self._workers = []
        self.arena.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
