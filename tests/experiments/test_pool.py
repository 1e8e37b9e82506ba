"""Unit tests for the warm-pool backend building blocks.

Covers the cache eviction counter, the shared-memory table arena,
``resolve_jobs``, and pool execution through ``run_many`` and the
engine (including fault recovery).  The full
cross-backend differential is in
``tests/engine/test_backend_equivalence.py``.
"""

import os
import time

import numpy as np
import pytest

from repro import caching, faults, obs, workloads
from repro.core.config import AlgorithmConfig
from repro.experiments import pool as pool_mod
from repro.experiments.engine import Engine, EngineConfig, resolve_jobs
from repro.experiments.parallel import run_many
from repro.experiments.runner import repeat_specs


def _specs(n_runs=2, base_seed=7, algorithm="dalta"):
    target = workloads.get("cos", n_inputs=6)
    return repeat_specs(
        algorithm, target, AlgorithmConfig.fast(), n_runs, base_seed
    )


def _final_counters(sink):
    merged = {}
    for record in sink.records:
        if record.get("type") == "counters":
            for name, value in record.get("values", {}).items():
                merged[name] = merged.get(name, 0) + value
    return merged


class TestCacheSharingHooks:
    def test_eviction_counters_emitted(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            cache = caching.LruCache("t.evict", maxsize=1)
            cache.put("a", 1)
            cache.put("b", 2)
        counters = _final_counters(sink)
        assert counters.get("cache.t.evict.eviction") == 1
        assert cache.evictions == 1


class TestTableArena:
    def test_publish_dedups_by_content(self):
        arena = pool_mod.TableArena()
        try:
            table = np.arange(16, dtype=np.int64)
            first = arena.publish(table)
            second = arena.publish(table.copy())
            assert first["name"] == second["name"]
            assert len(arena) == 1
            third = arena.publish(table + 1)
            assert third["name"] != first["name"]
            assert len(arena) == 2
        finally:
            arena.close()

    def test_attached_view_is_read_only_and_equal(self):
        arena = pool_mod.TableArena()
        segments, tables = {}, {}
        try:
            table = np.arange(32, dtype=np.int64)
            ref = arena.publish(table)
            view = pool_mod._table_view(segments, tables, ref)
            assert np.array_equal(view, table)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 99
            assert pool_mod._table_view(segments, tables, ref) is view
        finally:
            del view
            tables.clear()
            for segment in segments.values():
                segment.close()
            arena.close()


class TestResolveJobs:
    def test_default_uses_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_clamped_to_job_count(self):
        assert resolve_jobs(None, 3) <= 3
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 100) == 2

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(-4, 10)

    def test_zero_jobs_still_one_worker(self):
        assert resolve_jobs(None, 0) == 1


class TestPoolExecution:
    def test_run_many_pool_matches_serial(self):
        specs = _specs(n_runs=3)
        serial = run_many(specs)
        pooled = run_many(specs, n_jobs=2, backend="pool")
        assert [r.med for r in pooled] == [r.med for r in serial]
        assert [r.round_history for r in pooled] == [
            r.round_history for r in serial
        ]

    def test_run_many_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_many(_specs(), n_jobs=2, backend="threads")

    def test_engine_pool_crash_recovered(self):
        specs = _specs(n_runs=2)
        engine = Engine(
            config=EngineConfig(n_jobs=2, backend="pool"),
            faults=faults.FaultPlan.parse("crash@0"),
        )
        outcome = engine.run(specs)
        assert outcome.complete
        assert outcome.retries == 1
        baseline = run_many(specs)
        assert [r.med for r in outcome.results] == [r.med for r in baseline]

    def test_engine_pool_poison_quarantined(self):
        specs = _specs(n_runs=2)
        engine = Engine(
            config=EngineConfig(n_jobs=2, backend="pool", max_retries=1),
            faults=faults.FaultPlan.parse("crash@0#*"),
        )
        outcome = engine.run(specs)
        assert not outcome.complete
        assert outcome.results[0] is None
        assert outcome.results[1] is not None
        assert [f.index for f in outcome.quarantined] == [0]

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_table_segment_survives_worker_death(self):
        """A worker that attached a table and died leaves it in place.

        A forked worker with a resource tracker of its own would have
        it unlink every segment the worker attached once it exits.
        """
        specs = _specs(n_runs=2)
        with pool_mod.WorkerPool(1) as pool:
            first = pool.run(specs[:1])
            (_, ref), = pool.arena._segments.values()
            path = os.path.join("/dev/shm", ref["name"].lstrip("/"))
            pool._restart(pool._workers[0])
            deadline = time.monotonic() + 1.0
            while os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert os.path.exists(path), "worker exit unlinked the table"
            second = pool.run(specs[1:])
        assert first[0] is not None and second[0] is not None

    def test_pool_counters_recorded(self):
        specs = _specs(n_runs=2)
        sink = obs.MemorySink()
        with obs.session(sink):
            Engine(config=EngineConfig(n_jobs=2, backend="pool")).run(specs)
        counters = _final_counters(sink)
        assert counters.get("pool.jobs") == 2
        assert counters.get("pool.workers_started", 0) >= 1
        assert counters.get("pool.shm_tables") == 1
        assert counters.get("pool.shm_bytes", 0) > 0
        assert not any(name.startswith("pool.memo") for name in counters)


class TestWorkerOrphanExit:
    def test_worker_whose_parent_is_gone_exits(self):
        """A worker started after its pool parent died still exits.

        Its pid argument names a process that has already exited, as
        when the pool parent is SIGKILLed between spawning a worker
        and the worker's start-up.  The test keeps the task pipe's
        write end open, so no EOF arrives: only the re-parenting check
        can end the worker.
        """
        context = pool_mod._preferred_context()
        gone = context.Process(target=os.getpid)
        gone.start()
        gone.join()
        task_recv, task_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        worker = context.Process(
            target=pool_mod._pool_worker,
            args=(0, task_recv, result_send, None, gone.pid),
            daemon=True,
        )
        worker.start()
        task_recv.close()
        result_send.close()
        worker.join(timeout=60)
        still_running = worker.is_alive()
        if still_running:
            worker.kill()
            worker.join()
        task_send.close()
        result_recv.close()
        assert not still_running
        assert worker.exitcode == 0


class TestEngineConfigValidation:
    def test_backend_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="threads")
