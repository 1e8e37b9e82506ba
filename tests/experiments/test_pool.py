"""Unit tests for the warm-pool backend building blocks.

Covers the caching-layer sharing hooks (journal / export / import /
resize / eviction counters), the shared-memory table arena and memo
log, the disk snapshot, ``resolve_jobs``, and pool execution through
``run_many`` and the engine (including fault recovery).  The full
cross-backend differential is in
``tests/engine/test_backend_equivalence.py``.
"""

import os
from multiprocessing import shared_memory

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
    def test_journal_records_puts(self):
        cache = caching.LruCache("t.journal", maxsize=4)
        cache.journal = journal = []
        cache.put("a", 1)
        cache.put("b", 2)
        assert journal == [("a", 1), ("b", 2)]

    def test_import_entries_bypasses_journal_and_stats(self):
        cache = caching.LruCache("t.import", maxsize=4)
        cache.journal = journal = []
        assert cache.import_entries([("a", 1), ("b", None), ("c", 3)]) == 2
        assert journal == []
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 0

    def test_export_import_round_trip(self):
        source = caching.LruCache("t.export", maxsize=4)
        source.put(("k", 1), "v1")
        source.put(("k", 2), "v2")
        clone = caching.LruCache("t.clone", maxsize=4)
        assert clone.import_entries(source.export_entries()) == 2
        assert clone.get(("k", 2)) == "v2"

    def test_resize_evicts_oldest(self):
        cache = caching.LruCache("t.resize", maxsize=4)
        for index in range(4):
            cache.put(index, index + 1)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.get(3) == 4  # newest survive
        assert cache.get(0) is None

    def test_eviction_counters_emitted(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            cache = caching.LruCache(
                "t.evict", maxsize=1, eviction_counter="t.evictions"
            )
            cache.put("a", 1)
            cache.put("b", 2)
        counters = _final_counters(sink)
        assert counters.get("cache.t.evict.eviction") == 1
        assert counters.get("t.evictions") == 1


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


class TestMemoLog:
    def test_publish_dedups_and_reads_back(self):
        log = pool_mod.MemoLog(capacity=100, initial_bytes=256)
        try:
            assert log.publish([(("k", 1), "v1"), (("k", 2), "v2")]) == 2
            assert log.publish([(("k", 1), "v1"), (("k", 3), "v3")]) == 1
            name, committed = log.ref
            attachment = shared_memory.SharedMemory(name=name)
            entries = pool_mod.read_memo_frames(
                attachment.buf, 0, committed
            )
            attachment.close()
            assert entries == [
                (("k", 1), "v1"),
                (("k", 2), "v2"),
                (("k", 3), "v3"),
            ]
        finally:
            log.close()

    def test_rotation_preserves_worker_offsets(self):
        log = pool_mod.MemoLog(capacity=1000, initial_bytes=64)
        try:
            log.publish([(("a", i), "x" * 20) for i in range(3)])
            _, mid = log.ref
            log.publish([(("b", i), "y" * 200) for i in range(5)])
            name, committed = log.ref
            attachment = shared_memory.SharedMemory(name=name)
            # a worker that had consumed up to `mid` before the
            # rotation reads only the new frames from the new segment
            fresh = pool_mod.read_memo_frames(attachment.buf, mid, committed)
            everything = pool_mod.read_memo_frames(attachment.buf, 0, committed)
            attachment.close()
            assert [key for key, _ in fresh] == [("b", i) for i in range(5)]
            assert len(everything) == 8
        finally:
            log.close()

    def test_capacity_bound_drops_excess(self):
        log = pool_mod.MemoLog(capacity=2, initial_bytes=256)
        try:
            stored = log.publish([(("k", i), "v") for i in range(4)])
            assert stored == 2
            assert log.dropped == 2
            assert len(log) == 2
        finally:
            log.close()


class TestMemoSnapshot:
    def test_save_load_round_trip(self, tmp_path):
        entries = [(("k", 1), {"value": 2}), (("k", 2), [3, 4])]
        path = pool_mod.save_memo_snapshot(str(tmp_path), entries)
        assert os.path.basename(path) == pool_mod.MEMO_SNAPSHOT_FILE
        assert pool_mod.load_memo_snapshot(str(tmp_path)) == entries

    def test_load_missing_or_corrupt_is_empty(self, tmp_path):
        assert pool_mod.load_memo_snapshot(str(tmp_path)) == []
        bad = tmp_path / pool_mod.MEMO_SNAPSHOT_FILE
        bad.write_bytes(b"not a pickle")
        assert pool_mod.load_memo_snapshot(str(tmp_path)) == []


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

    def test_memo_dir_snapshot_written_and_warm_run_identical(self, tmp_path):
        specs = _specs(n_runs=2, algorithm="bs-sa")
        config = EngineConfig(
            n_jobs=2, backend="pool", memo_dir=str(tmp_path)
        )
        cold = Engine(config=config).run(specs)
        snapshot = tmp_path / pool_mod.MEMO_SNAPSHOT_FILE
        assert snapshot.exists()
        warm = Engine(config=config).run(specs)
        assert [r.med for r in warm.results] == [r.med for r in cold.results]

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
            args=(0, task_recv, result_send, 16, None, gone.pid),
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

    def test_memo_dir_requires_pool(self):
        with pytest.raises(ValueError, match="pool backend"):
            EngineConfig(memo_dir="/tmp/x")

    def test_memo_capacity_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="pool", memo_capacity=0)
