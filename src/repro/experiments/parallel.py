"""Multi-process execution of repeated algorithm runs.

The paper parallelises OptForPart calls over 44 threads; the Python
port instead parallelises at the coarser repeated-run granularity
(independent seeds of whole algorithm runs), which needs no shared
state and keeps every run bit-identical to its serial counterpart.

Workers receive plain data (truth table, config, seed) so the jobs
pickle cleanly on every platform.  Seeding uses
``np.random.SeedSequence(base_seed).spawn(...)`` — the same spawn the
serial :func:`repro.experiments.runner.repeated_runs` performs — so a
parallel run is provably bit-identical to the serial one, and
:meth:`RunSpec.seed_info` exposes the spawned seed for run manifests.

When a telemetry session is active (:mod:`repro.obs`), worker
processes capture their spans/counters in memory and ship them back
with each result; the parent folds them into its own session as
futures complete (a results queue), so one trace file holds the whole
multi-process run and progress lines appear as runs finish.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import caching, obs
from ..boolean.function import BooleanFunction
from ..core.bs_sa import run_bssa
from ..core.config import AlgorithmConfig
from ..core.dalta import run_dalta
from ..core.result import ApproximationResult

__all__ = ["RunSpec", "run_many", "seeds_for"]


class RunSpec:
    """One algorithm run, described by picklable data.

    Seeding comes in two flavours: the default *spawned* mode draws the
    run's generator from ``SeedSequence(base_seed).spawn(...)`` exactly
    like the serial runner, while ``direct_seed`` pins the generator to
    ``np.random.default_rng(direct_seed)`` — the form the Fig. 5
    harness uses for its single BS-SA compilations.
    """

    def __init__(
        self,
        algorithm: str,
        table: np.ndarray,
        n_inputs: int,
        n_outputs: int,
        name: str,
        config: AlgorithmConfig,
        base_seed: Optional[int],
        spawn_index: int,
        architecture: str = "normal",
        direct_seed: Optional[int] = None,
    ) -> None:
        if algorithm not in ("dalta", "bs-sa"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.table = np.asarray(table, dtype=np.int64)
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.name = name
        self.config = config
        self.base_seed = base_seed
        self.spawn_index = int(spawn_index)
        self.architecture = architecture
        self.direct_seed = direct_seed

    @classmethod
    def for_function(
        cls,
        algorithm: str,
        target: BooleanFunction,
        config: AlgorithmConfig,
        base_seed: Optional[int],
        spawn_index: int,
        architecture: str = "normal",
        direct_seed: Optional[int] = None,
    ) -> "RunSpec":
        return cls(
            algorithm,
            target.table,
            target.n_inputs,
            target.n_outputs,
            target.name,
            config,
            base_seed,
            spawn_index,
            architecture,
            direct_seed,
        )

    def target_function(self) -> BooleanFunction:
        """Materialise the target this spec runs against."""
        return BooleanFunction(
            self.n_inputs, self.n_outputs, self.table, name=self.name
        )

    def fingerprint(self) -> str:
        """Content digest binding a durable campaign job to this spec.

        Covers everything that determines the run's output — the target
        table, the algorithm configuration, and the seeding — so a
        checkpoint directory can refuse to resume against a different
        campaign definition.
        """
        digest = hashlib.sha256()
        digest.update(self.table.tobytes())
        descriptor = {
            "algorithm": self.algorithm,
            "name": self.name,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "config": dataclasses.asdict(self.config),
            "base_seed": self.base_seed,
            "spawn_index": self.spawn_index,
            "architecture": self.architecture,
            "direct_seed": self.direct_seed,
        }
        digest.update(json.dumps(descriptor, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    @property
    def label(self) -> str:
        """Human-readable job label for status displays."""
        seed = (
            f"seed={self.direct_seed}"
            if self.direct_seed is not None
            else f"run={self.spawn_index}"
        )
        return f"{self.name}/{self.algorithm}/{self.architecture}[{seed}]"

    def seed_sequence(self) -> np.random.SeedSequence:
        """The spawned child seed, exactly as the serial runner spawns it.

        ``SeedSequence(base_seed).spawn(k)[i]`` is the canonical spawn
        the serial :func:`repeated_runs` performs, so worker run ``i``
        is bit-identical to serial run ``i`` by construction.  That
        child is ``SeedSequence(base_seed, spawn_key=(i,))``, built here
        directly so the cost does not grow with ``spawn_index``.
        """
        return np.random.SeedSequence(
            self.base_seed, spawn_key=(self.spawn_index,)
        )

    def seed_info(self) -> Dict[str, Any]:
        """Manifest record of the seed driving this run."""
        if self.direct_seed is not None:
            return {
                "benchmark": self.name,
                "algorithm": self.algorithm,
                "direct_seed": self.direct_seed,
            }
        sequence = self.seed_sequence()
        return {
            "benchmark": self.name,
            "algorithm": self.algorithm,
            "base_seed": self.base_seed,
            "spawn_index": self.spawn_index,
            "spawn_key": list(sequence.spawn_key),
            "state": [int(w) for w in sequence.generate_state(4)],
        }

    def _rng(self) -> np.random.Generator:
        """Identical to run ``spawn_index`` of the serial repeated_runs.

        In direct-seed mode, identical to the serial harness's
        ``np.random.default_rng(direct_seed)`` call.
        """
        if self.direct_seed is not None:
            return np.random.default_rng(self.direct_seed)
        return np.random.default_rng(self.seed_sequence())

    def execute(self, fresh_caches: bool = True) -> ApproximationResult:
        # Fresh caches per run: results are cache-independent by
        # construction, but the cache hit/miss counters are not — warm
        # caches would make worker telemetry depend on which runs
        # shared a process, breaking serial-vs-parallel counter
        # equality (see tests/obs/test_integration.py).  The warm-pool
        # workers pass ``fresh_caches=False`` so the index and
        # neighbour caches stay warm across jobs; those caches hold
        # pure functions of their keys, so only the counters — never
        # the results — depend on warmth.
        if fresh_caches:
            caching.clear_caches()
        # Re-seed the legacy global NumPy state from the same spawned
        # sequence: the algorithms only use the explicit generator, but
        # this pins down any incidental np.random.* use in workloads.
        if self.direct_seed is not None:
            np.random.seed(self.direct_seed % (2**32))
        else:
            sequence = self.seed_sequence()
            np.random.seed(int(sequence.generate_state(1)[0]) % (2**32))
        target = self.target_function()
        if self.algorithm == "dalta":
            return run_dalta(target, self.config, rng=self._rng())
        return run_bssa(
            target, self.config, rng=self._rng(), architecture=self.architecture
        )


def _execute(spec: RunSpec) -> ApproximationResult:
    return spec.execute()


def _execute_traced(
    spec: RunSpec,
) -> Tuple[ApproximationResult, List[Dict[str, Any]]]:
    """Worker entry point when the parent has telemetry enabled.

    Runs under a fresh in-memory session and returns the captured
    records (spans, events, final counter snapshot) with the result.
    """
    sink = obs.MemorySink()
    with obs.session(sink):
        result = spec.execute()
    return result, sink.records


def seeds_for(n_runs: int, base_seed: Optional[int]) -> List[int]:
    """Spawn indices matching the serial :func:`repeated_runs` seeds."""
    return list(range(n_runs))


def _notify_completed(spec: RunSpec, result: ApproximationResult, **attrs) -> None:
    med = getattr(result, "med", None)
    if med is not None:
        obs.observe("run.med", med)
    obs.event(
        "run.completed",
        benchmark=spec.name,
        algorithm=spec.algorithm,
        seed=spec.spawn_index,
        elapsed=result.elapsed_seconds,
        **attrs,
    )


def run_many(
    specs: Sequence[RunSpec],
    n_jobs: int = 1,
    backend: str = "spawn",
) -> List[ApproximationResult]:
    """Execute run specs, serially or across worker processes.

    Results come back in spec order regardless of completion order, so
    downstream statistics are independent of ``n_jobs`` (and of
    ``backend``).  ``backend`` selects the multi-process transport:
    ``"spawn"`` is the fault-isolated per-job path (a process pool of
    pickled jobs), ``"pool"`` the warm-pool path of
    :mod:`repro.experiments.pool` — persistent workers and
    shared-memory tables.  Under an active
    telemetry session, worker telemetry is aggregated into the parent
    session and a ``run.completed`` event (one progress line on the
    stderr sink) fires per run.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if backend not in ("spawn", "pool"):
        raise ValueError(f"unknown backend {backend!r}; choose spawn or pool")
    telemetry = obs.current()
    if telemetry is not None:
        for spec in specs:
            telemetry.event("run.seeded", **spec.seed_info())
    if n_jobs == 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            result = spec.execute()
            if telemetry is not None:
                _notify_completed(spec, result)
            results.append(result)
        return results
    if backend == "pool":
        return _run_many_pool(specs, n_jobs, telemetry)

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        if telemetry is None:
            return list(pool.map(_execute, specs))
        # Results queue: drain futures as they complete so worker
        # telemetry and progress surface while later runs still execute.
        futures = {
            pool.submit(_execute_traced, spec): index
            for index, spec in enumerate(specs)
        }
        results: List[Optional[ApproximationResult]] = [None] * len(specs)
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                result, records = future.result()
                telemetry.absorb(records, worker=index)
                results[index] = result
                _notify_completed(specs[index], result, worker=index)
        return results  # type: ignore[return-value]


def _run_many_pool(
    specs: Sequence[RunSpec],
    n_jobs: int,
    telemetry,
) -> List[ApproximationResult]:
    """``run_many`` over the warm-pool backend.

    Workers ship checkpoint payloads rather than pickled results; the
    payloads are JSON round-tripped before reconstruction so the values
    are byte-identical to what the engine's checkpoint files would
    yield (``result_to_payload`` is proven lossless by the engine
    tests).
    """
    from .engine import result_from_payload
    from .pool import WorkerPool

    pool = WorkerPool(
        min(n_jobs, len(specs)),
        capture_telemetry=telemetry is not None,
    )
    try:
        payloads = pool.run(specs)
    finally:
        pool.close()
    results: List[ApproximationResult] = []
    for index, (spec, payload) in enumerate(zip(specs, payloads)):
        payload = json.loads(json.dumps(payload, sort_keys=True, default=str))
        records = payload.pop("telemetry", None)
        result = result_from_payload(spec, payload)
        if telemetry is not None:
            if isinstance(records, list):
                telemetry.absorb(records, worker=index)
            _notify_completed(spec, result, worker=index)
        results.append(result)
    return results
