"""Unit tests for the multi-process run executor."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AlgorithmConfig, run_bssa
from repro.experiments import ExperimentScale, run_table2
from repro.experiments.parallel import RunSpec, run_many, seeds_for
from repro.experiments.runner import repeated_runs
from repro.workloads import get


@pytest.fixture(scope="module")
def target():
    return get("cos", 8)


@pytest.fixture(scope="module")
def config():
    return AlgorithmConfig.fast(seed=None)


class TestRunSpec:
    def test_rejects_unknown_algorithm(self, target, config):
        with pytest.raises(ValueError):
            RunSpec.for_function("genetic", target, config, 0, 0)

    def test_matches_serial_seeding(self, target, config):
        serial = repeated_runs(
            lambda rng: run_bssa(target, config, rng=rng), 2, base_seed=9
        )
        specs = [RunSpec.for_function("bs-sa", target, config, 9, i) for i in range(2)]
        parallel = run_many(specs, n_jobs=1)
        assert [r.med for r in serial] == [r.med for r in parallel]

    def test_worker_processes_identical(self, target, config):
        specs = [RunSpec.for_function("bs-sa", target, config, 3, i) for i in range(2)]
        single = run_many(specs, n_jobs=1)
        multi = run_many(specs, n_jobs=2)
        assert [r.med for r in single] == [r.med for r in multi]

    @pytest.mark.parametrize("base_seed", [0, 7, 2**40])
    def test_seed_sequence_is_the_canonical_spawn(self, target, config, base_seed):
        """The direct spawn key equals child ``i`` of ``spawn(i + 1)``."""
        for index in (0, 1, 5, 99):
            spec = RunSpec.for_function("bs-sa", target, config, base_seed, index)
            direct = spec.seed_sequence()
            spawned = np.random.SeedSequence(base_seed).spawn(index + 1)[index]
            assert direct.entropy == spawned.entropy
            assert direct.spawn_key == spawned.spawn_key
            assert (direct.generate_state(8) == spawned.generate_state(8)).all()
            draws = np.random.default_rng(direct).integers(0, 2**63, size=4)
            expected = np.random.default_rng(spawned).integers(0, 2**63, size=4)
            assert (draws == expected).all()

    def test_dalta_spec(self, target, config):
        spec = RunSpec.for_function("dalta", target, config, 0, 0)
        result = spec.execute()
        assert result.algorithm == "dalta"


class TestRunMany:
    def test_rejects_bad_jobs(self, target, config):
        with pytest.raises(ValueError):
            run_many([], n_jobs=0)

    def test_empty(self):
        assert run_many([], n_jobs=2) == []

    def test_seeds_for(self):
        assert seeds_for(3, 0) == [0, 1, 2]


class TestParallelTable2:
    def test_table2_results_independent_of_n_jobs(self):
        scale = ExperimentScale.smoke()
        serial = run_table2(scale, base_seed=4)
        parallel = run_table2(replace(scale, n_jobs=2), base_seed=4)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.dalta == b.dalta
            assert a.bssa == b.bssa
