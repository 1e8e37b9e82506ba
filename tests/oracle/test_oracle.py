"""The serial oracle checked against exhaustive search on small instances.

With a budget covering every partition and enough initial patterns to
include each optimum, the serial loops must find exactly what
``opt_for_part_exhaustive`` proves optimal, and every error they report
must equal the recomputed cost of the decomposition they return.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.boolean import Partition
from repro.core import (
    AlgorithmConfig,
    SearchStats,
    cost_vectors_fixed,
    opt_for_part_exhaustive,
)

from ..conftest import random_function
from . import serial as oracle

N_INPUTS = 5
BOUND = 2
#: 4-column tables have 16 pattern vectors; 64 draws cover them all
PATTERNS = 64


def _instance(seed):
    target = random_function(N_INPUTS, 3, np.random.default_rng(seed), name="o")
    costs = cost_vectors_fixed(target, np.zeros(1 << N_INPUTS, dtype=np.int64), 2)
    return costs, np.full(1 << N_INPUTS, 1.0 / (1 << N_INPUTS))


def _all_partitions(n_inputs, bound):
    for chosen in combinations(range(n_inputs), bound):
        free = tuple(v for v in range(n_inputs) if v not in chosen)
        yield Partition(free, chosen)


def _optimum(costs, p, n_inputs, partition):
    return opt_for_part_exhaustive(costs, p, partition, n_inputs).error


def _config():
    return AlgorithmConfig(
        bound_size=BOUND,
        partition_limit=10,
        n_initial_patterns=PATTERNS,
        n_beam=10,
        n_neighbours=6,
        n_chains=2,
    )


def _recomputed(costs, p, decomposition, n_inputs):
    return costs.evaluate(decomposition.evaluate(n_inputs), p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_search_finds_the_global_optimum(seed, kernel_tier):
    costs, p = _instance(seed)
    found = oracle.find_best_settings(
        costs,
        p,
        N_INPUTS,
        _config(),
        np.random.default_rng(seed),
        collect_bto=True,
        partition_search="random",
    )
    optima = {
        partition: _optimum(costs, p, N_INPUTS, partition)
        for partition in _all_partitions(N_INPUTS, BOUND)
    }
    assert len(found.settings) == len(optima)
    assert found.best.error == min(optima.values())
    for setting in found.settings:
        partition = setting.decomposition.partition
        assert setting.error == optima[partition]
        assert setting.error == _recomputed(costs, p, setting.decomposition, N_INPUTS)
    assert found.bto.error == _recomputed(costs, p, found.bto.decomposition, N_INPUTS)


@pytest.mark.parametrize("seed", [3, 4])
def test_sa_walk_reports_each_partition_optimum(seed, kernel_tier):
    costs, p = _instance(seed)
    stats = SearchStats()
    found = oracle.find_best_settings(
        costs, p, N_INPUTS, _config(), np.random.default_rng(seed), stats
    )
    assert stats.opt_for_part_calls == stats.partitions_visited > 0
    for setting in found.settings:
        partition = setting.decomposition.partition
        assert setting.error == _optimum(costs, p, N_INPUTS, partition)


def test_dalta_bit_finds_the_global_optimum(kernel_tier):
    costs, p = _instance(5)
    stats = SearchStats()
    best = oracle.search_bit(
        costs, p, N_INPUTS, _config(), np.random.default_rng(5), stats
    )
    assert stats.partitions_visited == 10
    assert best.error == min(
        _optimum(costs, p, N_INPUTS, partition)
        for partition in _all_partitions(N_INPUTS, BOUND)
    )


def _cofactor_optimum(costs, p, partition, shared):
    reduced, halves = oracle._cofactors(costs, p, partition, N_INPUTS, shared)
    return sum(
        _optimum(half_costs, weights, N_INPUTS - len(shared), reduced)
        for half_costs, weights in halves
    )


@pytest.mark.parametrize("shared", [1, 2, 4])
def test_nondisjoint_halves_reach_their_optima(shared, kernel_tier):
    costs, p = _instance(6)
    partition = Partition((0, 3), (1, 2, 4))
    result = oracle.optimize_nondisjoint_shared(
        costs,
        p,
        partition,
        N_INPUTS,
        shared,
        n_initial_patterns=PATTERNS,
        rng=np.random.default_rng(7),
    )
    assert result.error == _cofactor_optimum(costs, p, partition, (shared,))
    assert result.error == _recomputed(costs, p, result.decomposition, N_INPUTS)


def test_multi_shared_cofactors_reach_their_optima(kernel_tier):
    costs, p = _instance(8)
    partition = Partition((0,), (1, 2, 3, 4))
    result = oracle.optimize_multi_shared(
        costs,
        p,
        partition,
        N_INPUTS,
        (2, 4),
        n_initial_patterns=PATTERNS,
        rng=np.random.default_rng(9),
    )
    assert result.error == _cofactor_optimum(costs, p, partition, (2, 4))
    assert result.error == _recomputed(costs, p, result.decomposition, N_INPUTS)
