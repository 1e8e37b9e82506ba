"""Differential tests for the batched search and its kernel caches.

The production search loops evaluate a whole generation per stacked
``OptForPart`` call, and the kernel layer caches gather indices,
neighbour lists and a per-``(costs, p)`` kernel context.  None of that
may change a bit: these tests pin every search loop against the serial
oracle in ``tests/oracle/`` (identical errors, pattern/type bytes, work
counters and downstream generator streams) on both kernel tiers, and
every cache against a direct recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import caching
from repro.boolean import Partition, ops, random_partition
from repro.boolean.truth_table import row_col_indices, table_indices
from repro.core import (
    AlgorithmConfig,
    SearchStats,
    cost_vectors_fixed,
    find_best_settings,
    memo_context,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_exhaustive,
    opt_for_part_many,
    optimize_multi_shared,
    optimize_nondisjoint,
    optimize_nondisjoint_shared,
    run_bssa,
    run_dalta,
)
from repro.core.dalta import search_bit

from ..conftest import random_bits, random_function
from ..oracle import serial as oracle
from ..oracle.serial import run_fingerprint as _run_fingerprint
from ..oracle.serial import same_result as _same_result


@pytest.fixture(autouse=True)
def fresh_caches():
    """Isolate every test from cross-test cache state."""
    caching.clear_caches()
    yield
    caching.clear_caches()


def _instance(n_inputs, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    raw = rng.random(1 << n_inputs) + 1e-3
    return costs, raw / raw.sum()


def _uniform_instance(n_inputs, seed):
    """Integer costs + uniform p: eligible for the packed tier."""
    rng = np.random.default_rng(seed)
    target = random_function(n_inputs, 3, rng, name="u")
    costs = cost_vectors_fixed(target, np.zeros(1 << n_inputs, dtype=np.int64), 2)
    return costs, np.full(1 << n_inputs, 1.0 / (1 << n_inputs))


class TestIndexCache:
    def test_matches_bit_extraction(self):
        rng = np.random.default_rng(0)
        for n_inputs in (4, 6, 9):
            for bound in (1, 2, n_inputs - 2):
                partition = random_partition(n_inputs, bound, rng)
                scatter, gather = table_indices(partition, n_inputs)
                reference = partition.scatter_index(n_inputs)
                np.testing.assert_array_equal(scatter, reference)
                # gather is the inverse permutation
                np.testing.assert_array_equal(
                    gather[scatter], np.arange(1 << n_inputs)
                )

    def test_row_col_matches_extraction(self):
        rng = np.random.default_rng(1)
        partition = random_partition(8, 3, rng)
        rows, cols = row_col_indices(partition, 8)
        ref_rows, ref_cols = partition.row_col_of(ops.all_inputs(8))
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)

    def test_cached_arrays_are_shared_and_readonly(self):
        partition = Partition((2, 3), (0, 1))
        first = table_indices(partition, 4)
        second = table_indices(partition, 4)
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        assert not first[1].flags.writeable
        with pytest.raises(ValueError):
            first[1][0] = 7


class TestNeighbourSampling:
    def test_sampling_matches_enumerated_swaps(self):
        partition = Partition((0, 3, 5, 6), (1, 2, 4))
        swaps = [(a, b) for a in partition.free for b in partition.bound]
        picks = np.random.default_rng(3).choice(
            len(swaps), size=4, replace=False
        )
        expected = []
        for index in picks:
            a, b = swaps[int(index)]
            expected.append(
                Partition(
                    tuple(sorted(set(partition.free) - {a} | {b})),
                    tuple(sorted(set(partition.bound) - {b} | {a})),
                )
            )
        sampled = partition.sample_neighbours(4, np.random.default_rng(3))
        assert sampled == expected

    def test_oversampling_returns_all_neighbours(self):
        partition = Partition((0, 1), (2, 3))
        rng = np.random.default_rng(5)
        assert partition.sample_neighbours(99, rng) == partition.neighbours()


class TestBatchedMatchesSerial:
    @pytest.mark.parametrize("n_inputs,bound", [(6, 3), (8, 4), (9, 5)])
    def test_many_vs_loop(self, n_inputs, bound):
        costs, p = _instance(n_inputs, seed=42)
        sample_rng = np.random.default_rng(7)
        partitions = [
            random_partition(n_inputs, bound, sample_rng) for _ in range(9)
        ]
        rng_serial = np.random.default_rng(99)
        serial = [
            opt_for_part(
                costs, p, pt, n_inputs, n_initial_patterns=5, rng=rng_serial
            )
            for pt in partitions
        ]
        rng_batched = np.random.default_rng(99)
        batched = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=5, rng=rng_batched
        )
        assert len(batched) == len(serial)
        for a, b in zip(serial, batched):
            _same_result(a, b)
        # the batched draw consumes the generator identically
        assert rng_serial.bit_generator.state == rng_batched.bit_generator.state

    def test_many_spans_multiple_chunks(self, monkeypatch):
        import importlib

        # the package re-exports the function under the module's name
        kernel = importlib.import_module("repro.core.opt_for_part")
        monkeypatch.setattr(kernel, "_BATCH_LIMIT", 3)
        costs, p = _instance(7, seed=8)
        sample_rng = np.random.default_rng(2)
        partitions = [random_partition(7, 3, sample_rng) for _ in range(8)]
        rng_serial = np.random.default_rng(4)
        serial = [
            opt_for_part(costs, p, pt, 7, n_initial_patterns=4, rng=rng_serial)
            for pt in partitions
        ]
        rng_batched = np.random.default_rng(4)
        batched = kernel.opt_for_part_many(
            costs, p, partitions, 7, n_initial_patterns=4, rng=rng_batched
        )
        for a, b in zip(serial, batched):
            _same_result(a, b)

    def test_shape_mismatch_rejected(self):
        costs, p = _instance(6, seed=1)
        parts = [
            Partition((2, 3, 4, 5), (0, 1)),
            Partition((3, 4, 5), (0, 1, 2)),
        ]
        with pytest.raises(ValueError, match="one .* shape"):
            opt_for_part_many(costs, p, parts, 6, rng=np.random.default_rng(0))


class TestKernelContext:
    """An ``OptMemo`` kernel context caches per-``(costs, p)`` set-up
    only: reusing it, or passing none, changes no result and no
    generator stream."""

    @pytest.mark.parametrize("variant", ["normal", "bto", "exhaustive"])
    def test_context_changes_no_result_or_rng_stream(self, variant):
        costs, p = _instance(7, seed=21)
        partition = random_partition(7, 3, np.random.default_rng(2))
        memo = memo_context(costs, p)

        def call(context):
            rng = np.random.default_rng(1)
            if variant == "normal":
                result = opt_for_part(
                    costs, p, partition, 7, rng=rng, memo=context
                )
            elif variant == "bto":
                result = opt_for_part_bto(costs, p, partition, 7, memo=context)
            else:  # the exhaustive oracle takes no context
                result = opt_for_part_exhaustive(costs, p, partition, 7)
            return result, rng.bit_generator.state

        first, first_state = call(memo)
        again, again_state = call(memo)
        bare, bare_state = call(None)
        _same_result(first, again)
        _same_result(first, bare)
        assert first_state == again_state == bare_state


class TestPipelineBitExact:
    """Full algorithm runs are byte-identical to the serial oracle."""

    CONFIG = AlgorithmConfig(
        bound_size=4,
        rounds=2,
        partition_limit=8,
        n_initial_patterns=4,
        n_beam=2,
        n_neighbours=3,
        nd_candidates=2,
    )

    def _run(self, algorithm, architecture):
        rng = np.random.default_rng(2024)
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        caching.clear_caches()
        if algorithm == "dalta":
            return run_dalta(target, self.CONFIG, rng=rng)
        return run_bssa(
            target,
            self.CONFIG,
            rng=rng,
            architecture=architecture,
            partition_search="random" if algorithm == "bs-sa-random" else "sa",
        )

    @pytest.mark.parametrize(
        "algorithm,architecture",
        [
            ("bs-sa", "normal"),
            ("bs-sa", "bto-normal"),
            ("bs-sa", "bto-normal-nd"),
            ("bs-sa-random", "bto-normal-nd"),
            ("dalta", "normal"),
        ],
    )
    def test_production_matches_oracle(self, algorithm, architecture, kernel_tier):
        production = self._run(algorithm, architecture)
        with oracle.serial_search():
            reference = self._run(algorithm, architecture)
        assert _run_fingerprint(production) == _run_fingerprint(reference)

    def test_warm_memo_rerun_is_identical(self):
        target = random_function(8, 3, np.random.default_rng(5), name="w")
        cold = run_bssa(
            target, self.CONFIG, rng=np.random.default_rng(31),
            architecture="bto-normal",
        )
        # same seed again, index and neighbour caches still warm
        warm = run_bssa(
            target, self.CONFIG, rng=np.random.default_rng(31),
            architecture="bto-normal",
        )
        assert _run_fingerprint(cold) == _run_fingerprint(warm)


class TestSearchLoopsMatchOracle:
    """Each batched loop against its serial oracle, one call at a time."""

    CONFIG = AlgorithmConfig(
        bound_size=3,
        partition_limit=12,
        n_initial_patterns=5,
        n_beam=3,
        n_neighbours=4,
        n_chains=2,
    )

    @pytest.mark.parametrize("partition_search", ["sa", "random"])
    def test_find_best_settings(self, partition_search, kernel_tier):
        costs, p = _uniform_instance(7, seed=5)
        outcomes = []
        for function in (find_best_settings, oracle.find_best_settings):
            rng = np.random.default_rng(19)
            stats = SearchStats()
            found = function(
                costs,
                p,
                7,
                self.CONFIG,
                rng,
                stats,
                collect_bto=True,
                partition_search=partition_search,
            )
            outcomes.append((found, stats, rng.bit_generator.state))
        (found, stats, state), (expected, expected_stats, expected_state) = outcomes
        assert len(found.settings) == len(expected.settings) == 3
        for a, b in zip(found.settings, expected.settings):
            _same_result(a, b)
        _same_result(found.bto, expected.bto)
        assert vars(stats) == vars(expected_stats)
        assert state == expected_state

    def test_dalta_bit(self, kernel_tier):
        costs, p = _uniform_instance(7, seed=6)
        outcomes = []
        for function in (search_bit, oracle.search_bit):
            rng = np.random.default_rng(23)
            stats = SearchStats()
            best = function(costs, p, 7, self.CONFIG, rng, stats)
            outcomes.append((best, vars(stats), rng.bit_generator.state))
        (best, stats, state), (expected, expected_stats, expected_state) = outcomes
        _same_result(best, expected)
        assert stats == expected_stats and stats["opt_for_part_calls"] == 12
        assert state == expected_state

    def test_nondisjoint(self, kernel_tier):
        costs, p = _uniform_instance(7, seed=7)
        partition = Partition((0, 2, 5), (1, 3, 4, 6))
        outcomes = []
        for function in (optimize_nondisjoint, oracle.optimize_nondisjoint):
            rng = np.random.default_rng(29)
            result = function(costs, p, partition, 7, n_initial_patterns=5, rng=rng)
            outcomes.append(
                (
                    result.error,
                    oracle.decomposition_fingerprint(result.decomposition),
                    rng.bit_generator.state,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_nondisjoint_shared(self, kernel_tier):
        costs, p = _uniform_instance(6, seed=8)
        partition = Partition((0, 5), (1, 2, 3, 4))
        outcomes = []
        for function in (optimize_nondisjoint_shared, oracle.optimize_nondisjoint_shared):
            rng = np.random.default_rng(31)
            result = function(
                costs, p, partition, 6, 3, n_initial_patterns=4, rng=rng
            )
            outcomes.append(
                (
                    result.error,
                    oracle.decomposition_fingerprint(result.decomposition),
                    rng.bit_generator.state,
                )
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("shared", [(2,), (1, 4), (1, 2, 4)])
    def test_multi_shared(self, shared, kernel_tier):
        costs, p = _uniform_instance(7, seed=9)
        partition = Partition((0, 3, 6), (1, 2, 4, 5))
        outcomes = []
        for function in (optimize_multi_shared, oracle.optimize_multi_shared):
            rng = np.random.default_rng(37)
            result = function(
                costs, p, partition, 7, shared, n_initial_patterns=5, rng=rng
            )
            outcomes.append(
                (
                    result.error,
                    oracle.decomposition_fingerprint(result.decomposition),
                    rng.bit_generator.state,
                )
            )
        assert outcomes[0] == outcomes[1]
