"""Unit tests for the OptForPart kernel."""

import numpy as np
import pytest

from repro import caching
from repro.boolean import Partition, RowType, random_partition
from repro.core import (
    BitCosts,
    cost_vectors_fixed,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_exhaustive,
    opt_for_part_exhaustive_many,
    opt_for_part_many,
)
from repro.core.opt_for_part import KernelRequest, opt_for_part_grouped
from repro.metrics import distributions

from ..conftest import random_bits
from ..conftest import integer_costs as _integer_costs
from ..oracle.serial import same_result as _same_result


def _single_bit_costs(bits: np.ndarray) -> BitCosts:
    """Costs for approximating a 1-output function directly."""
    bits = np.asarray(bits, dtype=np.int64)
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


class TestConsistency:
    def test_reported_error_matches_decomposition(self, rng):
        """E must equal the recomputed weighted cost of (ω, V, T)."""
        n = 6
        p = distributions.uniform(n)
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        partition = Partition((3, 4, 5), (0, 1, 2))
        result = opt_for_part(
            costs, p, partition, n, n_initial_patterns=8, rng=rng
        )
        recomputed = costs.evaluate(result.decomposition.evaluate(n), p)
        assert result.error == pytest.approx(recomputed)

    def test_error_bounded_by_input_size(self, rng):
        n = 5
        p = distributions.uniform(n)
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        partition = Partition((2, 3, 4), (0, 1))
        result = opt_for_part(costs, p, partition, n, rng=rng)
        assert 0.0 <= result.error <= 1.0

    def test_decomposable_function_reaches_zero(self, rng):
        """When an exact decomposition exists, OptForPart must find E=0."""
        from repro.boolean import DisjointDecomposition

        partition = Partition((3, 4, 5), (0, 1, 2))
        pattern = rng.integers(0, 2, size=8).astype(np.uint8)
        pattern[0] = 1  # ensure non-constant structure survives
        types = rng.integers(1, 5, size=8).astype(np.int8)
        bits = DisjointDecomposition(partition, pattern, types).evaluate(6)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(6)
        result = opt_for_part(
            costs, p, partition, 6, n_initial_patterns=20, rng=rng
        )
        assert result.error == pytest.approx(0.0)
        assert result.decomposition.evaluate(6).tolist() == bits.tolist()


class TestAgainstExhaustiveOracle:
    def test_never_beats_oracle(self, rng):
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        partitions = [random_partition(n, 3, rng) for _ in range(5)]
        heuristics = opt_for_part_many(
            costs, p, partitions, n, n_initial_patterns=10, rng=rng
        )
        oracles = opt_for_part_exhaustive_many(costs, p, partitions, n)
        for heuristic, oracle in zip(heuristics, oracles):
            assert heuristic.error >= oracle.error - 1e-12

    def test_usually_matches_oracle(self, rng):
        """With generous restarts the alternation finds the optimum."""
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        partitions = [random_partition(n, 2, rng) for _ in range(10)]
        heuristics = opt_for_part_many(
            costs, p, partitions, n, n_initial_patterns=16, rng=rng
        )
        oracles = opt_for_part_exhaustive_many(costs, p, partitions, n)
        hits = sum(
            heuristic.error <= oracle.error + 1e-12
            for heuristic, oracle in zip(heuristics, oracles)
        )
        assert hits >= len(partitions) - 2

    def test_batched_oracle_matches_serial(self, rng):
        """``exhaustive_many`` equals a loop of single calls, bit for bit."""
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        partitions = [random_partition(n, 3, rng) for _ in range(4)]
        batched = opt_for_part_exhaustive_many(costs, p, partitions, n)
        for partition, item in zip(partitions, batched):
            serial = opt_for_part_exhaustive(costs, p, partition, n)
            assert item.error == serial.error
            assert np.array_equal(item.pattern, serial.pattern)
            assert np.array_equal(item.types, serial.types)

    def test_batched_oracle_rejects_mixed_shapes(self, rng):
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        mixed = [Partition((3, 4), (0, 1, 2)), Partition((2, 3, 4), (0, 1))]
        with pytest.raises(ValueError, match="shape"):
            opt_for_part_exhaustive_many(costs, p, mixed, n)

    def test_exhaustive_refuses_large_bound(self, rng):
        costs = _single_bit_costs(random_bits(6, rng))
        with pytest.raises(ValueError, match="refused"):
            opt_for_part_exhaustive(
                costs, distributions.uniform(6), Partition((5,), (0, 1, 2, 3, 4)), 6
            )


class TestBtoVariant:
    def test_types_all_pattern(self, rng):
        n = 5
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = opt_for_part_bto(costs, p, partition, n)
        assert np.all(result.decomposition.types == RowType.PATTERN)
        assert result.decomposition.mode == "bto"

    def test_bto_is_exact_per_column(self, rng):
        """The BTO optimum is the true optimum among all-type-3 settings."""
        n = 5
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = opt_for_part_bto(costs, p, partition, n)
        # enumerate all 2^8 pattern vectors
        best = np.inf
        for v in range(1 << partition.n_cols):
            pattern = np.array(
                [(v >> c) & 1 for c in range(partition.n_cols)], dtype=np.uint8
            )
            from repro.boolean import BoundOnlyDecomposition

            candidate = BoundOnlyDecomposition(partition, pattern)
            best = min(best, costs.evaluate(candidate.evaluate(n), p))
        assert result.error == pytest.approx(best)

    def test_bto_never_better_than_normal_oracle(self, rng):
        n = 5
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        bto = opt_for_part_bto(costs, p, partition, n)
        oracle = opt_for_part_exhaustive(costs, p, partition, n)
        assert bto.error >= oracle.error - 1e-12


class TestParameters:
    def test_rejects_zero_patterns(self, rng):
        costs = _single_bit_costs(random_bits(4, rng))
        with pytest.raises(ValueError):
            opt_for_part(
                costs,
                distributions.uniform(4),
                Partition((2, 3), (0, 1)),
                4,
                n_initial_patterns=0,
                rng=rng,
            )

    def test_weighted_distribution_respected(self, rng):
        """Inputs with zero probability should not constrain the fit."""
        n = 4
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        partition = Partition((2, 3), (0, 1))
        # all mass on inputs where the function is 0
        p = np.where(bits == 0, 1.0, 0.0)
        p = p / p.sum()
        result = opt_for_part(costs, p, partition, n, rng=rng)
        assert result.error == pytest.approx(0.0)


class TestInitialPatternValidation:
    """Caller-supplied ``(N, Z, cols)`` stacks are checked up front."""

    def _problem(self):
        n = 6
        bits = random_bits(n, np.random.default_rng(5))
        partitions = [
            Partition((3, 4, 5), (0, 1, 2)),
            Partition((0, 4, 5), (1, 2, 3)),
        ]
        return _single_bit_costs(bits), distributions.uniform(n), partitions, n

    def test_non_binary_values_rejected(self):
        costs, p, partitions, n = self._problem()
        sevens = np.full((2, 4, 8), 7, dtype=np.uint8)
        with pytest.raises(ValueError, match="0/1"):
            opt_for_part_many(costs, p, partitions, n, initial_patterns=sevens)

    def test_zero_candidates_rejected(self):
        costs, p, partitions, n = self._problem()
        empty = np.zeros((2, 0, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="Z >= 1"):
            opt_for_part_many(costs, p, partitions, n, initial_patterns=empty)

    def test_wrong_width_rejected(self):
        costs, p, partitions, n = self._problem()
        narrow = np.zeros((2, 4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="4 columns.*8"):
            opt_for_part_many(costs, p, partitions, n, initial_patterns=narrow)
        with pytest.raises(ValueError, match="4 columns.*8"):
            opt_for_part_many(
                costs, p, partitions, n, initial_patterns=list(narrow)
            )

    def test_signed_or_float_dtype_rejected(self):
        costs, p, partitions, n = self._problem()
        floats = np.zeros((2, 4, 8))
        with pytest.raises(ValueError, match="bool or unsigned"):
            opt_for_part_many(costs, p, partitions, n, initial_patterns=floats)

    def test_bool_stack_matches_uint8(self):
        costs, p, partitions, n = self._problem()
        stack = np.random.default_rng(2).integers(
            0, 2, (2, 4, 8), dtype=np.uint8
        )
        as_uint8 = opt_for_part_many(
            costs, p, partitions, n, initial_patterns=stack
        )
        as_bool = opt_for_part_many(
            costs, p, partitions, n, initial_patterns=stack.astype(bool)
        )
        for a, b in zip(as_uint8, as_bool):
            assert a.error == b.error
            assert a.pattern.tobytes() == b.pattern.tobytes()
            assert a.types.tobytes() == b.types.tobytes()


class TestGroupedEngine:
    """opt_for_part_grouped == each request's own opt_for_part_many."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        caching.clear_caches()
        yield
        caching.clear_caches()

    def _request(self, n_inputs, bound, count, seed, z=4):
        costs = _integer_costs(n_inputs, seed)
        p = distributions.uniform(n_inputs)
        sample = np.random.default_rng(seed + 1)
        partitions = [
            random_partition(n_inputs, bound, sample) for _ in range(count)
        ]
        stacked = np.random.default_rng(seed + 2).integers(
            0, 2, size=(count, z, partitions[0].n_cols), dtype=np.uint8
        )
        return costs, p, partitions, stacked

    def test_mixed_shape_requests_match_serial(self):
        problems = [
            self._request(6, 3, 2, seed=10),
            self._request(6, 3, 5, seed=20),
            self._request(7, 4, 3, seed=30),  # different table shape
        ]
        serial = []
        for n_inputs, (costs, p, partitions, stacked) in zip(
            (6, 6, 7), problems
        ):
            caching.clear_caches()
            serial.append(
                opt_for_part_many(
                    costs, p, partitions, n_inputs, initial_patterns=stacked
                )
            )
        caching.clear_caches()
        grouped = opt_for_part_grouped(
            [
                KernelRequest(costs, p, partitions, n_inputs, stacked)
                for n_inputs, (costs, p, partitions, stacked) in zip(
                    (6, 6, 7), problems
                )
            ]
        )
        assert len(grouped) == len(serial)
        for fused_results, serial_results in zip(grouped, serial):
            assert len(fused_results) == len(serial_results)
            for a, b in zip(fused_results, serial_results):
                _same_result(a, b)

    def test_reference_and_packed_requests_coexist(self):
        """Ineligible (random-p) and eligible requests fuse correctly."""
        costs, _, partitions, stacked = self._request(6, 3, 3, seed=40)
        raw = np.random.default_rng(41).random(64) + 1e-3
        random_p = raw / raw.sum()
        uniform_p = distributions.uniform(6)
        caching.clear_caches()
        serial_ref = opt_for_part_many(
            costs, random_p, partitions, 6, initial_patterns=stacked
        )
        caching.clear_caches()
        serial_packed = opt_for_part_many(
            costs, uniform_p, partitions, 6, initial_patterns=stacked
        )
        caching.clear_caches()
        grouped = opt_for_part_grouped(
            [
                KernelRequest(costs, random_p, partitions, 6, stacked),
                KernelRequest(costs, uniform_p, partitions, 6, stacked),
            ]
        )
        for a, b in zip(grouped[0], serial_ref):
            _same_result(a, b)
        for a, b in zip(grouped[1], serial_packed):
            _same_result(a, b)
