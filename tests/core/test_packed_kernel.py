"""Differential harness for the bit-packed OptForPart kernel tier.

The packed sweep restructures the kernel's arithmetic (diff-matrix
matmuls, offset bincounts, half-scaled sign products) and is only
engaged when the dyadic-exactness gate proves every intermediate float
exactly representable.  Under the gate the tier must be *byte-exact*:
every error, pattern byte, type byte and consumed rng draw identical
to the float sweep, which the oracle's gate fake (``float_tier``)
forces on the same instances.  These tests pin that contract at three
levels — single kernel calls across sweep budgets, full algorithm runs
across all three architectures, and packed shared-memory arena pages —
plus the gate itself, including its weighted (non-uniform
distribution) certificates and the exact weighted popcounts of
:class:`repro.boolean.packed.WeightPlanes` they rest on, and which
tier the shipped workloads actually reach.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import caching, obs, workloads
from repro.boolean import random_partition
from repro.boolean.packed import WeightPlanes, pack_bits
from repro.core import (
    AlgorithmConfig,
    cost_vectors_fixed,
    memo_context,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_many,
    run_bssa,
    run_dalta,
)
from repro.experiments import ExperimentScale, run_table2
from repro.experiments.distribution_study import _make_distribution
from repro.metrics import distributions

from ..conftest import integer_costs as _integer_costs
from ..conftest import random_bits, random_function
from ..oracle.serial import float_tier, serial_search
from ..oracle.serial import run_fingerprint as _run_fingerprint
from ..oracle.serial import same_result as _same_result

# the package re-exports the function under the module's name
ofp = importlib.import_module("repro.core.opt_for_part")

_SUPPRESS = [HealthCheck.function_scoped_fixture]


@pytest.fixture(autouse=True)
def fresh_caches():
    caching.clear_caches()
    yield
    caching.clear_caches()


def _uniform_instance(n_inputs, seed):
    """Integer costs + uniform p: the gate's eligible regime."""
    return _integer_costs(n_inputs, seed), distributions.uniform(n_inputs)


def _packed_vs_reference(costs, p, n_inputs, bound, count, seed):
    """Run the same batch on the packed tier and the float sweep."""
    sample = np.random.default_rng(seed)
    partitions = [random_partition(n_inputs, bound, sample) for _ in range(count)]
    rng_on = np.random.default_rng(seed + 1)
    rng_off = np.random.default_rng(seed + 1)
    caching.clear_caches()
    on = opt_for_part_many(
        costs, p, partitions, n_inputs, n_initial_patterns=4, rng=rng_on
    )
    caching.clear_caches()
    with float_tier():
        off = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=4, rng=rng_off
        )
    assert rng_on.bit_generator.state == rng_off.bit_generator.state
    return on, off


class TestEligibilityGate:
    def test_uniform_integer_instance_is_eligible(self):
        costs, p = _uniform_instance(8, seed=0)
        assert ofp._packed_eligible(costs, p)

    def test_non_uniform_distribution_is_rejected(self):
        costs, _ = _uniform_instance(6, seed=1)
        raw = np.random.default_rng(1).random(1 << 6) + 1e-3
        assert not ofp._packed_eligible(costs, raw / raw.sum())

    def test_fractional_costs_are_rejected(self):
        costs, p = _uniform_instance(5, seed=2)
        fractional = type(costs)(costs.k, costs.cost0 + 0.5, costs.cost1)
        assert not ofp._packed_eligible(fractional, p)

    def test_negative_costs_are_rejected(self):
        costs, p = _uniform_instance(5, seed=3)
        negative = type(costs)(costs.k, costs.cost0 - 1.0, costs.cost1)
        assert not ofp._packed_eligible(negative, p)

    def test_magnitude_overflow_is_rejected(self):
        """Sums that could leave the exact-integer float range bail out."""
        costs, p = _uniform_instance(5, seed=4)
        huge = type(costs)(costs.k, costs.cost0 + 2.0**53, costs.cost1)
        assert not ofp._packed_eligible(huge, p)

    def test_empty_distribution_is_rejected(self):
        costs, _ = _uniform_instance(4, seed=5)
        assert not ofp._packed_eligible(costs, np.empty(0))

    def test_memo_caches_the_verdict(self):
        costs, p = _uniform_instance(7, seed=6)
        memo = memo_context(costs, p)
        assert memo.packed_ok is None
        assert ofp._packed_mode_engaged(costs, p, memo) is not None
        assert memo.packed_ok is True
        # a cached verdict short-circuits the array scans entirely
        assert ofp._packed_mode_engaged(costs, p, memo) is not None


class TestKernelByteIdentity:
    """Packed vs float sweep: identical bytes out, identical rng stream."""

    @pytest.mark.parametrize("max_sweeps", [1, 2, 50])
    @pytest.mark.parametrize("n_inputs,bound", [(6, 3), (9, 4), (10, 6)])
    def test_single_call(self, n_inputs, bound, max_sweeps):
        costs, p = _uniform_instance(n_inputs, seed=17)
        partition = random_partition(n_inputs, bound, np.random.default_rng(3))
        rng_packed = np.random.default_rng(23)
        rng_ref = np.random.default_rng(23)
        packed = opt_for_part(
            costs, p, partition, n_inputs,
            n_initial_patterns=6, max_sweeps=max_sweeps, rng=rng_packed,
        )
        with float_tier():
            reference = opt_for_part(
                costs, p, partition, n_inputs,
                n_initial_patterns=6, max_sweeps=max_sweeps, rng=rng_ref,
            )
        _same_result(packed, reference)
        assert rng_packed.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("count", [1, 9, 70])
    def test_batched_calls(self, count):
        """Chunked batches (beyond _BATCH_LIMIT) stay byte-identical."""
        costs, p = _uniform_instance(9, seed=29)
        sample_rng = np.random.default_rng(11)
        partitions = [random_partition(9, 4, sample_rng) for _ in range(count)]
        rng_packed = np.random.default_rng(31)
        rng_ref = np.random.default_rng(31)
        packed = opt_for_part_many(
            costs, p, partitions, 9, n_initial_patterns=5, rng=rng_packed
        )
        with float_tier():
            reference = opt_for_part_many(
                costs, p, partitions, 9, n_initial_patterns=5, rng=rng_ref
            )
        for a, b in zip(packed, reference):
            _same_result(a, b)
        assert rng_packed.bit_generator.state == rng_ref.bit_generator.state

    def test_bto_variant(self):
        costs, p = _uniform_instance(8, seed=37)
        partition = random_partition(8, 4, np.random.default_rng(5))
        packed = opt_for_part_bto(costs, p, partition, 8)
        with float_tier():
            reference = opt_for_part_bto(costs, p, partition, 8)
        _same_result(packed, reference)

    def test_ineligible_instance_falls_back(self):
        """Non-uniform p fails the gate and runs the float sweep."""
        rng = np.random.default_rng(41)
        bits = random_bits(7, rng)
        costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
        raw = rng.random(1 << 7) + 1e-3
        p = raw / raw.sum()
        partition = random_partition(7, 3, np.random.default_rng(2))
        on = opt_for_part(
            costs, p, partition, 7, rng=np.random.default_rng(9)
        )
        with float_tier():
            off = opt_for_part(
                costs, p, partition, 7, rng=np.random.default_rng(9)
            )
        _same_result(on, off)

    def test_memoised_result_matches_reference(self):
        """A warmed BTO memo replays the bytes of a memo-less call."""
        costs, p = _uniform_instance(8, seed=43)
        partition = random_partition(8, 4, np.random.default_rng(7))
        memo = memo_context(costs, p)
        first = opt_for_part_bto(costs, p, partition, 8, memo=memo)
        replay = opt_for_part_bto(costs, p, partition, 8, memo=memo)
        assert caching.cache_stats()["opt.memo"]["hits"] == 1
        reference = opt_for_part_bto(costs, p, partition, 8)
        _same_result(first, replay)
        _same_result(first, reference)


class TestPipelineByteIdentity:
    """Full protocol runs are byte-identical on the packed and float tiers."""

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
        return run_bssa(target, self.CONFIG, rng=rng, architecture=architecture)

    @pytest.mark.parametrize(
        "algorithm,architecture",
        [
            ("bs-sa", "normal"),
            ("bs-sa", "bto-normal"),
            ("bs-sa", "bto-normal-nd"),
            ("dalta", "normal"),
        ],
    )
    def test_packed_tier_does_not_change_results(self, algorithm, architecture):
        packed = self._run(algorithm, architecture)
        with float_tier():
            reference = self._run(algorithm, architecture)
        assert _run_fingerprint(packed) == _run_fingerprint(reference)


class TestTierEngagement:
    """Which tier the shipped workloads reach, read from telemetry."""

    def test_table2_protocol_runs_packed_only(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            run_table2(ExperimentScale.smoke(), base_seed=0)
        counters = sink.counters()
        assert counters.get("opt.packed_calls", 0) > 0
        assert counters.get("opt.packed_ineligible", 0) == 0

    def test_distribution_study_gaussian_takes_the_float_sweep(self):
        """The study's truncated Gaussian fails the gate: float fallback.

        Its weights need more than 52 bits on a common dyadic unit, so
        every kernel call runs the float sweep — and the run still
        matches the serial oracle byte for byte.
        """
        target = workloads.get("cos", 8)
        p = _make_distribution("midtone-gaussian", 8)
        config = AlgorithmConfig.fast(seed=None)

        def run():
            caching.clear_caches()
            return run_bssa(
                target, config, p=p, rng=np.random.default_rng(5),
                architecture="bto-normal-nd",
            )

        sink = obs.MemorySink()
        with obs.session(sink):
            production = run()
        counters = sink.counters()
        assert counters.get("opt.packed_ineligible", 0) > 0
        assert counters.get("opt.packed_calls", 0) == 0
        with serial_search():
            reference = run()
        assert _run_fingerprint(production) == _run_fingerprint(reference)


class TestArenaPackedPages:
    def test_packed_page_round_trips_byte_identical(self):
        from repro.experiments import pool as pool_mod

        arena = pool_mod.TableArena()
        segments, tables = {}, {}
        try:
            table = np.random.default_rng(0).integers(
                0, 1 << 12, size=1 << 12, dtype=np.int64
            )
            ref = arena.publish(table)
            assert "packed" in ref
            view = pool_mod._table_view(segments, tables, ref)
            assert view.dtype == table.dtype
            assert view.tobytes() == table.tobytes()
            assert not view.flags.writeable
            # unpacked once per digest, then cached
            assert pool_mod._table_view(segments, tables, ref) is view
        finally:
            tables.clear()
            for segment in segments.values():
                segment.close()
            arena.close()

    def test_packed_page_is_smaller_and_shares_address(self):
        from repro.experiments import pool as pool_mod

        arena = pool_mod.TableArena()
        try:
            table = np.arange(1 << 12, dtype=np.int64)
            ref = arena.publish(table)
            again = arena.publish(table.copy())
            assert arena.bytes * 5 < table.nbytes
            # content addressing keys the *raw* bytes: idempotent publish
            assert again["name"] == ref["name"] and len(arena) == 1
        finally:
            arena.close()

    def test_signed_tables_stay_raw(self):
        from repro.experiments import pool as pool_mod

        arena = pool_mod.TableArena()
        try:
            table = np.arange(-32, 32, dtype=np.int64)
            ref = arena.publish(table)
            assert "packed" not in ref
        finally:
            arena.close()


class TestWeightedEligibility:
    """The widened gate: weighted distributions, dyadic certificates."""

    @settings(max_examples=25, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_dyadic_weighted_instances_engage_packed_byte_identical(self, data):
        n_inputs = data.draw(st.integers(5, 7), label="n_inputs")
        entries = 1 << n_inputs
        costs = _integer_costs(n_inputs, data.draw(st.integers(0, 99), label="f"))
        mant = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 255), min_size=entries, max_size=entries
                ),
                label="mantissas",
            ),
            dtype=np.float64,
        )
        shift = data.draw(st.integers(0, 24), label="shift")
        p = mant / float(1 << shift)
        # dyadic weights with a tiny magnitude bound: always provable
        assert ofp._packed_eligible(costs, p)
        on, off = _packed_vs_reference(costs, p, n_inputs, 3, 3, seed=5)
        for a, b in zip(on, off):
            _same_result(a, b)

    @settings(max_examples=15, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_arbitrary_distribution_packed_on_off_identical(self, data):
        """Eligible or not, packing must never change a byte."""
        n_inputs = 6
        costs = _integer_costs(n_inputs, data.draw(st.integers(0, 99), label="f"))
        mode = data.draw(
            st.sampled_from(["dyadic", "random", "sparse", "thirds"]),
            label="mode",
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        if mode == "dyadic":
            p = rng.integers(0, 1 << 12, size=1 << n_inputs).astype(np.float64)
            p /= 4096.0
        elif mode == "random":
            p = rng.random(1 << n_inputs)
            p /= p.sum()
        elif mode == "sparse":
            p = np.zeros(1 << n_inputs)
            p[rng.integers(0, 1 << n_inputs, size=4)] = 0.25
        else:
            p = np.full(1 << n_inputs, 1.0 / 3.0)
            p[0] = 2.0 / 3.0
        on, off = _packed_vs_reference(costs, p, n_inputs, 3, 3, seed=9)
        for a, b in zip(on, off):
            _same_result(a, b)

    def test_non_dyadic_weights_are_refused(self):
        """1/3 has a 53-bit odd mantissa: no exactness certificate."""
        costs = _integer_costs(6, seed=3)
        p = np.full(64, 1.0 / 3.0)
        p[0] = 2.0 / 3.0
        assert not ofp._packed_eligible(costs, p)

    def test_weighted_overflow_is_refused(self):
        """Weights whose *scaled* total leaves 2**52 bail out.

        Powers of two are exact at any magnitude (odd part 1), so the
        overflow probe needs large odd mantissas: (2**50 + 1)-sized
        weights put the scaled weighted total far beyond 2**52.
        """
        costs = _integer_costs(6, seed=4)
        p = np.full(64, 2.0**50 + 1.0)
        p[0] = 2.0**50 + 3.0  # non-constant: takes the weighted path
        assert not ofp._packed_eligible(costs, p)

    def test_power_of_two_magnitudes_stay_eligible(self):
        """Huge but dyadic-unit weights are exact in scaled units."""
        costs = _integer_costs(6, seed=4)
        p = np.full(64, float(1 << 50))
        p[0] = float(1 << 51)
        assert ofp._packed_eligible(costs, p)

    def test_uniform_stays_eligible_via_closed_form(self):
        costs = _integer_costs(8, seed=5)
        assert ofp._packed_eligible(costs, distributions.uniform(8))


class TestWeightPlanes:
    @settings(max_examples=50, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_masked_sum_is_exact(self, data):
        n = data.draw(st.integers(1, 130), label="n")
        weights = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 1 << 45), min_size=n, max_size=n
                ),
                label="weights",
            ),
            dtype=np.int64,
        )
        mask = np.asarray(
            data.draw(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                label="mask",
            ),
            dtype=np.uint8,
        )
        planes = WeightPlanes(weights)
        expected = sum(int(w) for w, b in zip(weights, mask) if b)
        assert planes.masked_sum(pack_bits(mask)) == expected
        assert planes.total() == sum(int(w) for w in weights)

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            WeightPlanes(np.array([1, -1]))
        with pytest.raises(ValueError):
            WeightPlanes(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            WeightPlanes(np.array([], dtype=np.int64))
