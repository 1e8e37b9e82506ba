"""Unit tests for BS-SA (Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.boolean import Partition, random_partition
from repro.core import (
    AlgorithmConfig,
    SearchStats,
    cost_vectors_fixed,
    find_best_settings,
    run_bssa,
)
from repro.core.bs_sa import _draw_patterns
from repro.metrics import distributions, med

from ..conftest import random_bits, random_function


def _costs(bits):
    bits = np.asarray(bits, dtype=np.int64)
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


class TestFindBestSettings:
    def test_returns_sorted_beam(self, rng, fast_config):
        n = 6
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        result = find_best_settings(costs, p, n, fast_config, rng, n_beam=3)
        errors = [s.error for s in result.settings]
        assert errors == sorted(errors)
        assert 1 <= len(result.settings) <= 3

    def test_respects_partition_budget(self, rng, fast_config):
        n = 6
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        stats = SearchStats()
        find_best_settings(costs, p, n, fast_config, rng, stats)
        assert stats.partitions_visited <= fast_config.partition_limit

    def test_distinct_partitions_in_beam(self, rng, fast_config):
        n = 6
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        result = find_best_settings(costs, p, n, fast_config, rng, n_beam=3)
        partitions = [s.decomposition.partition for s in result.settings]
        assert len(set(partitions)) == len(partitions)

    def test_collect_bto(self, rng, fast_config):
        n = 6
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        result = find_best_settings(
            costs, p, n, fast_config, rng, collect_bto=True
        )
        assert result.bto is not None
        assert result.bto.mode == "bto"
        # BTO restricts the search space, so it cannot beat the normal best
        assert result.bto.error >= result.best.error - 1e-12

    def test_no_bto_when_not_requested(self, rng, fast_config):
        n = 5
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        result = find_best_settings(costs, p, n, fast_config, rng)
        assert result.bto is None

    def test_random_search_variant(self, rng, fast_config):
        n = 6
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        result = find_best_settings(
            costs, p, n, fast_config, rng, partition_search="random"
        )
        assert result.settings

    def test_rejects_unknown_search(self, rng, fast_config):
        costs = _costs(random_bits(4, rng))
        with pytest.raises(ValueError):
            find_best_settings(
                costs,
                distributions.uniform(4),
                4,
                fast_config,
                rng,
                partition_search="tabu",
            )


class TestRunBssa:
    def test_complete_and_consistent(self, rng, fast_config):
        f = random_function(6, 4, rng)
        result = run_bssa(f, fast_config, rng=rng)
        assert result.sequence.is_complete()
        p = distributions.uniform(6)
        assert result.med == pytest.approx(med(f, result.approx_function, p))

    def test_round_history_non_increasing_with_monotone_guard(
        self, rng, fast_config
    ):
        f = random_function(6, 4, rng)
        result = run_bssa(f, fast_config, rng=rng)
        history = result.round_history
        assert len(history) == fast_config.rounds
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9

    def test_architecture_modes(self, rng, fast_config):
        f = random_function(6, 4, rng)
        result = run_bssa(f, fast_config, rng=rng, architecture="bto-normal-nd")
        modes = set(result.mode_counts())
        assert modes <= {"bto", "normal", "nd"}
        assert result.algorithm == "bs-sa/bto-normal-nd"

    def test_bto_normal_never_contains_nd(self, rng, fast_config):
        f = random_function(6, 4, rng)
        result = run_bssa(f, fast_config, rng=rng, architecture="bto-normal")
        assert "nd" not in result.mode_counts()

    def test_rejects_unknown_architecture(self, rng, fast_config):
        f = random_function(4, 2, rng)
        with pytest.raises(ValueError):
            run_bssa(f, fast_config, rng=rng, architecture="mystery")

    def test_rejects_unknown_lsb_model(self, rng, fast_config):
        f = random_function(4, 2, rng)
        with pytest.raises(ValueError):
            run_bssa(f, fast_config, rng=rng, lsb_model="psychic")

    def test_accurate_lsb_variant_runs(self, rng, fast_config):
        f = random_function(6, 3, rng)
        result = run_bssa(f, fast_config, rng=rng, lsb_model="accurate")
        assert result.sequence.is_complete()

    def test_seed_reproducibility(self, fast_config):
        f = random_function(6, 3, np.random.default_rng(5))
        a = run_bssa(f, fast_config.with_seed(21))
        b = run_bssa(f, fast_config.with_seed(21))
        assert a.med == pytest.approx(b.med)

    def test_single_round_config(self, rng):
        config = AlgorithmConfig.fast(seed=0)
        from dataclasses import replace

        config = replace(config, rounds=1)
        f = random_function(5, 3, rng)
        result = run_bssa(f, config, rng=rng)
        assert result.sequence.is_complete()
        assert len(result.round_history) == 1

    def test_single_round_with_architecture_still_selects_modes(self, rng):
        from dataclasses import replace

        config = replace(AlgorithmConfig.fast(seed=0), rounds=1)
        f = random_function(5, 3, rng)
        result = run_bssa(f, config, rng=rng, architecture="bto-normal")
        assert result.sequence.is_complete()
        # the forced mode-selection pass ran
        assert len(result.round_history) == 2

    def test_nd_modes_only_on_nd_architecture(self, rng, fast_config):
        f = random_function(6, 3, rng)
        normal = run_bssa(f, fast_config, rng=np.random.default_rng(0))
        assert set(normal.mode_counts()) == {"normal"}


class TestBeamSearchBehaviour:
    def test_wider_beam_does_not_hurt_much(self, rng):
        """Statistically, a wider beam should not be significantly worse.

        Run on a fixed function with shared seeds; we only require the
        wide beam to be no worse than 10% above the narrow beam (a
        generous guard against randomness while catching inversions
        from implementation bugs).
        """
        from dataclasses import replace

        f = random_function(7, 4, np.random.default_rng(42))
        base = AlgorithmConfig.fast(seed=3)
        meds = {}
        for width in (1, 3):
            cfg = replace(base, n_beam=width)
            runs = [
                run_bssa(f, cfg, rng=np.random.default_rng(seed)).med
                for seed in range(3)
            ]
            meds[width] = float(np.mean(runs))
        assert meds[3] <= meds[1] * 1.10


class TestMultiChainSA:
    def test_single_chain_unchanged(self, rng):
        """n_chains=1 must be bit-identical to the historical behaviour
        (this guards the refactor that introduced chains)."""
        from dataclasses import replace

        f = random_function(6, 3, np.random.default_rng(7))
        cfg = AlgorithmConfig.fast(seed=5)
        a = run_bssa(f, cfg, rng=np.random.default_rng(1)).med
        b = run_bssa(f, replace(cfg, n_chains=1), rng=np.random.default_rng(1)).med
        assert a == b

    def test_multi_chain_runs_and_respects_budget(self, rng, fast_config):
        from dataclasses import replace

        n = 6
        costs = _costs(random_bits(n, rng))
        p = distributions.uniform(n)
        cfg = replace(fast_config, n_chains=4)
        stats = SearchStats()
        result = find_best_settings(costs, p, n, cfg, rng, stats)
        assert result.settings
        assert stats.partitions_visited <= cfg.partition_limit

    def test_multi_chain_full_run(self, rng):
        from dataclasses import replace

        f = random_function(6, 3, np.random.default_rng(9))
        cfg = replace(AlgorithmConfig.fast(seed=3), n_chains=3)
        result = run_bssa(f, cfg, rng=np.random.default_rng(2))
        assert result.sequence.is_complete()

    def test_chain_validation(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(AlgorithmConfig.fast(), n_chains=0)


class TestStackedPatternDraw:
    """One stacked draw equals the per-item draws of the serial loop."""

    @staticmethod
    def _per_item(partitions, z, rng):
        return [
            rng.integers(0, 2, size=(z, part.n_cols), dtype=np.uint8)
            for part in partitions
        ]

    @staticmethod
    def _shipped_shapes():
        configs = (
            AlgorithmConfig.paper_bssa(),
            AlgorithmConfig.paper_dalta(),
            AlgorithmConfig.reduced(),
            AlgorithmConfig.fast(),
        )
        shapes = set()
        for config in configs:
            for n_inputs in range(4, 17):
                clamped = config.for_inputs(n_inputs)
                shapes.add(
                    (n_inputs, clamped.bound_size, clamped.n_initial_patterns)
                )
        return sorted(shapes)

    def test_every_shipped_shape_matches_per_item_draws(self):
        for n_inputs, bound_size, z in self._shipped_shapes():
            config = AlgorithmConfig(
                bound_size=bound_size, n_initial_patterns=z
            )
            parts = [
                random_partition(
                    n_inputs, bound_size, np.random.default_rng(i)
                )
                for i in range(5)
            ]
            stacked_rng = np.random.default_rng(n_inputs * 100 + bound_size)
            loop_rng = np.random.default_rng(n_inputs * 100 + bound_size)
            stacked = _draw_patterns(parts, config, stacked_rng)
            expected = self._per_item(parts, z, loop_rng)
            assert stacked.shape == (5, z, 1 << bound_size)
            assert stacked.tobytes() == np.stack(expected).tobytes()
            assert (
                stacked_rng.bit_generator.state == loop_rng.bit_generator.state
            )

    def test_odd_shape_takes_the_per_item_fallback(self):
        # Z * cols = 3 * 2 is not a whole number of 32-bit words: one
        # stacked draw would differ from the serial stream
        config = AlgorithmConfig(bound_size=1, n_initial_patterns=3)
        parts = [Partition((1,), (0,)), Partition((0,), (1,))] * 2
        stacked_rng = np.random.default_rng(5)
        loop_rng = np.random.default_rng(5)
        drawn = _draw_patterns(parts, config, stacked_rng)
        expected = np.stack(self._per_item(parts, 3, loop_rng))
        assert drawn.tobytes() == expected.tobytes()
        assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state
        one_draw = np.random.default_rng(5).integers(
            0, 2, size=(4, 3, 2), dtype=np.uint8
        )
        assert one_draw.tobytes() != expected.tobytes()

    def test_empty_batch_draws_nothing(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        drawn = _draw_patterns([], AlgorithmConfig.reduced(), rng)
        assert drawn.shape[0] == 0
        assert rng.bit_generator.state == state
