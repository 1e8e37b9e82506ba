"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boolean import BooleanFunction, Partition
from repro.core import AlgorithmConfig, cost_vectors_fixed

from .oracle.serial import float_tier


@pytest.fixture
def rng():
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(params=["packed", "float"])
def kernel_tier(request):
    """Run the test on the packed tier, then again on the float sweep.

    Eligible instances take the packed sweep by default; the ``float``
    run forces the float sweep through the oracle's gate fake.
    """
    if request.param == "packed":
        yield request.param
        return
    with float_tier():
        yield request.param


@pytest.fixture
def fast_config():
    """Tiny algorithm budgets for quick end-to-end runs."""
    return AlgorithmConfig.fast(seed=7)


def random_function(
    n_inputs: int, n_outputs: int, rng: np.random.Generator, name: str = "rand"
) -> BooleanFunction:
    """A uniformly random multi-output Boolean function."""
    table = rng.integers(0, 1 << n_outputs, size=1 << n_inputs, dtype=np.int64)
    return BooleanFunction(n_inputs, n_outputs, table, name=name)


def random_bits(n_inputs: int, rng: np.random.Generator) -> np.ndarray:
    """A random single-output truth table (0/1 vector)."""
    return rng.integers(0, 2, size=1 << n_inputs, dtype=np.int64)


def integer_costs(n_inputs: int, seed: int):
    """Integer 0/1 cost vectors of a random single-output function."""
    bits = random_bits(n_inputs, np.random.default_rng(seed))
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


def small_partition(n_inputs: int = 4, bound: int = 2) -> Partition:
    """The canonical low-bits-bound partition used in many tests."""
    return Partition(tuple(range(bound, n_inputs)), tuple(range(bound)))
