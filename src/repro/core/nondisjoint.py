"""Approximate non-disjoint decomposition (paper §IV-B1).

A non-disjoint decomposition ``f(X) = F(φ(B), A, x_s)`` shares one
bound variable ``x_s`` with the free part.  By Eq. (2) of the paper,
minimising its MED is equivalent to independently minimising the MEDs
of the two cofactor functions ``t_0 = t|x_s=0`` and ``t_1 = t|x_s=1``
under the corresponding conditional input distributions — each a plain
disjoint-decomposition problem over ``X \\ {x_s}`` that ``OptForPart``
solves.

The shared bit is unknown a priori; :func:`optimize_nondisjoint`
enumerates every bound variable and keeps the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..boolean import ops
from ..boolean.decomposition import MultiSharedDecomposition, NonDisjointDecomposition
from ..boolean.partition import Partition
from .cost import BitCosts
from .opt_for_part import KernelRequest, opt_for_part_grouped

__all__ = [
    "NonDisjointResult",
    "MultiSharedResult",
    "optimize_nondisjoint",
    "optimize_nondisjoint_shared",
    "optimize_multi_shared",
]


@dataclass(frozen=True)
class NonDisjointResult:
    """Best non-disjoint decomposition found for a partition."""

    error: float
    decomposition: NonDisjointDecomposition

    @property
    def shared(self) -> int:
        return self.decomposition.shared


def _reduced_partition(partition: Partition, shared: int) -> Partition:
    """Partition over the reduced variable numbering (``x_s`` deleted)."""

    def shift(v: int) -> int:
        return v - 1 if v > shared else v

    return Partition(
        tuple(shift(v) for v in partition.free),
        tuple(shift(v) for v in partition.bound if v != shared),
    )


def _half_problem(
    costs: BitCosts,
    p: np.ndarray,
    reduced_words: np.ndarray,
    keep: List[int],
    assignment: int,
) -> Tuple[BitCosts, np.ndarray]:
    """Conditional cost vectors + weights for one shared-bit assignment.

    ``assignment`` is the already-positioned shared-bit value (e.g.
    ``j << shared``); the reduced input words are scattered over
    ``keep`` and OR-ed with it, selecting the cofactor slice of the
    cost vectors and the (unnormalised) conditional distribution.
    """
    full = ops.deposit_bits(reduced_words, keep) | assignment
    half_costs = BitCosts(costs.k, costs.cost0[full], costs.cost1[full])
    weights = np.asarray(p, dtype=np.float64)[full]
    return half_costs, weights


def optimize_nondisjoint_shared(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    shared: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> NonDisjointResult:
    """Optimal ND decomposition for a *given* shared bound variable.

    Splits the per-input cost vectors by the value of ``x_s`` and
    solves the two conditional disjoint problems; the reported error is
    the sum of the two conditional (probability-weighted, unnormalised)
    errors, i.e. exactly the total MED contribution of this output bit.
    This is :func:`optimize_nondisjoint` with ``shared`` as the only
    candidate.
    """
    return optimize_nondisjoint(
        costs,
        p,
        partition,
        n_inputs,
        n_initial_patterns=n_initial_patterns,
        rng=rng,
        shared_candidates=(shared,),
    )


def optimize_nondisjoint(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    shared_candidates: Optional[Iterable[int]] = None,
) -> NonDisjointResult:
    """Enumerate shared-bit choices over the bound set, keep the best.

    ``shared_candidates`` restricts the enumeration (defaults to the
    full bound set, as the paper does).

    The enumeration is *grouped*: every half's initial patterns are
    drawn candidate-major, half-minor — the order of a loop calling
    ``opt_for_part`` per half — every conditional half problem becomes a
    :class:`~repro.core.opt_for_part.KernelRequest`, and all
    ``2 * len(candidates)`` halves run in one
    :func:`~repro.core.opt_for_part.opt_for_part_grouped` pass.  Strict
    ``<`` keeps the first-best tie-breaking.  Without an ``rng`` the
    draws come from one fresh ``np.random.default_rng()``.
    """
    candidates = (
        tuple(shared_candidates) if shared_candidates is not None else partition.bound
    )
    if not candidates:
        raise ValueError("at least one shared-bit candidate is required")
    for shared in candidates:
        if shared not in partition.bound:
            raise ValueError(f"shared variable {shared} not in bound set")
    if partition.n_bound < 2:
        raise ValueError(
            "non-disjoint decomposition needs a bound set of size >= 2 "
            "(removing the shared bit must leave a non-empty bound table)"
        )
    if n_initial_patterns < 1:
        raise ValueError("n_initial_patterns must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    reduced_words = ops.all_inputs(n_inputs - 1)
    requests: List[KernelRequest] = []
    for shared in candidates:
        reduced = _reduced_partition(partition, shared)
        keep = [i for i in range(n_inputs) if i != shared]
        for j in (0, 1):
            patterns = rng.integers(
                0, 2, size=(n_initial_patterns, reduced.n_cols), dtype=np.uint8
            )
            half_costs, weights = _half_problem(
                costs, p, reduced_words, keep, j << shared
            )
            requests.append(
                KernelRequest(
                    half_costs, weights, [reduced], n_inputs - 1, patterns[None]
                )
            )
    evaluated = opt_for_part_grouped(requests)
    best: Optional[NonDisjointResult] = None
    for index, shared in enumerate(candidates):
        half0 = evaluated[2 * index][0]
        half1 = evaluated[2 * index + 1][0]
        error = half0.error + half1.error
        if best is None or error < best.error:
            decomposition = NonDisjointDecomposition(
                partition,
                shared,
                half0.decomposition.pattern,
                half0.decomposition.types,
                half1.decomposition.pattern,
                half1.decomposition.types,
            )
            best = NonDisjointResult(error, decomposition)
    assert best is not None
    return best


@dataclass(frozen=True)
class MultiSharedResult:
    """Best generalised (multi-shared-bit) decomposition found."""

    error: float
    decomposition: MultiSharedDecomposition

    @property
    def shared(self) -> Tuple[int, ...]:
        return self.decomposition.shared


def optimize_multi_shared(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    shared: Iterable[int],
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> MultiSharedResult:
    """Optimal generalised ND decomposition for a given shared set ``C``.

    Extends the paper's Eq. (2) to ``|C| = s`` shared bits: the total
    MED splits into ``2**s`` conditional disjoint problems over
    ``X \\ C``, each solved independently by ``OptForPart``.  Costs grow
    as ``2**s`` free tables, which is exactly why the paper stops at
    ``s = 1``; this function exists to quantify that trade-off (see the
    ``bench_ablations`` shared-bits study).
    """
    shared = tuple(sorted(int(v) for v in shared))
    if not shared:
        raise ValueError("at least one shared variable is required")
    for v in shared:
        if v not in partition.bound:
            raise ValueError(f"shared variable {v} not in bound set")
    if len(shared) >= partition.n_bound:
        raise ValueError("|C| must be smaller than the bound set")

    shared_set = set(shared)

    def shift(v: int) -> int:
        return v - sum(1 for s in shared if s < v)

    reduced = Partition(
        tuple(shift(v) for v in partition.free),
        tuple(shift(v) for v in partition.bound if v not in shared_set),
    )
    keep = [i for i in range(n_inputs) if i not in shared_set]
    reduced_words = ops.all_inputs(n_inputs - len(shared))

    if n_initial_patterns < 1:
        raise ValueError("n_initial_patterns must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    # draw each cofactor's patterns in cofactor order (a per-cofactor
    # opt_for_part loop's stream) and solve all 2**s conditional
    # problems in one grouped kernel pass
    requests = []
    for j in range(1 << len(shared)):
        assignment = ops.deposit_bits(np.int64(j), shared)
        draw = rng.integers(
            0, 2, size=(n_initial_patterns, reduced.n_cols), dtype=np.uint8
        )
        half_costs, weights = _half_problem(
            costs, p, reduced_words, keep, assignment
        )
        requests.append(
            KernelRequest(
                half_costs,
                weights,
                [reduced],
                n_inputs - len(shared),
                draw[None],
            )
        )
    patterns = []
    types = []
    total_error = 0.0
    for (result,) in opt_for_part_grouped(requests):
        patterns.append(result.decomposition.pattern)
        types.append(result.decomposition.types)
        total_error += result.error
    decomposition = MultiSharedDecomposition(
        partition, shared, tuple(patterns), tuple(types)
    )
    return MultiSharedResult(total_error, decomposition)
