"""DALTA's heuristic approximate-decomposition algorithm (baseline).

Re-implemented from the paper's description (§II-B): the algorithm
optimises the output bits from MSB to LSB for ``R`` rounds.  For each
bit it draws ``P`` random variable partitions, runs ``OptForPart`` on
each, and greedily keeps the single best setting.  In the first round
the not-yet-optimised LSBs are fixed to their *accurate* versions
(the model the paper's §III-B improves upon).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..boolean.function import BooleanFunction
from ..boolean.partition import Partition, partition_count, random_partition
from ..metrics import distributions
from .config import AlgorithmConfig
from .cost import BitCosts, apply_objective, cost_vectors_fixed
from .opt_for_part import memo_context, opt_for_part_many
from .result import ApproximationResult, SearchStats
from .settings import Setting, SettingSequence

__all__ = ["run_dalta", "search_bit", "sample_partitions"]


def sample_partitions(
    n_inputs: int,
    bound_size: int,
    budget: int,
    n_initial_patterns: int,
    rng: np.random.Generator,
) -> Tuple[List[Partition], np.ndarray]:
    """DALTA's random partition sample, with each one's initial patterns.

    Draws up to ``budget`` distinct random partitions (giving up after
    ``20 * budget`` attempts), each followed at once by its ``(Z, cols)``
    initial-pattern draw — the generator order of a loop that runs
    ``opt_for_part`` on every partition as soon as it is drawn.  Returns
    the partitions and their patterns stacked ``(N, Z, cols)``, ready for
    one ``opt_for_part_many`` call whose results equal that loop's.
    """
    partitions: List[Partition] = []
    seen = set()
    drawn = np.empty((budget, n_initial_patterns, 1 << bound_size), dtype=np.uint8)
    attempts = 0
    while len(partitions) < budget and attempts < 20 * budget:
        attempts += 1
        partition = random_partition(n_inputs, bound_size, rng)
        if partition in seen:
            continue
        seen.add(partition)
        drawn[len(partitions)] = rng.integers(
            0, 2, size=(n_initial_patterns, partition.n_cols), dtype=np.uint8
        )
        partitions.append(partition)
    return partitions, drawn[: len(partitions)]


def search_bit(
    costs: BitCosts,
    p: np.ndarray,
    n_inputs: int,
    config: AlgorithmConfig,
    rng: np.random.Generator,
    stats: SearchStats,
) -> Setting:
    """One DALTA bit: ``OptForPart`` on ``P`` random partitions, keep the best.

    The whole sample runs through one stacked ``opt_for_part_many``
    call; the first of equal-error settings wins.
    """
    budget = min(config.partition_limit, partition_count(n_inputs, config.bound_size))
    partitions, drawn = sample_partitions(
        n_inputs, config.bound_size, budget, config.n_initial_patterns, rng
    )
    results = opt_for_part_many(
        costs,
        p,
        partitions,
        n_inputs,
        memo=memo_context(costs, p),
        initial_patterns=drawn,
    )
    if partitions:
        obs.incr("dalta.partitions_evaluated", len(partitions))
    stats.opt_for_part_calls += len(partitions)
    stats.partitions_visited += len(partitions)
    best: Optional[Setting] = None
    for result in results:
        if best is None or result.error < best.error:
            best = Setting(result.error, result.decomposition)
    return best


def run_dalta(
    target: BooleanFunction,
    config: Optional[AlgorithmConfig] = None,
    p: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> ApproximationResult:
    """Run DALTA's greedy algorithm on ``target``.

    Parameters
    ----------
    target:
        The accurate function ``G``.
    config:
        Hyperparameters; ``partition_limit`` is the paper's ``P``.
        Defaults to :meth:`AlgorithmConfig.paper_dalta` clamped to the
        function's input width.
    p:
        Input distribution (uniform when omitted).
    rng:
        Random generator; overrides ``config.seed`` when given.
    """
    start = time.perf_counter()
    if config is None:
        config = AlgorithmConfig.paper_dalta()
    config = config.for_inputs(target.n_inputs)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if p is None:
        p = distributions.uniform(target.n_inputs)
    else:
        p = distributions.validate(p, target.n_inputs)

    stats = SearchStats()
    sequence = SettingSequence(target.n_outputs)
    history = []

    with obs.span(
        "dalta.run",
        benchmark=target.name,
        n_inputs=target.n_inputs,
        n_outputs=target.n_outputs,
    ):
        for round_index in range(config.rounds):
            with obs.span("dalta.round", round=round_index + 1):
                for k in range(target.n_outputs - 1, -1, -1):
                    with obs.span("dalta.bit", bit=k):
                        # Fixed-context costs: unoptimised bits read as
                        # accurate (round 1), optimised bits as their
                        # latest versions.
                        rest = sequence.rest_word(target, k)
                        costs = apply_objective(
                            cost_vectors_fixed(target, rest, k),
                            config.objective,
                        )
                        best_setting = search_bit(
                            costs, p, target.n_inputs, config, rng, stats
                        )
                        sequence = sequence.replace(k, best_setting)
            history.append(sequence.med(target, p))

    elapsed = time.perf_counter() - start
    return ApproximationResult(
        algorithm="dalta",
        target=target,
        sequence=sequence,
        med=sequence.med(target, p),
        elapsed_seconds=elapsed,
        stats=stats,
        round_history=history,
    )
