"""Serial reference loops: the oracle the batched search is judged against.

Production runs each search loop one way.  It takes a generation's
generator draws up front and evaluates the whole generation in one
stacked ``OptForPart`` call: an SA iteration's fresh neighbours, a
DALTA (or random-ablation) partition sample, an ND candidate set's
cofactor halves.  The loops here are the same algorithms written as the
paper states them: every partition or half gets its own
``opt_for_part`` call the moment the loop meets it, with its own
initial-pattern draw.  The differential suites require production to
be byte-identical to these loops, generator stream included.

* :func:`find_best_settings` — Algorithm 2 (SA walk and the
  ``partition_search="random"`` ablation);
* :func:`search_bit` — one DALTA bit (§II-B);
* :func:`optimize_nondisjoint`, :func:`optimize_nondisjoint_shared` and
  :func:`optimize_multi_shared` — the ND shared-bit enumeration
  (§IV-B1) and its multi-shared generalisation.

:func:`serial_search` swaps them into ``bs_sa`` and ``dalta`` so whole
``run_bssa``/``run_dalta`` runs (and everything built on them) take the
serial loops.  :func:`float_tier` is a test fake of the packed tier's
exactness gate: it refuses every instance, so eligible instances run
the float sweep too.
"""

from __future__ import annotations

import importlib
import math
from contextlib import contextmanager
from typing import List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.boolean import ops
from repro.boolean.decomposition import (
    MultiSharedDecomposition,
    NonDisjointDecomposition,
)
from repro.boolean.partition import Partition, partition_count, random_partition
from repro.core.cost import BitCosts
from repro.core.nondisjoint import MultiSharedResult, NonDisjointResult
from repro.core.opt_for_part import opt_for_part, opt_for_part_bto
from repro.core.result import SearchStats
from repro.core.settings import Setting

# the package re-exports functions under some of these modules' names
_bs_sa = importlib.import_module("repro.core.bs_sa")
_dalta = importlib.import_module("repro.core.dalta")
_ofp = importlib.import_module("repro.core.opt_for_part")


# ----------------------------------------------------------------------
# Algorithm 2 and DALTA's bit step
# ----------------------------------------------------------------------


def find_best_settings(
    costs: BitCosts,
    p: np.ndarray,
    n_inputs: int,
    config,
    rng: np.random.Generator,
    stats: Optional[SearchStats] = None,
    *,
    n_beam: Optional[int] = None,
    collect_bto: bool = False,
    partition_search: str = "sa",
):
    """Serial Algorithm 2: one ``opt_for_part`` call per new partition."""
    if partition_search not in ("sa", "random"):
        raise ValueError(f"unknown partition_search {partition_search!r}")
    if stats is None:
        stats = SearchStats()
    capacity = config.n_beam if n_beam is None else n_beam
    beam: List[Setting] = []
    best_bto: Optional[Setting] = None
    budget = min(config.partition_limit, partition_count(n_inputs, config.bound_size))

    def visit(partition: Partition) -> float:
        nonlocal best_bto
        result = opt_for_part(
            costs,
            p,
            partition,
            n_inputs,
            n_initial_patterns=config.n_initial_patterns,
            rng=rng,
        )
        stats.opt_for_part_calls += 1
        beam.append(Setting(result.error, result.decomposition))
        beam.sort(key=lambda setting: setting.error)
        del beam[capacity:]
        if collect_bto:
            bto = opt_for_part_bto(costs, p, partition, n_inputs)
            if best_bto is None or bto.error < best_bto.error:
                best_bto = Setting(bto.error, bto.decomposition)
        return result.error

    if partition_search == "random":
        sampled = set()
        attempts = 0
        while len(sampled) < budget and attempts < 20 * budget:
            attempts += 1
            partition = random_partition(n_inputs, config.bound_size, rng)
            if partition in sampled:
                continue
            sampled.add(partition)
            visit(partition)
        stats.partitions_visited += len(sampled)
        return _bs_sa.FindBestSettingsResult(beam, best_bto)

    visited: dict = {}
    best_error = math.inf
    chains: List[dict] = []
    for _ in range(config.n_chains):
        if len(visited) >= budget:
            break
        start = random_partition(n_inputs, config.bound_size, rng)
        if start not in visited:
            visited[start] = visit(start)
        error = visited[start]
        best_error = min(best_error, error)
        chains.append(
            {
                "current": start,
                "error": error,
                "temperature": config.initial_temperature,
            }
        )
    stall = 0
    while len(visited) < budget and chains:
        changed = False
        for chain in chains:
            if len(visited) >= budget:
                break
            neighbours = chain["current"].sample_neighbours(config.n_neighbours, rng)
            stats.sa_iterations += 1
            best_nb: Optional[Partition] = None
            best_nb_error = math.inf
            for neighbour in neighbours:
                if neighbour not in visited:
                    if len(visited) >= budget:
                        break
                    error = visit(neighbour)
                    visited[neighbour] = error
                    changed = True
                    if error < best_error:
                        best_error = error
                else:
                    error = visited[neighbour]
                if error < best_nb_error:
                    best_nb, best_nb_error = neighbour, error
            if best_nb is not None:
                if best_nb_error <= chain["error"]:
                    chain["current"], chain["error"] = best_nb, best_nb_error
                else:
                    denom = chain["temperature"] * best_error
                    if denom > 0:
                        accept = math.exp((chain["error"] - best_nb_error) / denom)
                    else:
                        accept = 0.0
                    if rng.random() < accept:
                        chain["current"], chain["error"] = best_nb, best_nb_error
            chain["temperature"] *= config.cooling_factor
        stall = stall + 1 if not changed else 0
        if stall >= config.stall_iterations:
            break
        if best_error == 0.0:
            break
    stats.partitions_visited += len(visited)
    return _bs_sa.FindBestSettingsResult(beam, best_bto)


def search_bit(
    costs: BitCosts,
    p: np.ndarray,
    n_inputs: int,
    config,
    rng: np.random.Generator,
    stats: SearchStats,
) -> Setting:
    """Serial DALTA bit: draw a partition, optimise it, keep the best."""
    budget = min(config.partition_limit, partition_count(n_inputs, config.bound_size))
    best: Optional[Setting] = None
    seen = set()
    attempts = 0
    while len(seen) < budget and attempts < 20 * budget:
        attempts += 1
        partition = random_partition(n_inputs, config.bound_size, rng)
        if partition in seen:
            continue
        seen.add(partition)
        result = opt_for_part(
            costs,
            p,
            partition,
            n_inputs,
            n_initial_patterns=config.n_initial_patterns,
            rng=rng,
        )
        stats.opt_for_part_calls += 1
        if best is None or result.error < best.error:
            best = Setting(result.error, result.decomposition)
    stats.partitions_visited += len(seen)
    return best


# ----------------------------------------------------------------------
# Non-disjoint decomposition (Eq. (2)): one OptForPart call per cofactor
# ----------------------------------------------------------------------


def _cofactors(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    shared: Tuple[int, ...],
):
    """The reduced partition and, per shared assignment, its half problem."""
    kept = [v for v in range(n_inputs) if v not in shared]
    renumber = {v: i for i, v in enumerate(kept)}
    reduced = Partition(
        tuple(renumber[v] for v in partition.free),
        tuple(renumber[v] for v in partition.bound if v not in shared),
    )
    words = ops.deposit_bits(ops.all_inputs(len(kept)), kept)
    halves = []
    for j in range(1 << len(shared)):
        assignment = sum(((j >> i) & 1) << v for i, v in enumerate(shared))
        full = words | assignment
        half_costs = BitCosts(costs.k, costs.cost0[full], costs.cost1[full])
        halves.append((half_costs, np.asarray(p, dtype=np.float64)[full]))
    return reduced, halves


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
    """Serial ND for one shared bit: ``opt_for_part`` on each half."""
    if shared not in partition.bound:
        raise ValueError(f"shared variable {shared} not in bound set")
    if partition.n_bound < 2:
        raise ValueError("non-disjoint decomposition needs a bound set of size >= 2")
    reduced, halves = _cofactors(costs, p, partition, n_inputs, (shared,))
    results = []
    total_error = 0.0
    for half_costs, weights in halves:
        result = opt_for_part(
            half_costs,
            weights,
            reduced,
            n_inputs - 1,
            n_initial_patterns=n_initial_patterns,
            rng=rng,
        )
        results.append(result)
        total_error += result.error
    decomposition = NonDisjointDecomposition(
        partition,
        shared,
        results[0].pattern,
        results[0].types,
        results[1].pattern,
        results[1].types,
    )
    return NonDisjointResult(total_error, decomposition)


def optimize_nondisjoint(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    shared_candidates=None,
) -> NonDisjointResult:
    """Serial shared-bit enumeration; the first strictly best wins."""
    candidates = (
        tuple(shared_candidates) if shared_candidates is not None else partition.bound
    )
    best: Optional[NonDisjointResult] = None
    for shared in candidates:
        result = optimize_nondisjoint_shared(
            costs,
            p,
            partition,
            n_inputs,
            shared,
            n_initial_patterns=n_initial_patterns,
            rng=rng,
        )
        if best is None or result.error < best.error:
            best = result
    return best


def optimize_multi_shared(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    shared,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> MultiSharedResult:
    """Serial multi-shared ND: ``opt_for_part`` on each of the 2**s cofactors."""
    shared = tuple(sorted(int(v) for v in shared))
    reduced, halves = _cofactors(costs, p, partition, n_inputs, shared)
    patterns, types = [], []
    total_error = 0.0
    for half_costs, weights in halves:
        result = opt_for_part(
            half_costs,
            weights,
            reduced,
            n_inputs - len(shared),
            n_initial_patterns=n_initial_patterns,
            rng=rng,
        )
        patterns.append(result.pattern)
        types.append(result.types)
        total_error += result.error
    decomposition = MultiSharedDecomposition(
        partition, shared, tuple(patterns), tuple(types)
    )
    return MultiSharedResult(total_error, decomposition)


# ----------------------------------------------------------------------
# Swapping the oracle in, forcing the float tier, comparing results
# ----------------------------------------------------------------------


@contextmanager
def serial_search():
    """Run ``run_bssa``/``run_dalta`` (and their callers) on the serial loops."""
    with mock.patch.object(_bs_sa, "find_best_settings", find_best_settings), \
            mock.patch.object(_bs_sa, "optimize_nondisjoint", optimize_nondisjoint), \
            mock.patch.object(_dalta, "search_bit", search_bit):
        yield


@contextmanager
def float_tier():
    """Make the exactness gate refuse every instance (a test fake).

    Every ``OptForPart`` call inside the block runs the float sweep, the
    tier production reserves for instances the gate refuses.
    """
    with mock.patch.object(_ofp, "_packed_mode", lambda costs, p: None):
        yield


def same_result(a, b) -> None:
    """Assert two results or settings are byte-identical."""
    assert a.error == b.error
    assert decomposition_fingerprint(a.decomposition) == decomposition_fingerprint(
        b.decomposition
    )


def decomposition_fingerprint(decomposition) -> tuple:
    """Every observable field of a decomposition, as bytes-safe data."""
    entry = [
        decomposition.mode,
        type(decomposition).__name__,
        decomposition.partition.free,
        decomposition.partition.bound,
        getattr(decomposition, "shared", None),
    ]
    for name in (
        "pattern", "types", "patterns", "pattern0", "types0", "pattern1", "types1"
    ):
        value = getattr(decomposition, name, None)
        if isinstance(value, tuple):
            entry.append((name, tuple(vector.tobytes() for vector in value)))
        elif value is not None:
            entry.append((name, value.tobytes()))
    return tuple(entry)


def run_fingerprint(result) -> list:
    """Everything observable about a full algorithm run, as bytes-safe data."""
    out = [result.algorithm, float(result.med), tuple(result.round_history)]
    for setting in result.sequence.settings:
        if setting is None:
            out.append(None)
            continue
        out.append(
            (float(setting.error),) + decomposition_fingerprint(setting.decomposition)
        )
    out.append(vars(result.stats).copy())
    return out
