"""``OptForPart``: optimise (V, T) for a fixed variable partition.

This is the inner kernel both DALTA and BS-SA spend most of their time
in (paper §II-B).  Given the weighted cost matrices of assigning the
output bit to 0/1 for every (row, column) of the 2D truth table, it
alternately optimises

* the type vector ``T`` given the pattern vector ``V`` — each row
  independently picks the cheapest of the four row types, and
* the pattern vector ``V`` given ``T`` — each column independently
  picks the bit minimising the cost over the type-3/type-4 rows,

starting from ``Z`` random initial pattern vectors and keeping the best
local optimum.  Both half-steps are exact, so the alternation is
monotonically non-increasing and terminates.

The BTO variant (§IV-A) restricts ``T`` to all type-3 rows; the optimal
``V`` is then found exactly in a single pass, no random restarts
needed.

Performance layer (see ``docs/performance.md``)
-----------------------------------------------
Every entry point runs one chunk engine (:func:`_grouped_eval`), and
three amortisations keep every output bit identical while cutting the
wall clock of the search loops:

* an :class:`OptMemo` context per ``(costs, p)`` pair holds what
  depends only on the pair — the packed-tier verdict, the weighted
  cost vectors, the pre-differenced weight grid — so kernel calls skip
  the per-context set-up;
* each item's table is one ``take`` through the cached gather index of
  :func:`repro.boolean.truth_table.gather_index`, written straight
  into the chunk's stacked cost array;
* a whole batch of same-shape partitions (SA neighbours, DALTA
  samples) runs through one stacked alternation — NumPy's stacked
  ``matmul`` runs the identical BLAS kernel per slice, so each item's
  result is bitwise equal to a standalone call, and converged items
  are frozen at exactly the sweep where the serial loop would stop.

No variant memoises results.  A result memo keyed by ``(costs, p,
partition)`` never hit on the Table-II or Fig-5/6 campaigns or on serve
traffic, and a replayed job is skipped whole by the checkpoint store or
the serve artifact cache.

Bit-packed kernel tier
----------------------
On top of the batching, a packed fast sweep engages whenever the
instance passes the *dyadic-exactness* gate of :func:`_packed_mode`:
integer-valued cost vectors together with an input distribution whose
weights all scale to integers on one dyadic unit ``2**U``, small
enough that every intermediate the kernel forms is an integer multiple
of ``2**(U-1)`` below 2**53.  Constant distributions (the protocol
default) pass through a closed-form bound; general weighted
distributions are admitted by computing the exact integer total
``sum_i (cost0_i + cost1_i) * w_i`` through per-bit weighted popcounts
over packed bit-planes (:class:`repro.boolean.packed.WeightPlanes`) —
integer accumulation, so the verdict itself never rounds.  Under that
gate every float64 the sweep produces is exact, so the algebraically
restructured half-steps (:class:`_PackedSweep`) — complement costs
from hoisted row sums instead of two extra matmuls, zero-costs from
one shared-sum matmul, pairwise type selection with float-sweep
tie-breaking — return bit-for-bit the float sweep's patterns, types,
and totals while running a fraction of its work.  Instances the gate
refuses (weights that need more than 52 bits on a common scale, such
as a truncated Gaussian; fractional costs) take the float sweep
(:func:`_alternate_batch`), the single fallback.  The tier
differentials under ``tests/core/`` pin the equivalence by forcing the
float sweep on eligible instances.

Grouped evaluation
------------------
:func:`opt_for_part_grouped` evaluates a *list* of
:class:`KernelRequest` batches — possibly from different ``(costs,
p)`` contexts — in one pass: items are grouped by table shape and
eligibility and executed in chunks up to ``_BATCH_LIMIT`` wide, each
item bitwise equal to its standalone call.  The nondisjoint search
uses it to evaluate all of a candidate's halves in one dispatch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..boolean.decomposition import (
    BoundOnlyDecomposition,
    DisjointDecomposition,
    RowType,
)
from ..boolean.packed import WeightPlanes, pack_bits
from ..boolean.partition import Partition
from ..boolean.truth_table import gather_index, to_matrix
from .cost import BitCosts

__all__ = [
    "OptForPartResult",
    "OptMemo",
    "KernelRequest",
    "memo_context",
    "opt_for_part",
    "opt_for_part_many",
    "opt_for_part_grouped",
    "opt_for_part_bto",
    "opt_for_part_exhaustive",
    "opt_for_part_exhaustive_many",
]

#: safety cap on alternation sweeps; convergence is typically < 10
_DEFAULT_MAX_SWEEPS = 60

#: stacked-batch size cap: bounds peak memory of the (B, rows, cols)
#: cost stacks without measurably hurting the amortisation
_BATCH_LIMIT = 64

#: active batches at or below this size ride their converged items to
#: the end instead of compacting (measured on the Table-II search
#: chunks, 4-8 items wide at 32 x 128 tables)
_COMPACT_MIN = 16

# RowType values hoisted to plain ints: enum attribute lookups show up
# in kernel profiles (they run once per row-mask per sweep per call)
_T_ZERO = int(RowType.ALL_ZERO)
_T_ONE = int(RowType.ALL_ONE)
_T_PATTERN = int(RowType.PATTERN)
_T_COMPLEMENT = int(RowType.COMPLEMENT)

@dataclass(frozen=True)
class OptForPartResult:
    """Outcome of ``OptForPart`` for one partition.

    ``error`` is the probability-weighted total cost (the MED, or the
    model-predicted MED in round 1) of the returned decomposition.
    """

    error: float
    decomposition: DisjointDecomposition

    @property
    def partition(self) -> Partition:
        return self.decomposition.partition

    @property
    def pattern(self) -> np.ndarray:
        return self.decomposition.pattern

    @property
    def types(self) -> np.ndarray:
        return self.decomposition.types


class OptMemo:
    """The kernel context of one ``(costs, p)`` pair.

    Created by :func:`memo_context`.  Everything here depends only on
    the pair, so it is computed once per search context instead of once
    per kernel call: the packed-tier eligibility verdict, the weighted
    cost vectors, and the packed sweep's pre-differenced weight grid
    and its ``w0.sum()`` offset.  It holds no results.  The callers
    (``find_best_settings``, DALTA's bit loop) own the arrays for the
    duration, so the cached values stay valid.
    """

    __slots__ = (
        "costs", "p", "packed_ok", "packed_mode", "_weights", "_packed_grid",
    )

    def __init__(self, costs: BitCosts, p: np.ndarray) -> None:
        self.costs = costs
        self.p = p
        # lazily cached packed-tier eligibility verdict (and precision
        # tier) for the bound (costs, p) pair — see _packed_mode_engaged()
        self.packed_ok: Optional[bool] = None
        self.packed_mode: Optional[str] = None
        self._weights: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._packed_grid: Optional[Tuple[np.ndarray, float]] = None

    def weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """The weighted cost vectors ``costs.weighted(p)``."""
        if self._weights is None:
            self._weights = self.costs.weighted(self.p)
        return self._weights

    def packed_grid(self, mode: str) -> Tuple[np.ndarray, float]:
        """``(w1 - w0, w0.sum())`` for the packed sweep's relative mode.

        The packed sweep consumes only ``diff = d1 - d0`` (gathered from
        this pre-differenced vector, half the gather work) plus each
        item's *total* zero cost — one scalar, since the per-row zero
        costs cancel out of every comparison and re-enter the totals as
        one exact offset.  ``w0.sum()`` is exact under the gate (an
        integer multiple of the common dyadic unit, below the overflow
        bound), so the re-based totals are bit-equal to building the
        matrices and reducing them.  In the f32 tier the vector is
        pre-cast once — exact (the gate bounds every value below 2**24
        in units) and the per-item gathers move half the bytes.
        """
        if self._packed_grid is None:
            w0, w1 = self.weights()
            wdiff = w1 - w0
            if mode == "f32":
                wdiff = wdiff.astype(np.float32)
            self._packed_grid = (wdiff, float(w0.sum()))
        return self._packed_grid


def memo_context(costs: BitCosts, p: np.ndarray) -> OptMemo:
    """Bind ``(costs, p)`` into a kernel context for the search loops.

    Only create one when the cost vectors and distribution are immutable
    for the lifetime of the handle (the per-bit search loops satisfy
    this: they build fresh cost vectors per context and never write to
    ``p``).
    """
    return OptMemo(costs, p)


def _cost_matrices(
    costs: BitCosts, p: np.ndarray, partition: Partition, n_inputs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted (rows × cols) cost matrices for bit values 0 and 1."""
    w0, w1 = costs.weighted(p)
    d0 = to_matrix(w0, partition, n_inputs)
    d1 = to_matrix(w1, partition, n_inputs)
    return d0, d1


# ----------------------------------------------------------------------
# The two exact half-steps, batched over a leading partition axis.
#
# Bit-exactness contract: every float reduction below goes through the
# same NumPy kernels whether the batch holds 1 item or 64 — stacked
# matmul dispatches the identical BLAS call per slice, and axis sums
# reduce each slice in the same order — so a batch item's numbers are
# bitwise equal to a standalone evaluation.  The single-partition
# wrappers run the batch code with B = 1, keeping one code path.
# ----------------------------------------------------------------------


def _row_sums(d0: np.ndarray, d1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row all-0 / all-1 costs ``(B, rows)`` — sweep-invariant."""
    return d0.sum(axis=2), d1.sum(axis=2)


class _SweepScratch:
    """Reusable ``(B, Z, cols)`` work buffers for the alternation loop.

    The sweep temporaries at paper scale (e.g. Z = 30, 2**b = 512
    columns, a handful of batched partitions) are large enough that
    fresh allocations fall through to mmap on every sweep; writing the
    intermediates into preallocated buffers via ``out=`` keeps the loop
    off that cliff.  ``out=`` changes where results land, never their
    bits.
    """

    __slots__ = ("f1", "f2", "f3", "pb", "st", "g1", "g2")

    def __init__(self, batch: int, z: int, cols: int, rows: int) -> None:
        self.f1 = np.empty((batch, z, cols))
        self.f2 = np.empty((batch, z, cols))
        self.f3 = np.empty((batch, z, cols))
        self.pb = np.empty((batch, z, cols), dtype=bool)
        # candidate stack for the types half-step; planes 0/1 hold the
        # all-0/all-1 row costs, which only change when the active set
        # is compacted — refresh_constants() rewrites them then
        self.st = np.empty((4, batch, rows, z))
        self.g1 = np.empty((batch, rows, z))
        self.g2 = np.empty((batch, rows, z))

    def refresh_constants(
        self, zero_cost: np.ndarray, one_cost: np.ndarray
    ) -> None:
        b = zero_cost.shape[0]
        self.st[0, :b] = zero_cost[:, :, None]
        self.st[1, :b] = one_cost[:, :, None]


def _optimal_types_core(
    d0: np.ndarray,
    d1: np.ndarray,
    patterns: np.ndarray,
    zero_cost: np.ndarray,
    one_cost: np.ndarray,
    scratch: Optional[_SweepScratch] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_optimal_types_batch` with the row sums precomputed."""
    if scratch is None:
        v = patterns.astype(np.float64)
        w = 1.0 - v
        vt = v.transpose(0, 2, 1)  # (B, cols, Z)
        wt = w.transpose(0, 2, 1)
        pattern_cost = np.matmul(d0, wt) + np.matmul(d1, vt)  # type 3
        complement_cost = np.matmul(d0, vt) + np.matmul(d1, wt)  # type 4
        b, rows, z = pattern_cost.shape
        stacked = np.empty((4, b, rows, z))
        stacked[0] = zero_cost[:, :, None]
        stacked[1] = one_cost[:, :, None]
        stacked[2] = pattern_cost
        stacked[3] = complement_cost
    else:
        # planes 0/1 of scratch.st were filled by refresh_constants()
        b = patterns.shape[0]
        v = scratch.f1[:b]
        np.copyto(v, patterns)
        w = scratch.f2[:b]
        np.subtract(1.0, v, out=w)
        vt = v.transpose(0, 2, 1)
        wt = w.transpose(0, 2, 1)
        g1 = scratch.g1[:b]
        g2 = scratch.g2[:b]
        stacked = scratch.st[:, :b]
        np.matmul(d0, wt, out=g1)
        np.matmul(d1, vt, out=g2)
        np.add(g1, g2, out=stacked[2])
        np.matmul(d0, vt, out=g1)
        np.matmul(d1, wt, out=g2)
        np.add(g1, g2, out=stacked[3])
    best = stacked.argmin(axis=0)  # (B, rows, Z) in 0..3
    # min picks the same element argmin indexes (ties hold equal values;
    # all entries are sums of non-negative terms, so no -0.0 asymmetry)
    row_costs = stacked.min(axis=0)
    return (best + 1).astype(np.int8).transpose(0, 2, 1), row_costs.sum(axis=1)


def _optimal_patterns_core(
    d0: np.ndarray,
    d1: np.ndarray,
    types: np.ndarray,
    zero_cost: np.ndarray,
    one_cost: np.ndarray,
    scratch: Optional[_SweepScratch] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_optimal_patterns_batch` with the row sums precomputed.

    With ``scratch``, the returned pattern array is a bool view into
    ``scratch.pb`` (valid until the next call); without, a fresh uint8
    array — both hold the same 0/1 bytes.
    """
    mask3 = (types == _T_PATTERN).astype(np.float64)  # (B, Z, rows)
    mask4 = (types == _T_COMPLEMENT).astype(np.float64)
    # cost of V[c]=1: type-3 rows pay d1, type-4 rows pay d0
    if scratch is None:
        cost_one = np.matmul(mask3, d1) + np.matmul(mask4, d0)  # (B, Z, cols)
        cost_zero = np.matmul(mask3, d0) + np.matmul(mask4, d1)
        patterns = (cost_one < cost_zero).astype(np.uint8)
        column_total = np.minimum(cost_zero, cost_one).sum(axis=2)
    else:
        b = types.shape[0]
        cost_one = scratch.f1[:b]
        cost_zero = scratch.f2[:b]
        spare = scratch.f3[:b]
        np.matmul(mask3, d1, out=cost_one)
        np.matmul(mask4, d0, out=spare)
        np.add(cost_one, spare, out=cost_one)
        np.matmul(mask3, d0, out=cost_zero)
        np.matmul(mask4, d1, out=spare)
        np.add(cost_zero, spare, out=cost_zero)
        patterns = np.less(cost_one, cost_zero, out=scratch.pb[:b])
        column_total = np.minimum(cost_zero, cost_one, out=spare).sum(axis=2)
    mask1 = types == _T_ZERO
    mask2 = types == _T_ONE
    constant_total = (
        np.matmul(mask1, zero_cost[..., None])
        + np.matmul(mask2, one_cost[..., None])
    )[..., 0]
    return patterns, column_total + constant_total


def _optimal_types_batch(
    d0: np.ndarray, d1: np.ndarray, patterns: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Best type per row for each candidate pattern vector, batched.

    ``d0``/``d1`` have shape ``(B, rows, cols)`` and ``patterns``
    ``(B, Z, cols)``; returns ``(types, totals)`` with shapes
    ``(B, Z, rows)`` and ``(B, Z)``.
    """
    zero_cost, one_cost = _row_sums(d0, d1)
    return _optimal_types_core(d0, d1, patterns, zero_cost, one_cost)


def _optimal_patterns_batch(
    d0: np.ndarray, d1: np.ndarray, types: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Best pattern vector per candidate given its type vector, batched.

    ``types`` has shape ``(B, Z, rows)``; returns ``(patterns, totals)``
    with shapes ``(B, Z, cols)`` and ``(B, Z)``.
    """
    zero_cost, one_cost = _row_sums(d0, d1)
    return _optimal_patterns_core(d0, d1, types, zero_cost, one_cost)


def _optimal_types(
    d0: np.ndarray, d1: np.ndarray, patterns: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-partition view of :func:`_optimal_types_batch`."""
    types, totals = _optimal_types_batch(d0[None], d1[None], patterns[None])
    return types[0], totals[0]


def _optimal_patterns(
    d0: np.ndarray, d1: np.ndarray, types: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-partition view of :func:`_optimal_patterns_batch`."""
    patterns, totals = _optimal_patterns_batch(d0[None], d1[None], types[None])
    return patterns[0], totals[0]


# ----------------------------------------------------------------------
# Bit-packed kernel tier: the dyadic-exactness gate and the
# restructured exact-arithmetic sweep it unlocks.
# ----------------------------------------------------------------------


def _packed_eligible(costs: BitCosts, p: np.ndarray) -> bool:
    """Boolean view of :func:`_packed_mode` (any packed tier engages)."""
    return _packed_mode(costs, p) is not None


def _packed_mode(costs: BitCosts, p: np.ndarray) -> Optional[str]:
    """Dyadic-exactness gate for the packed sweep.

    Returns the widest exact precision tier — ``"f32"``, ``"f64"``, or
    ``None`` for the float-sweep fallback.  A tier is admitted when every
    float the alternation forms is *exactly representable* in it: the
    cost vectors are non-negative integers and the input distribution's
    weights all scale to integers ``w_i`` on one common dyadic unit
    ``2**U`` with every sum the kernel can build staying below the
    significand limit — ``2**53`` for float64, ``2**25`` for float32 —
    in units of ``2**(U-1)`` (the half-scale covers the signed
    ``msign`` trick in :class:`_PackedSweep`).  Under those conditions
    the tier's arithmetic is exact in any association order, so the
    restructured half-steps are bit-identical to the float sweep;
    the float32 tier additionally requires ``U >= -37`` so the
    convergence test's ``1e-12`` slack resolves to the same verdict in
    both precisions (totals are spaced ``2**U`` apart, far wider than
    the slack or either tier's rounding radius).  Constant
    distributions (every finite float is a dyadic rational) are
    admitted through a closed-form worst-case bound; anything else goes
    through :func:`_weighted_mode`, which computes the exact integer
    total ``sum_i (cost0_i + cost1_i) * w_i`` by weighted popcounts —
    so truncated-Gaussian and geometric inputs engage the packed tier
    too whenever their weights share a representable dyadic scale.
    """
    p = np.asarray(p)
    if p.size == 0:
        return None
    c0, c1 = costs.cost0, costs.cost1
    # integer-valued (floor == value rejects NaN; infinities die below)
    if not (np.all(np.floor(c0) == c0) and np.all(np.floor(c1) == c1)):
        return None
    hi = float(c0.max()) + float(c1.max())
    if not math.isfinite(hi) or float(c0.min()) < 0.0 or float(c1.min()) < 0.0:
        return None
    p0 = float(p.flat[0])
    if math.isfinite(p0) and p0 > 0.0 and bool(np.all(p == p0)):
        # constant distribution (the protocol default): one frexp and a
        # closed-form bound — ``entries`` terms of at most ``hi * p0``
        # each, in units of p0's dyadic scale
        mantissa, exponent = math.frexp(p0)
        m_int = int(mantissa * (1 << 53))
        trailing = (m_int & -m_int).bit_length() - 1
        m_odd = m_int >> trailing
        bound = 2 * m_odd * int(hi) * c0.shape[0]
        if bound < (1 << 53):
            if bound < (1 << 25) and exponent - 53 + trailing >= -37:
                return "f32"
            # the closed-form bound proves f64; the exact weighted
            # total may still prove f32 (it is never looser)
            refined = _weighted_mode(costs, p)
            return refined if refined == "f32" else "f64"
        # the worst-case bound is loose; fall through to the exact one
    return _weighted_mode(costs, p)


def _weighted_mode(costs: BitCosts, p: np.ndarray) -> Optional[str]:
    """Exact dyadic gate for general weighted input distributions.

    Writes each supported weight as ``p_i = w_i * 2**U`` with integer
    ``w_i`` on the least common dyadic unit ``U``, then forms the exact
    integer bound ``T = sum_i (cost0_i + cost1_i) * w_i`` via per-bit
    weighted popcounts over the weights' packed bit-planes
    (:class:`~repro.boolean.packed.WeightPlanes`).  Every accumulation
    is in Python integers, so the verdict itself never rounds.  Any
    partial sum of weighted-cost terms the kernel (packed *or*
    float) can form lies in ``[-T, T]`` in units of ``2**U``, and
    the msign half-step's partial sums lie in ``[-T, T]`` in units of
    ``2**(U-1)``; ``T < 2**52`` therefore guarantees every intermediate
    is an exact float64 (``T < 2**24`` with ``U >= -37`` upgrades to
    exact float32 — the same ``2 * T < 2**25`` half-unit budget the
    closed-form constant-``p`` check applies — see
    :func:`_packed_mode`).  Rejects (float-sweep fallback): non-finite or
    negative weights, weights whose integer form needs more than 52
    bits on the common unit, per-entry cost sums at or above 2**52, or
    a total ``T`` at or above 2**52.
    """
    p = np.asarray(p, dtype=np.float64)
    if not bool(np.all(np.isfinite(p))) or float(p.min()) < 0.0:
        return None
    combined = np.asarray(
        costs.cost0, dtype=np.float64
    ) + np.asarray(costs.cost1, dtype=np.float64)
    support = (p > 0.0) & (combined > 0.0)
    if not bool(support.any()):
        # every product the kernel forms is exactly 0.0 in any tier
        return "f32"
    ps = p[support]
    # p_i = m_int_i * 2**(exp_i - 53) with m_int in [2**52, 2**53) —
    # exact by construction of frexp/ldexp
    mant, exp = np.frexp(ps)
    m_int = np.ldexp(mant, 53).astype(np.int64)
    low = (m_int & -m_int).astype(np.float64)
    trailing = np.frexp(low)[1] - 1
    odd = m_int >> trailing
    scale = exp.astype(np.int64) - 53 + trailing
    unit = int(scale.min())
    shift = scale - unit
    # bail before shifting: odd << shift must stay within 52 bits both
    # to avoid int64 overflow and to keep T's terms bounded
    odd_bits = np.frexp(odd.astype(np.float64))[1]
    if int((odd_bits + shift).max()) > 52:
        return None
    w_int = odd << shift
    comb = combined[support]
    if float(comb.max()) >= float(1 << 52):
        return None
    comb_int = comb.astype(np.int64)
    planes = WeightPlanes(w_int)
    total = 0
    for bit in range(int(comb_int.max()).bit_length()):
        mask = pack_bits(((comb_int >> np.int64(bit)) & 1).astype(np.uint8))
        total += planes.masked_sum(mask) << bit
        if total >= (1 << 52):
            return None
    if total >= (1 << 52):
        return None
    if total < (1 << 24) and unit >= -37:
        return "f32"
    return "f64"


def _packed_mode_engaged(
    costs: BitCosts, p: np.ndarray, memo: Optional["OptMemo"] = None
) -> Optional[str]:
    """The eligibility tier, with engagement telemetry.

    The eligibility verdict depends only on ``(costs, p)``, so when the
    caller holds an :class:`OptMemo` (which binds exactly that pair)
    the verdict is cached on it — the gate's array scans then run once
    per search context instead of once per kernel call.
    """
    if memo is not None:
        if memo.packed_ok is None:
            mode = _packed_mode(costs, p)
            memo.packed_ok = mode is not None
            memo.packed_mode = mode
        mode = memo.packed_mode
    else:
        mode = _packed_mode(costs, p)
    if obs.enabled():
        obs.incr("opt.packed_calls" if mode else "opt.packed_ineligible")
        if mode == "f32":
            obs.incr("opt.packed_f32_calls")
    return mode


class _PackedSweep:
    """Hoisted state + buffers for the packed exact-arithmetic sweep.

    The entire sweep runs off ``diff = d1 - d0`` plus its per-row sums
    — the full cost matrices are never materialised.  Every cost is
    kept *relative* to its row's all-zero cost, which cancels out of
    every comparison (both sides of each strict ``<`` shift by the same
    exact float) and re-enters the totals as one per-item scalar
    offset (see :func:`_alternate_packed`).  ``diff`` turns the two
    type-3/type-4 matmuls of the types half-step into one
    (``pattern_cost = diff @ Vᵀ``), the complement cost falls out of
    the hoisted row sums ``both`` with zero matmuls
    (``complement = both - pattern``), and the patterns half-step only
    needs the *sign* of ``cost_zero - cost_one = (m4 - m3) @ diff`` —
    one matmul where the float sweep takes four.  Each identity holds
    *bitwise* — not just algebraically — because the eligibility gate
    guarantees every operand and sum is an exact float.  Type and
    pattern selection use strict comparisons so ties resolve exactly
    like the float sweep (first-index ``argmin``; a cost tie in
    the patterns step picks pattern bit 0, matching the float sweep's
    strict ``cost_one < cost_zero``).
    """

    __slots__ = (
        "diff", "diff_t", "both", "m01", "b01", "ones",
        "v", "pat", "comp", "m4", "g", "u4", "uvt",
    )

    def __init__(self, diff: np.ndarray, z: int) -> None:
        batch, rows, cols = diff.shape
        self.diff = diff
        self.diff_t = diff.transpose(0, 2, 1)
        # the sweep works in (B, Z, rows) orientation throughout — the
        # types come out ready for the masks and the final output with
        # no transposes, and the row reduction runs over the contiguous
        # last axis.  Row-state arrays carry a broadcast axis so the
        # half-steps never rebuild views per sweep.  ``both`` is the
        # all-one row cost relative to the all-zero one: the row sums
        # of ``diff`` (exact integer-scaled sums under the gate, so any
        # association order gives the same bits).
        one_cost = diff.sum(axis=2)
        self.both = one_cost[:, None, :]
        self.m01 = np.minimum(0.0, one_cost)[:, None, :]
        # constant-row type by float-sweep tie-breaking: ALL_ZERO unless
        # the all-one row is strictly cheaper (argmin prefers index 0)
        self.b01 = np.where(
            one_cost < 0.0, np.int8(_T_ONE), np.int8(_T_ZERO)
        )[:, None, :]
        # exact-sum reduction vector: under the eligibility gate a
        # gemv against ones is bitwise equal to ``pat.sum(axis=2)``
        # in any association order, and roughly halves the dispatch.
        # All scratch follows diff's dtype — float64, or float32 when
        # the gate proved the narrower significand exact too.
        dtype = diff.dtype
        self.ones = np.ones(rows, dtype=dtype)
        self.v = np.empty((batch, z, cols), dtype=dtype)
        self.pat = np.empty((batch, z, rows), dtype=dtype)
        self.comp = np.empty((batch, z, rows), dtype=dtype)
        self.m4 = np.empty((batch, z, rows), dtype=dtype)
        self.g = np.empty((batch, z, cols), dtype=dtype)
        self.u4 = np.empty((batch, z, rows), dtype=bool)
        self.uvt = np.empty((batch, z, rows), dtype=bool)

    def compact(self, keep: np.ndarray) -> None:
        """Drop converged items; state shrinks, buffers re-slice."""
        self.diff = self.diff[keep]
        self.diff_t = self.diff.transpose(0, 2, 1)
        self.both = self.both[keep]
        self.m01 = self.m01[keep]
        b = self.diff.shape[0]
        self.v = self.v[:b]
        self.pat = self.pat[:b]
        self.comp = self.comp[:b]
        self.m4 = self.m4[:b]
        self.g = self.g[:b]
        self.u4 = self.u4[:b]
        self.uvt = self.uvt[:b]


def _packed_types_core(
    sweep: _PackedSweep, patterns: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed types half-step: one matmul, pairwise exact selection.

    Returns ``(use4, use_vt, totals)`` — the two selection masks plus
    the per-candidate totals.  The ``int8`` type vectors the float
    core emits are only needed for the final output, so the sweep loop
    carries the masks and :func:`_packed_types` materialises types
    once at the end.  When ``patterns`` is ``None`` the candidates
    already sit in ``sweep.v`` (the patterns half-step writes them
    there as exact 0.0/1.0 floats, skipping a copy).
    """
    if patterns is not None:
        np.copyto(sweep.v, patterns)
    pat = sweep.pat
    np.matmul(sweep.v, sweep.diff_t, out=pat)
    comp = sweep.comp
    np.subtract(sweep.both, pat, out=comp)
    # among {pattern, complement}: argmin prefers the lower index, so
    # COMPLEMENT only on strict improvement
    use4 = np.less(comp, pat, out=sweep.u4)
    np.minimum(pat, comp, out=pat)  # pat now holds the {3,4} best cost
    # among {constants, pattern-group}: constants win ties (indices 0/1)
    use_vt = np.less(pat, sweep.m01, out=sweep.uvt)
    # min() selects the same value that where(use_vt, ...) would
    np.minimum(pat, sweep.m01, out=pat)
    # dgemv against ones == pat.sum(axis=2), exact under the gate
    return use4, use_vt, np.matmul(pat, sweep.ones)


def _packed_types(
    use4: np.ndarray, use_vt: np.ndarray, b01: np.ndarray
) -> np.ndarray:
    """Materialise the float sweep's ``int8`` type vectors from the masks."""
    return np.where(use_vt, use4 + np.int8(_T_PATTERN), b01)


def _packed_patterns_core(
    sweep: _PackedSweep, use4: np.ndarray, use_vt: np.ndarray
) -> np.ndarray:
    """Packed patterns half-step: one matmul, sign test only.

    The float core forms ``cost_zero`` and ``cost_one`` per column
    and compares them, but the alternation loop only consumes the
    *comparison* (its totals are never read — convergence is judged on
    the types half-step).  Under the eligibility gate the difference
    ``cost_zero - cost_one = (m4 - m3) @ diff`` is exact, so its sign
    reproduces the float sweep's strict ``cost_one < cost_zero`` bit for
    bit.  The 0/1 result is written straight into ``sweep.v`` as exact
    floats — the very operand the next types half-step multiplies — so
    neither half-step pays a bool→float copy.
    """
    # msign = ((types == COMPLEMENT) - (types == PATTERN)) / 2, built
    # in two ops as use_vt * (use4 - 0.5).  The half-scale factors out
    # of the matmul *exactly* (every product and sum stays dyadic and
    # within the gate's bound), so the sign test below is unchanged
    msign = sweep.m4
    np.subtract(use4, 0.5, out=msign)
    msign *= use_vt
    np.matmul(msign, sweep.diff, out=sweep.g)
    return np.greater(sweep.g, 0.0, out=sweep.v, casting="unsafe")


def _alternate_packed(
    diff: np.ndarray,
    patterns: np.ndarray,
    max_sweeps: int,
    totals_offset: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Packed-tier :func:`_alternate_batch`: same loop, packed cores.

    The convergence test and freeze points mirror :func:`_alternate_batch`
    line for line — only the half-step arithmetic is swapped, and the
    eligibility gate makes that swap bitwise invisible.

    The sweep runs in *relative* mode (see :class:`_PackedSweep`), so
    the masks, tie-breaks, and sweep counts are bitwise identical to
    absolute costs.  The returned totals are re-based by adding
    ``totals_offset`` (each item's total zero cost, an exact
    dyadic-integer scalar), which restores the absolute values bit for
    bit because every quantity involved is exact under the eligibility
    gate.
    """
    batch, z = diff.shape[0], patterns.shape[1]
    sweep = _PackedSweep(diff, z)
    b01 = sweep.b01
    use4, use_vt, totals = _packed_types_core(sweep, patterns)
    out_patterns = np.empty_like(patterns)
    out_use4 = np.empty_like(use4)
    out_use_vt = np.empty_like(use_vt)
    out_totals = np.empty_like(totals)
    out_sweeps = np.zeros(batch, dtype=np.int64)
    if max_sweeps < 1:
        types = _packed_types(use4, use_vt, b01)
        totals = totals + totals_offset[:, None]
        return patterns.copy(), types, totals, out_sweeps

    # ``active`` maps batch slots to items; it stays None until the
    # first compaction (slot == item before that)
    active: Optional[np.ndarray] = None
    done_mask = np.zeros(batch, dtype=bool)
    # convergence-test scratch (re-sliced on compaction): the loop body
    # runs thousands of times per protocol pass, so the handful of
    # small temporaries it would otherwise allocate each iteration are
    # worth hoisting
    slack = np.empty_like(totals)
    slack_ok = np.empty(totals.shape, dtype=bool)
    conv = np.empty(batch, dtype=bool)
    newly_mask = np.empty(batch, dtype=bool)
    remaining = batch
    sweeps = 0
    while True:
        sweeps += 1
        patterns = _packed_patterns_core(sweep, use4, use_vt)
        use4, use_vt, new_totals = _packed_types_core(sweep)
        # same op order as _alternate_batch: (totals - 1e-12) then
        # the compare, so the f32 tier rounds the slack identically
        np.subtract(totals, 1e-12, out=slack)
        np.greater_equal(new_totals, slack, out=slack_ok)
        converged = np.logical_and.reduce(slack_ok, axis=1, out=conv)
        totals = new_totals
        if sweeps >= max_sweeps:
            converged[:] = True
        # boolean ``converged & ~done_mask`` without the two temporaries
        newly = np.greater(converged, done_mask, out=newly_mask).nonzero()[0]
        if not newly.size:
            continue
        sel = newly if active is None else active[newly]
        out_patterns[sel] = patterns[newly]
        out_use4[sel] = use4[newly]
        out_use_vt[sel] = use_vt[newly]
        out_totals[sel] = totals[newly]
        out_sweeps[sel] = sweeps
        done_mask[newly] = True
        remaining -= newly.size
        if remaining == 0:
            out_totals += totals_offset[:, None]
            return (
                out_patterns,
                _packed_types(out_use4, out_use_vt, b01),
                out_totals,
                out_sweeps,
            )
        # finished items keep riding the batch (their outputs are
        # frozen above, and every item's trajectory is independent of
        # its batchmates) until a quarter of the slots are dead — at
        # that point the dead matmul flops outweigh the slicing the
        # compaction costs (measured: eager 1/8 compaction wins for f64
        # sweeps but loses once the f32 tier halves the flop cost; 1/4
        # is the robust middle).  A small active batch never compacts:
        # its dead slots cost less than the dozen re-slices a
        # compaction takes.
        width = done_mask.size
        if width > _COMPACT_MIN and remaining * 4 <= width * 3:
            keep = ~done_mask
            active = (np.arange(batch) if active is None else active)[keep]
            sweep.compact(keep)
            use4 = use4[keep]
            use_vt = use_vt[keep]
            totals = totals[keep]
            done_mask = np.zeros(remaining, dtype=bool)
            slack = slack[:remaining]
            slack_ok = slack_ok[:remaining]
            conv = conv[:remaining]
            newly_mask = newly_mask[:remaining]


def _alternate_batch(
    d0: np.ndarray, d1: np.ndarray, patterns: np.ndarray, max_sweeps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the alternating optimisation for a batch of partitions.

    Each item converges (or hits ``max_sweeps``) independently: as soon
    as an item's totals stop improving it is frozen with exactly the
    state the serial loop would return, and dropped from the active
    stack so later sweeps only pay for the stragglers.

    Returns ``(patterns, types, totals, sweeps)`` with shapes
    ``(B, Z, cols)``, ``(B, Z, rows)``, ``(B, Z)``, ``(B,)``.
    """
    batch = d0.shape[0]
    zero_cost, one_cost = _row_sums(d0, d1)
    scratch = _SweepScratch(
        batch, patterns.shape[1], patterns.shape[2], d0.shape[1]
    )
    scratch.refresh_constants(zero_cost, one_cost)
    types, totals = _optimal_types_core(
        d0, d1, patterns, zero_cost, one_cost, scratch
    )
    out_patterns = np.empty_like(patterns)
    out_types = np.empty_like(types)
    out_totals = np.empty_like(totals)
    out_sweeps = np.zeros(batch, dtype=np.int64)
    if max_sweeps < 1:
        return patterns.copy(), types, totals, out_sweeps

    if batch == 1:
        # Serial calls and straggler chunks skip the freeze/compaction
        # bookkeeping below — it's pure overhead with one item.  The
        # sequence of core calls is identical, so the bits are too.
        sweeps = 0
        while True:
            sweeps += 1
            patterns, _ = _optimal_patterns_core(
                d0, d1, types, zero_cost, one_cost, scratch
            )
            types, new_totals = _optimal_types_core(
                d0, d1, patterns, zero_cost, one_cost, scratch
            )
            converged = bool((new_totals >= totals - 1e-12).all())
            totals = new_totals
            if converged or sweeps >= max_sweeps:
                out_patterns[0] = patterns[0]
                out_sweeps[0] = sweeps
                return out_patterns, types, totals, out_sweeps

    active = np.arange(batch)
    sweeps = 0
    while True:
        sweeps += 1
        patterns, _ = _optimal_patterns_core(
            d0, d1, types, zero_cost, one_cost, scratch
        )
        types, new_totals = _optimal_types_core(
            d0, d1, patterns, zero_cost, one_cost, scratch
        )
        converged = np.all(new_totals >= totals - 1e-12, axis=1)
        totals = new_totals
        finished = (
            converged
            if sweeps < max_sweeps
            else np.ones(active.size, dtype=bool)
        )
        done = np.flatnonzero(finished)
        if done.size:
            sel = active[done]
            out_patterns[sel] = patterns[done]
            out_types[sel] = types[done]
            out_totals[sel] = totals[done]
            out_sweeps[sel] = sweeps
            if done.size == active.size:
                return out_patterns, out_types, out_totals, out_sweeps
            keep = ~finished
            active = active[keep]
            d0 = d0[keep]
            d1 = d1[keep]
            zero_cost = zero_cost[keep]
            one_cost = one_cost[keep]
            types = types[keep]
            totals = totals[keep]
            scratch.refresh_constants(zero_cost, one_cost)


def _best_of(
    partition: Partition,
    patterns: np.ndarray,
    types: np.ndarray,
    totals: np.ndarray,
) -> OptForPartResult:
    """Pick the best candidate of one item's final alternation state."""
    best = int(totals.argmin())
    # copies detach the winner from the batch arrays (results must
    # not pin them); _trusted skips re-validating vectors the exact
    # half-steps produced
    decomposition = DisjointDecomposition._trusted(
        partition, patterns[best].copy(), types[best].copy()
    )
    return OptForPartResult(float(totals[best]), decomposition)


def opt_for_part(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = _DEFAULT_MAX_SWEEPS,
    memo: Optional[OptMemo] = None,
) -> OptForPartResult:
    """Optimise (V, T) for ``partition`` from random initial patterns.

    Parameters mirror the paper: ``n_initial_patterns`` is ``Z``.  The
    returned error is exact for the given cost model (no sampling).
    ``memo`` (from :func:`memo_context`) carries the ``(costs, p)``
    context so repeated calls skip the per-context set-up.
    """
    if rng is None:
        rng = np.random.default_rng()
    if n_initial_patterns < 1:
        raise ValueError("n_initial_patterns must be >= 1")
    patterns = rng.integers(
        0, 2, size=(n_initial_patterns, partition.n_cols), dtype=np.uint8
    )
    request = KernelRequest(
        costs, p, [partition], n_inputs, patterns[None], max_sweeps, memo
    )
    # Hot path: the disabled-telemetry branch avoids even the no-op
    # span allocation — this function dominates both algorithms.
    if not obs.enabled():
        return _grouped_eval([request])[0][0][0]
    with obs.span(
        "opt.for_part", n_bound=partition.n_bound, n_free=partition.n_free
    ) as span:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        ((result,), sweeps), = _grouped_eval([request])
        obs.observe("opt.for_part_cpu_seconds", time.thread_time() - cpu_start)
        obs.observe("opt.for_part_seconds", time.perf_counter() - start)
        span.set(sweeps=sweeps, error=result.error)
        obs.incr("opt.calls")
        obs.incr("opt.sweeps", sweeps)
        obs.incr("opt.lut_entries", 2 << (n_inputs - 1))
        return result


def _check_patterns(stacked: np.ndarray, count: int, n_cols: int) -> None:
    """Validate a caller's ``(N, Z, cols)`` stack of 0/1 initial patterns."""
    if stacked.ndim != 3 or len(stacked) != count:
        raise ValueError(
            "stacked initial patterns must have shape (n_partitions, Z, cols)"
        )
    if stacked.shape[1] < 1:
        raise ValueError("initial patterns need Z >= 1 rows per partition")
    if stacked.shape[2] != n_cols:
        raise ValueError(
            f"initial patterns have {stacked.shape[2]} columns; the "
            f"partitions' tables have {n_cols}"
        )
    if stacked.dtype.kind not in "bu":
        raise ValueError(
            f"initial patterns must be a bool or unsigned-integer array, "
            f"got {stacked.dtype}"
        )
    if int(stacked.max()) > 1:
        raise ValueError("initial patterns must hold only 0/1 values")


def opt_for_part_many(
    costs: BitCosts,
    p: np.ndarray,
    partitions: Sequence[Partition],
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = _DEFAULT_MAX_SWEEPS,
    memo: Optional[OptMemo] = None,
    initial_patterns: Optional[Sequence[np.ndarray]] = None,
) -> List[OptForPartResult]:
    """Batched :func:`opt_for_part` over same-shape partitions.

    Every partition must induce the same ``(rows, cols)`` table shape
    (SA neighbours and fixed-``b`` random samples always do).  When
    ``initial_patterns`` is omitted, one ``(Z, cols)`` uint8 draw is
    taken from ``rng`` per partition *in order* — exactly the draws a
    loop of single calls would take, which is what makes a batched
    search bit-identical to the serial one.  Callers that interleave
    other generator use (partition sampling, SA acceptance) pre-draw
    the patterns themselves and pass them in — either as a sequence of
    ``(Z, cols)`` arrays or as one stacked ``(N, Z, cols)`` array (the
    search loops build the stack directly, skipping a re-stack here).
    Caller-supplied patterns must hold 0/1 values in a bool or unsigned
    integer array with ``Z >= 1`` rows of the tables' column count.

    Results are returned in input order; each is bitwise equal to the
    corresponding single-partition call.
    """
    partitions = list(partitions)
    if not partitions:
        return []
    shape = (partitions[0].n_rows, partitions[0].n_cols)
    for partition in partitions:
        if (partition.n_rows, partition.n_cols) != shape:
            raise ValueError(
                "opt_for_part_many needs partitions of one (free, bound) "
                f"shape; got {(partition.n_rows, partition.n_cols)} and {shape}"
            )
    if initial_patterns is None:
        if n_initial_patterns < 1:
            raise ValueError("n_initial_patterns must be >= 1")
        if rng is None:
            rng = np.random.default_rng()
        # one preallocated stack, one rng draw per partition *in order*
        # — the same generator stream as a loop of single calls
        stacked = np.empty(
            (len(partitions), n_initial_patterns, shape[1]), dtype=np.uint8
        )
        for index in range(len(partitions)):
            stacked[index] = rng.integers(
                0, 2, size=(n_initial_patterns, shape[1]), dtype=np.uint8
            )
    else:
        if isinstance(initial_patterns, np.ndarray):
            stacked = initial_patterns
        else:
            initial_patterns = list(initial_patterns)
            if len(initial_patterns) != len(partitions):
                raise ValueError(
                    "one initial-pattern array is required per partition"
                )
            for patterns in initial_patterns:
                if patterns.shape != initial_patterns[0].shape:
                    raise ValueError(
                        "initial-pattern arrays must share one shape"
                    )
            stacked = np.stack(initial_patterns)
        _check_patterns(stacked, len(partitions), shape[1])

    request = KernelRequest(
        costs, p, partitions, n_inputs, stacked, max_sweeps, memo
    )
    if not obs.enabled():
        return _grouped_eval([request])[0][0]
    with obs.span(
        "opt.for_part_many",
        batch=len(partitions),
        n_bound=partitions[0].n_bound,
        n_free=partitions[0].n_free,
    ) as span:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        (results, total_sweeps), = _grouped_eval([request])
        obs.observe("opt.for_part_cpu_seconds", time.thread_time() - cpu_start)
        obs.observe("opt.for_part_seconds", time.perf_counter() - start)
        span.set(sweeps=total_sweeps)
        obs.incr("opt.calls", len(partitions))
        obs.incr("opt.sweeps", total_sweeps)
        obs.incr("opt.lut_entries", len(partitions) * (2 << (n_inputs - 1)))
        return results


class KernelRequest:
    """One caller's ``opt_for_part_many`` batch, ready for grouped dispatch.

    Bundles everything the chunk engine consumes — the cost context,
    the partitions, the pre-drawn ``(N, Z, cols)`` pattern stack, and
    the optional context handle — so requests over *different*
    ``(costs, p)`` contexts (the nondisjoint cofactor halves) can ride
    one :func:`opt_for_part_grouped` pass.  The pattern stack is
    captured by reference; callers must not mutate it until the
    request resolves.
    """

    __slots__ = (
        "costs", "p", "partitions", "n_inputs", "stacked", "max_sweeps", "memo",
    )

    def __init__(
        self,
        costs: BitCosts,
        p: np.ndarray,
        partitions: Sequence[Partition],
        n_inputs: int,
        stacked: np.ndarray,
        max_sweeps: int = _DEFAULT_MAX_SWEEPS,
        memo: Optional[OptMemo] = None,
    ) -> None:
        self.costs = costs
        self.p = p
        self.partitions = list(partitions)
        self.n_inputs = n_inputs
        self.stacked = stacked
        self.max_sweeps = max_sweeps
        self.memo = memo


def opt_for_part_grouped(
    requests: Sequence[KernelRequest],
) -> List[List[OptForPartResult]]:
    """Evaluation of several batches in one kernel pass.

    Items from all requests are grouped by table shape, candidate
    count, sweep cap, and packed eligibility, and executed in stacked
    chunks up to ``_BATCH_LIMIT`` wide — each item bitwise equal to its
    standalone :func:`opt_for_part_many` call.  Returns one result list
    per request, in request order.  Telemetry: a single
    ``opt.for_part_grouped`` span covering the pass and the usual
    ``opt.calls`` / ``opt.sweeps`` / ``opt.lut_entries`` counters.
    """
    requests = list(requests)
    if not requests:
        return []
    total = sum(len(request.partitions) for request in requests)
    if not obs.enabled():
        return [results for results, _ in _grouped_eval(requests)]
    with obs.span(
        "opt.for_part_grouped", requests=len(requests), items=total
    ) as span:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        evaluated = _grouped_eval(requests)
        obs.observe("opt.for_part_cpu_seconds", time.thread_time() - cpu_start)
        obs.observe("opt.for_part_seconds", time.perf_counter() - start)
        total_sweeps = sum(sweeps for _, sweeps in evaluated)
        span.set(sweeps=total_sweeps)
        obs.incr("opt.calls", total)
        obs.incr("opt.sweeps", total_sweeps)
        for request in requests:
            obs.incr(
                "opt.lut_entries",
                len(request.partitions) * (2 << (request.n_inputs - 1)),
            )
        return [results for results, _ in evaluated]


def _chunks(
    members: List[int], requests: List[KernelRequest]
) -> Iterator[List[Tuple[int, int, int]]]:
    """Split a group's requests into chunks of ``(request, lo, hi)`` runs.

    Items keep request order; each chunk holds at most ``_BATCH_LIMIT``
    items, as consecutive item runs of one or more requests.
    """
    chunk: List[Tuple[int, int, int]] = []
    width = 0
    for ri in members:
        lo, count = 0, len(requests[ri].partitions)
        while lo < count:
            hi = min(count, lo + _BATCH_LIMIT - width)
            chunk.append((ri, lo, hi))
            width += hi - lo
            lo = hi
            if width == _BATCH_LIMIT:
                yield chunk
                chunk, width = [], 0
    if chunk:
        yield chunk


def _grouped_eval(
    requests: List[KernelRequest],
) -> List[Tuple[List[OptForPartResult], int]]:
    """The chunk engine behind every ``OptForPart`` entry point.

    Returns ``(results, total_sweeps)`` per request.  Requests are
    grouped by ``(rows, cols, Z, max_sweeps, packed tier)``; a chunk
    costs one gather per item into one stacked cost array, one batched
    alternation, and one winner gather — the batched sweeps keep every
    item independent, so chunk composition never changes a bit.
    """
    contexts = [
        request.memo
        if request.memo is not None
        else OptMemo(request.costs, request.p)
        for request in requests
    ]
    groups: dict = {}
    for ri, request in enumerate(requests):
        mode = _packed_mode_engaged(request.costs, request.p, contexts[ri])
        first = request.partitions[0]
        gkey = (
            first.n_rows,
            first.n_cols,
            request.stacked.shape[1],
            request.max_sweeps,
            mode,
        )
        groups.setdefault(gkey, []).append(ri)

    results: List[List[OptForPartResult]] = [[] for _ in requests]
    sweeps = [0] * len(requests)
    for (rows, cols, z, max_sweeps, mode), members in groups.items():
        for chunk in _chunks(members, requests):
            if len(chunk) == 1:
                # one request's consecutive items (the common serial
                # case): the caller's stack IS the chunk stack — the
                # sweeps only read it
                ri, lo, hi = chunk[0]
                patterns = requests[ri].stacked[lo:hi]
            else:
                patterns = np.concatenate(
                    [requests[ri].stacked[lo:hi] for ri, lo, hi in chunk]
                )
            b = len(patterns)
            if mode:
                # relative mode: each item's total zero cost re-bases
                # its final totals
                diff = np.empty(
                    (b, rows * cols),
                    dtype=np.float32 if mode == "f32" else np.float64,
                )
                offsets = np.empty(b)
                j = 0
                for ri, lo, hi in chunk:
                    request = requests[ri]
                    wdiff, offset = contexts[ri].packed_grid(mode)
                    offsets[j : j + hi - lo] = offset
                    for partition in request.partitions[lo:hi]:
                        wdiff.take(
                            gather_index(partition, request.n_inputs),
                            out=diff[j],
                            mode="clip",
                        )
                        j += 1
                fin_patterns, fin_types, fin_totals, fin_sweeps = (
                    _alternate_packed(
                        diff.reshape(b, rows, cols),
                        patterns,
                        max_sweeps,
                        offsets,
                    )
                )
            else:
                d0 = np.empty((b, rows * cols))
                d1 = np.empty_like(d0)
                j = 0
                for ri, lo, hi in chunk:
                    request = requests[ri]
                    w0, w1 = contexts[ri].weights()
                    for partition in request.partitions[lo:hi]:
                        idx = gather_index(partition, request.n_inputs)
                        w0.take(idx, out=d0[j], mode="clip")
                        w1.take(idx, out=d1[j], mode="clip")
                        j += 1
                fin_patterns, fin_types, fin_totals, fin_sweeps = (
                    _alternate_batch(
                        d0.reshape(b, rows, cols),
                        d1.reshape(b, rows, cols),
                        patterns,
                        max_sweeps,
                    )
                )
            # one argmin and one fancy-index gather of the winners for
            # the whole chunk (first index wins ties, like _best_of);
            # the per-item rows below are views into the gathered
            # arrays, which own their data
            winners = fin_totals.argmin(axis=1)
            arange_b = np.arange(b)
            best_patterns = fin_patterns[arange_b, winners]
            best_types = fin_types[arange_b, winners]
            best_totals = fin_totals[arange_b, winners].tolist()
            j = 0
            for ri, lo, hi in chunk:
                out = results[ri]
                for partition in requests[ri].partitions[lo:hi]:
                    out.append(
                        OptForPartResult(
                            best_totals[j],
                            DisjointDecomposition._trusted(
                                partition, best_patterns[j], best_types[j]
                            ),
                        )
                    )
                    j += 1
                sweeps[ri] += int(fin_sweeps[j - (hi - lo) : j].sum())
    return list(zip(results, sweeps))


def opt_for_part_bto(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    memo: Optional[OptMemo] = None,
) -> OptForPartResult:
    """BTO-restricted ``OptForPart``: all rows are forced to type 3.

    With ``T`` fixed, the optimal ``V`` decomposes per column and is
    found exactly in one pass — no random restarts, no alternation, no
    generator use.  ``memo`` only supplies the cached weighted costs.
    """
    w0, w1 = memo.weights() if memo is not None else costs.weighted(p)
    idx = gather_index(partition, n_inputs)
    table = (partition.n_rows, partition.n_cols)
    cost_zero = w0[idx].reshape(table).sum(axis=0)
    cost_one = w1[idx].reshape(table).sum(axis=0)
    pattern = (cost_one < cost_zero).astype(np.uint8)
    error = float(np.minimum(cost_zero, cost_one).sum())
    if obs.enabled():
        obs.incr("opt.bto_calls")
    return OptForPartResult(error, BoundOnlyDecomposition(partition, pattern))


def opt_for_part_exhaustive(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
) -> OptForPartResult:
    """Global optimum by enumerating every pattern vector.

    Exponential in ``2**b`` — a test oracle for small bound sets
    (``b <= 4``), verifying that the alternating optimisation finds the
    true optimum often and never reports a better-than-possible error.
    Single-partition view of :func:`opt_for_part_exhaustive_many`.
    """
    return opt_for_part_exhaustive_many(costs, p, [partition], n_inputs)[0]


def opt_for_part_exhaustive_many(
    costs: BitCosts,
    p: np.ndarray,
    partitions: Sequence[Partition],
    n_inputs: int,
) -> List[OptForPartResult]:
    """Batched exhaustive oracle over same-shape partitions.

    Accepts the same batched inputs as :func:`opt_for_part_many` (one
    ``(free, bound)`` shape, results in input order) so
    oracle comparisons in the property suites can evaluate a whole
    partition batch without hand-rolled loops.  The oracle always runs
    the float types half-step — it is the thing the packed tier
    is judged against — and every batch item is bitwise equal to a
    standalone :func:`opt_for_part_exhaustive` call.
    """
    partitions = list(partitions)
    if not partitions:
        return []
    shape = (partitions[0].n_rows, partitions[0].n_cols)
    for partition in partitions:
        if (partition.n_rows, partition.n_cols) != shape:
            raise ValueError(
                "opt_for_part_exhaustive_many needs partitions of one "
                f"(free, bound) shape; got "
                f"{(partition.n_rows, partition.n_cols)} and {shape}"
            )
        if partition.n_bound > 4:
            raise ValueError(
                f"exhaustive search over 2**{partition.n_cols} patterns "
                "refused; use bound sets of size <= 4"
            )
    w0, w1 = costs.weighted(p)
    rows, cols = shape
    n_patterns = 1 << cols
    shifts = np.arange(cols, dtype=np.int64)
    patterns = (
        (np.arange(n_patterns, dtype=np.int64)[:, None] >> shifts) & 1
    ).astype(np.uint8)
    # the enumeration axis replaces Z, so the per-item float footprint
    # is 2**b times larger than a search sweep's; scale the chunk size
    # down accordingly
    chunk_size = max(1, (_BATCH_LIMIT * 32) // n_patterns)
    results: List[OptForPartResult] = []
    for start in range(0, len(partitions), chunk_size):
        chunk = partitions[start : start + chunk_size]
        d0 = np.empty((len(chunk), rows, cols))
        d1 = np.empty_like(d0)
        for j, partition in enumerate(chunk):
            idx = gather_index(partition, n_inputs)
            np.take(w0, idx, out=d0[j].reshape(-1))
            np.take(w1, idx, out=d1[j].reshape(-1))
        stacked = np.broadcast_to(patterns, (len(chunk), n_patterns, cols))
        types, totals = _optimal_types_batch(d0, d1, stacked)
        for j, partition in enumerate(chunk):
            results.append(_best_of(partition, patterns, types[j], totals[j]))
    return results
