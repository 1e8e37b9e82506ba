"""Variable partitions ``ω = (A, B)`` for disjoint decomposition.

A partition splits the ``n`` input variables into a *free set* ``A``
(indexing the rows of the 2D truth table) and a *bound set* ``B``
(indexing the columns).  The paper fixes ``|B| = b`` and explores the
partition space via *neighbour* moves that swap a single free variable
with a single bound variable (Section III-C: two partitions are
neighbours when their free sets differ in exactly one element).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from . import ops
from ..caching import LruCache

__all__ = ["Partition", "random_partition", "all_partitions", "partition_count"]

#: cached neighbour lists keyed by ``(free_mask, mask)`` — SA revisits
#: the same states across chains and rounds, and the swap enumeration
#: allocates n_free * n_bound Partition objects per call.  The list
#: order is part of the contract: ``sample_neighbours`` draws indices
#: into it.
_NEIGHBOUR_CACHE = LruCache("partition_neighbours", maxsize=1024)

_new = object.__new__
_set = object.__setattr__


def _bits_of(mask: int) -> Tuple[int, ...]:
    """Ascending positions of the set bits of ``mask``."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _from_masks(
    free_mask: int, mask: int, n_free: int, n_bound: int
) -> "Partition":
    """Trusted constructor from disjoint, non-empty variable bitmasks.

    Skips validation and the sorted-tuple views (built on first use):
    the neighbour moves and :func:`random_partition` derive both masks
    from a validated state, and SA expands many partitions per move.
    """
    self = _new(Partition)
    _set(self, "mask", mask)
    _set(self, "free_mask", free_mask)
    _set(self, "n_free", n_free)
    _set(self, "n_bound", n_bound)
    _set(self, "n_rows", 1 << n_free)
    _set(self, "n_cols", 1 << n_bound)
    _set(self, "_free", None)
    _set(self, "_bound", None)
    return self


class Partition:
    """A disjoint split of input variables into free and bound sets.

    The state is two integer bitmasks — ``mask`` (the bound set ``B``,
    bit ``v`` set when variable ``v`` is bound) and ``free_mask`` (the
    free set ``A``) — so the hash is the bound mask and a neighbour
    move is one XOR.  The sorted tuples are views over the masks.

    Attributes
    ----------
    free:
        Sorted tuple of 0-indexed variable positions in the free set
        ``A`` (they index the rows of the 2D truth table).
    bound:
        Sorted tuple of 0-indexed variable positions in the bound set
        ``B`` (they index the columns and feed the bound table).
    n_free, n_bound, n_rows, n_cols:
        ``|A|``, ``|B|`` and the induced 2D table shape
        ``(2**|A|, 2**|B|)``.
    """

    __slots__ = (
        "mask", "free_mask", "n_free", "n_bound", "n_rows", "n_cols",
        "_free", "_bound",
    )

    def __init__(self, free: Iterable[int], bound: Iterable[int]) -> None:
        free_vars = [int(v) for v in free]
        bound_vars = [int(v) for v in bound]
        overlap = set(free_vars) & set(bound_vars)
        if overlap:
            raise ValueError(f"free and bound sets overlap on {sorted(overlap)}")
        if not bound_vars:
            raise ValueError("bound set must not be empty")
        if not free_vars:
            raise ValueError("free set must not be empty")
        variables = free_vars + bound_vars
        if min(variables) < 0:
            raise ValueError("variable positions must be non-negative")
        if len(set(variables)) != len(variables):
            raise ValueError("a variable is listed twice")
        _set(self, "mask", sum(1 << v for v in bound_vars))
        _set(self, "free_mask", sum(1 << v for v in free_vars))
        _set(self, "n_free", len(free_vars))
        _set(self, "n_bound", len(bound_vars))
        _set(self, "n_rows", 1 << len(free_vars))
        _set(self, "n_cols", 1 << len(bound_vars))
        _set(self, "_free", tuple(sorted(free_vars)))
        _set(self, "_bound", tuple(sorted(bound_vars)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Partition is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Partition is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Partition:
            return NotImplemented
        return self.mask == other.mask and self.free_mask == other.free_mask

    def __hash__(self) -> int:
        return self.mask

    def __reduce__(self):
        return (Partition, (self.free, self.bound))

    def __repr__(self) -> str:
        return f"Partition(free={self.free!r}, bound={self.bound!r})"

    # ------------------------------------------------------------------
    @property
    def free(self) -> Tuple[int, ...]:
        free = self._free
        if free is None:
            free = _bits_of(self.free_mask)
            _set(self, "_free", free)
        return free

    @property
    def bound(self) -> Tuple[int, ...]:
        bound = self._bound
        if bound is None:
            bound = _bits_of(self.mask)
            _set(self, "_bound", bound)
        return bound

    @property
    def n_inputs(self) -> int:
        """Total number of variables covered by the partition."""
        return self.n_free + self.n_bound

    def validate_for(self, n_inputs: int) -> None:
        """Check that the partition exactly covers ``n_inputs`` variables."""
        if self.free_mask | self.mask != (1 << n_inputs) - 1:
            actual = sorted(self.free + self.bound)
            raise ValueError(
                f"partition covers variables {actual}, "
                f"expected exactly {list(range(n_inputs))}"
            )

    # ------------------------------------------------------------------
    def row_col_of(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map input words to (row, column) coordinates of the 2D table."""
        return (
            ops.extract_bits(words, self.free),
            ops.extract_bits(words, self.bound),
        )

    def word_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`row_col_of`."""
        return ops.deposit_bits(rows, self.free) | ops.deposit_bits(cols, self.bound)

    def scatter_index(self, n_inputs: int) -> np.ndarray:
        """Permutation ``idx`` with ``matrix.flat[idx[x]] = value[x]``.

        ``idx[x] = row(x) * n_cols + col(x)`` — used to reshape any
        per-input vector into the partition's 2D truth-table layout.
        """
        self.validate_for(n_inputs)
        xs = ops.all_inputs(n_inputs)
        rows, cols = self.row_col_of(xs)
        return rows * self.n_cols + cols

    # ------------------------------------------------------------------
    def _swap(self, a: int, b: int) -> "Partition":
        """The neighbour exchanging free variable ``a`` with bound ``b``."""
        swap = (1 << a) | (1 << b)
        return _from_masks(
            self.free_mask ^ swap, self.mask ^ swap, self.n_free, self.n_bound
        )

    def neighbours(self) -> List["Partition"]:
        """All partitions whose free set differs in exactly one element.

        Each neighbour swaps one free variable with one bound variable,
        preserving the bound-set size ``b`` required by the hardware.
        The order is the ``(free x bound)`` product of the sorted sets.
        """
        key = (self.free_mask, self.mask)
        cached = _NEIGHBOUR_CACHE.get(key)
        if cached is not None:
            return list(cached)
        bound = self.bound
        result = [self._swap(a, b) for a in self.free for b in bound]
        _NEIGHBOUR_CACHE.put(key, tuple(result))
        return result

    def sample_neighbours(
        self, count: int, rng: np.random.Generator
    ) -> List["Partition"]:
        """Sample ``count`` distinct neighbours uniformly (``GenNeib``).

        Neighbour ``i`` of :meth:`neighbours` swaps the ``i``-th entry
        of the (free x bound) product; drawing indices into that
        product takes the same generator draw — and yields the same
        partitions — as enumerating every swap, while only
        constructing the ``count`` chosen neighbours.
        """
        n_bound = self.n_bound
        total = self.n_free * n_bound
        if count >= total:
            return self.neighbours()
        free, bound = self.free, self.bound
        return [
            self._swap(free[pick // n_bound], bound[pick % n_bound])
            for pick in rng.choice(total, size=count, replace=False).tolist()
        ]

    def is_neighbour_of(self, other: "Partition") -> bool:
        """True when the free sets differ in exactly one element."""
        if self.n_free != other.n_free or self.n_bound != other.n_bound:
            return False
        return bin(self.free_mask & ~other.free_mask).count("1") == 1

    def with_shared_first(self, shared: int) -> "Partition":
        """Check ``shared`` is a bound variable and return self.

        Used by the non-disjoint mode: the routing box can always place
        the shared bit at the last bound position, so the logical
        partition does not change; this helper just validates membership.
        """
        if shared not in self.bound:
            raise ValueError(f"shared variable {shared} is not in the bound set")
        return self

    def __str__(self) -> str:
        free = ",".join(f"x{v + 1}" for v in self.free)
        bound = ",".join(f"x{v + 1}" for v in self.bound)
        return f"A={{{free}}} B={{{bound}}}"


def random_partition(
    n_inputs: int, bound_size: int, rng: np.random.Generator
) -> Partition:
    """Draw a uniform random partition with ``|B| = bound_size``."""
    if not 1 <= bound_size < n_inputs:
        raise ValueError(
            f"bound_size must be in [1, {n_inputs - 1}], got {bound_size}"
        )
    mask = 0
    for v in rng.permutation(n_inputs)[:bound_size].tolist():
        mask |= 1 << v
    return _from_masks(
        ((1 << n_inputs) - 1) ^ mask, mask, n_inputs - bound_size, bound_size
    )


def all_partitions(n_inputs: int, bound_size: int) -> Iterator[Partition]:
    """Enumerate every partition with the given bound-set size.

    Only practical for small ``n``; used by tests and exhaustive
    baselines.
    """
    variables = range(n_inputs)
    for bound in itertools.combinations(variables, bound_size):
        free = tuple(v for v in variables if v not in bound)
        yield Partition(free, bound)


def partition_count(n_inputs: int, bound_size: int) -> int:
    """Number of partitions with ``|B| = bound_size`` (``C(n, b)``)."""
    return math.comb(n_inputs, bound_size)
