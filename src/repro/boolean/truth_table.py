"""2D truth-table construction for a variable partition.

Theorem 1 of the paper (Ashenhurst) is stated on a 2D truth table whose
rows are indexed by the free set ``A`` and columns by the bound set
``B``.  This module reshapes per-input vectors (function bits, input
probabilities, per-input costs) into that layout and back.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..caching import LruCache
from .function import BooleanFunction
from .partition import Partition

__all__ = [
    "table_indices",
    "gather_index",
    "row_col_indices",
    "to_matrix",
    "from_matrix",
    "component_matrix",
    "TwoDimensionalTable",
]

#: cached gather permutations keyed by the partition's bound-set
#: bitmask and n (the free set is the complement once the partition is
#: validated for n).  Every OptForPart item reads one, so entries are
#: stored in the narrowest index dtype: uint16 up to n = 16, one entry
#: costing 2**(n+1) bytes.  The size must clear the working set of a
#: search run: the Table-II default scale (n = 12, b = 7) can visit all
#: C(12, 7) = 792 partitions, and a smaller cache thrashes — every miss
#: reruns the permutation build that the cache exists to amortise.
_INDEX_CACHE = LruCache("table_index", maxsize=1024)

#: cached scatter permutations (the inverses), same keying as above
_SCATTER_CACHE = LruCache("table_scatter", maxsize=1024)

#: cached (rows, cols) coordinate vectors, same keying as above
_ROWCOL_CACHE = LruCache("table_rowcol", maxsize=1024)


def gather_index(partition: Partition, n_inputs: int) -> np.ndarray:
    """Cached gather permutation: ``matrix.flat = values[gather]``.

    The array is read-only because it is shared across callers, and its
    dtype is uint16 for ``n_inputs <= 16`` (intp above).
    """
    partition.validate_for(n_inputs)
    key = (partition.mask, n_inputs)
    gather = _INDEX_CACHE.get(key)
    if gather is not None:
        return gather
    # The gather permutation is a pure bit reordering of 0..2**n-1, so
    # it falls out of a reshape/transpose of ``arange`` directly: axis
    # ``k`` of the (2,)*n grid is word bit ``n-1-k``, and laying the
    # free bits (most significant first) ahead of the bound bits walks
    # the 2D table in row-major order.  Equal to inverting
    # ``partition.scatter_index`` — an order of magnitude cheaper than
    # the per-bit extraction (covered by a unit test).
    order = (*reversed(partition.free), *reversed(partition.bound))
    axes = [n_inputs - 1 - bit for bit in order]
    dtype = np.uint16 if n_inputs <= 16 else np.intp
    grid = np.arange(1 << n_inputs, dtype=dtype).reshape((2,) * n_inputs)
    gather = np.ascontiguousarray(grid.transpose(axes)).reshape(-1)
    gather.setflags(write=False)
    _INDEX_CACHE.put(key, gather)
    return gather


def table_indices(
    partition: Partition, n_inputs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached (scatter, gather) index pair for a partition's 2D layout.

    ``scatter`` satisfies ``matrix.flat[scatter[x]] = values[x]`` (it is
    :meth:`Partition.scatter_index`, as int64); ``gather`` is its
    inverse permutation, ``matrix.flat = values[gather]`` (see
    :func:`gather_index`).  Both arrays are marked read-only because
    they are shared across callers.
    """
    gather = gather_index(partition, n_inputs)
    key = (partition.mask, n_inputs)
    scatter = _SCATTER_CACHE.get(key)
    if scatter is None:
        scatter = np.empty(gather.size, dtype=np.int64)
        scatter[gather] = np.arange(gather.size, dtype=np.int64)
        scatter.setflags(write=False)
        _SCATTER_CACHE.put(key, scatter)
    return scatter, gather


def row_col_indices(
    partition: Partition, n_inputs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``(rows, cols)`` of every input word under ``partition``.

    Equal to ``partition.row_col_of(all_inputs(n_inputs))`` — recovered
    from the cached scatter permutation (``scatter = rows * n_cols +
    cols`` with ``cols < n_cols``), so no bit extraction runs on a hit.
    """
    partition.validate_for(n_inputs)
    key = (partition.mask, n_inputs)
    cached = _ROWCOL_CACHE.get(key)
    if cached is not None:
        return cached
    scatter = table_indices(partition, n_inputs)[0]
    rows, cols = np.divmod(scatter, partition.n_cols)
    rows.setflags(write=False)
    cols.setflags(write=False)
    pair = (rows, cols)
    _ROWCOL_CACHE.put(key, pair)
    return pair


def to_matrix(values: np.ndarray, partition: Partition, n_inputs: int) -> np.ndarray:
    """Reshape a per-input vector into the partition's 2D layout.

    Entry ``(r, c)`` of the result is ``values[x]`` for the unique input
    word ``x`` whose free bits spell ``r`` and bound bits spell ``c``.
    """
    values = np.asarray(values)
    if values.shape != (1 << n_inputs,):
        raise ValueError(
            f"values has shape {values.shape}, expected ({1 << n_inputs},)"
        )
    idx = gather_index(partition, n_inputs)
    return values[idx].reshape(partition.n_rows, partition.n_cols)


def from_matrix(
    matrix: np.ndarray, partition: Partition, n_inputs: int
) -> np.ndarray:
    """Inverse of :func:`to_matrix`: flatten a 2D table back per input."""
    matrix = np.asarray(matrix)
    expected = (partition.n_rows, partition.n_cols)
    if matrix.shape != expected:
        raise ValueError(f"matrix has shape {matrix.shape}, expected {expected}")
    idx = table_indices(partition, n_inputs)[0]
    return matrix.reshape(-1)[idx]


def component_matrix(
    function: BooleanFunction, k: int, partition: Partition
) -> np.ndarray:
    """2D truth table of output bit ``k`` under ``partition``."""
    return to_matrix(function.component(k), partition, function.n_inputs)


class TwoDimensionalTable:
    """A 2D truth table of a single-output function under a partition.

    Wraps the raw matrix with the row-classification queries used by
    exact decomposition (Theorem 1) and by tests that mirror the
    paper's Examples 1 and 2.
    """

    def __init__(self, bits: np.ndarray, partition: Partition, n_inputs: int):
        bits = np.asarray(bits)
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("2D truth tables hold single-output (0/1) functions")
        self.partition = partition
        self.n_inputs = n_inputs
        self.matrix = to_matrix(bits.astype(np.uint8), partition, n_inputs)

    @classmethod
    def of_component(
        cls, function: BooleanFunction, k: int, partition: Partition
    ) -> "TwoDimensionalTable":
        return cls(function.component(k), partition, function.n_inputs)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def row(self, r: int) -> np.ndarray:
        return self.matrix[r]

    def distinct_rows(self) -> np.ndarray:
        """Unique row patterns in order of first appearance."""
        _, first = np.unique(self.matrix, axis=0, return_index=True)
        return self.matrix[np.sort(first)]

    def column_multiplicity(self) -> int:
        """Number of distinct rows — the classical decomposition metric.

        A function is disjointly decomposable with a *single-output*
        ``φ`` exactly when the distinct rows fit into
        ``{0, 1, V, ~V}`` (Theorem 1), which implies a column
        multiplicity of at most 4 (and at most 2 distinct non-constant
        patterns up to complement).
        """
        return len(self.distinct_rows())

    def flatten(self) -> np.ndarray:
        """Back to a per-input bit vector."""
        return from_matrix(self.matrix, self.partition, self.n_inputs)
