"""Unit tests for variable partitions."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import Partition, all_partitions, partition_count, random_partition
from repro.boolean.partition import _from_masks


class TestConstruction:
    def test_sorts_members(self):
        p = Partition((3, 1), (2, 0))
        assert p.free == (1, 3)
        assert p.bound == (0, 2)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Partition((0, 1), (1, 2))

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            Partition((), (0,))
        with pytest.raises(ValueError):
            Partition((0,), ())

    def test_shapes(self):
        p = Partition((2, 3, 4), (0, 1))
        assert p.n_inputs == 5
        assert p.n_free == 3
        assert p.n_bound == 2
        assert p.n_rows == 8
        assert p.n_cols == 4

    def test_hashable_and_equal(self):
        assert Partition((1, 3), (0, 2)) == Partition((3, 1), (2, 0))
        assert len({Partition((1,), (0,)), Partition((1,), (0,))}) == 1

    def test_validate_for(self):
        Partition((2, 3), (0, 1)).validate_for(4)
        with pytest.raises(ValueError):
            Partition((2, 3), (0, 1)).validate_for(5)
        with pytest.raises(ValueError):
            Partition((2, 4), (0, 1)).validate_for(4)


class TestCoordinates:
    def test_row_col_roundtrip(self):
        p = Partition((2, 3), (0, 1))
        words = np.arange(16)
        rows, cols = p.row_col_of(words)
        assert p.word_of(rows, cols).tolist() == words.tolist()

    def test_scatter_index_is_permutation(self):
        p = Partition((1, 3), (0, 2))
        idx = p.scatter_index(4)
        assert sorted(idx.tolist()) == list(range(16))

    def test_scatter_index_layout(self):
        # low bits bound: row-major layout means idx[x] = x reordered
        p = Partition((2, 3), (0, 1))
        idx = p.scatter_index(4)
        # word x: row = x >> 2, col = x & 3 -> flat index = x
        assert idx.tolist() == list(range(16))


class TestNeighbours:
    def test_neighbour_count(self):
        p = Partition((2, 3), (0, 1))
        assert len(p.neighbours()) == 4  # 2 free x 2 bound swaps

    def test_neighbours_preserve_sizes(self):
        p = Partition((2, 3, 4), (0, 1))
        for nb in p.neighbours():
            assert nb.n_free == 3
            assert nb.n_bound == 2
            assert p.is_neighbour_of(nb)

    def test_self_not_neighbour(self):
        p = Partition((2, 3), (0, 1))
        assert not p.is_neighbour_of(p)

    def test_sample_neighbours_distinct(self, rng):
        p = Partition((3, 4, 5), (0, 1, 2))
        sampled = p.sample_neighbours(5, rng)
        assert len(sampled) == 5
        assert len(set(sampled)) == 5

    def test_sample_more_than_available(self, rng):
        p = Partition((1,), (0,))
        sampled = p.sample_neighbours(10, rng)
        assert len(sampled) == 1  # only one swap exists

    def test_neighbour_free_sets_differ_in_one(self):
        p = Partition((2, 3), (0, 1))
        for nb in p.neighbours():
            assert len(set(p.free) - set(nb.free)) == 1


class TestSharedValidation:
    def test_with_shared_first(self):
        p = Partition((2, 3), (0, 1))
        assert p.with_shared_first(0) is p
        with pytest.raises(ValueError):
            p.with_shared_first(2)


class TestGenerators:
    def test_random_partition_valid(self, rng):
        for _ in range(20):
            p = random_partition(8, 3, rng)
            p.validate_for(8)
            assert p.n_bound == 3

    def test_random_partition_bad_bound(self, rng):
        with pytest.raises(ValueError):
            random_partition(4, 0, rng)
        with pytest.raises(ValueError):
            random_partition(4, 4, rng)

    def test_all_partitions_complete(self):
        parts = list(all_partitions(5, 2))
        assert len(parts) == partition_count(5, 2) == 10
        assert len(set(parts)) == 10
        for p in parts:
            p.validate_for(5)

    def test_random_partition_covers_space(self, rng):
        seen = {random_partition(5, 2, rng) for _ in range(300)}
        assert len(seen) == partition_count(5, 2)

    def test_str(self):
        assert str(Partition((1,), (0,))) == "A={x2} B={x1}"


# ----------------------------------------------------------------------
# The bitmask representation against the tuple-based one it replaced
# ----------------------------------------------------------------------
def _tuple_neighbours(free, bound):
    """Neighbour enumeration of the tuple representation, in order."""
    return [
        (
            tuple(sorted(set(free) - {a} | {b})),
            tuple(sorted(set(bound) - {b} | {a})),
        )
        for a in free
        for b in bound
    ]


def _tuple_random_partition(n_inputs, bound_size, rng):
    """``random_partition`` as the tuple representation drew it."""
    variables = rng.permutation(n_inputs)
    bound = tuple(int(v) for v in variables[:bound_size])
    free = tuple(int(v) for v in variables[bound_size:])
    return tuple(sorted(free)), tuple(sorted(bound))


def _tuple_sample_neighbours(free, bound, count, rng):
    """``sample_neighbours`` as the tuple representation drew it."""
    total = len(free) * len(bound)
    if count >= total:
        return _tuple_neighbours(free, bound)
    picks = rng.choice(total, size=count, replace=False)
    result = []
    for pick in picks:
        a = free[int(pick) // len(bound)]
        b = bound[int(pick) % len(bound)]
        result.append(
            (
                tuple(sorted(set(free) - {a} | {b})),
                tuple(sorted(set(bound) - {b} | {a})),
            )
        )
    return result


def _as_tuples(partition):
    return partition.free, partition.bound


@st.composite
def _splits(draw):
    n_inputs = draw(st.integers(2, 10))
    order = draw(st.permutations(list(range(n_inputs))))
    bound_size = draw(st.integers(1, n_inputs - 1))
    return n_inputs, tuple(order[bound_size:]), tuple(order[:bound_size])


class TestBitmaskView:
    @given(_splits())
    @settings(max_examples=150, deadline=None)
    def test_view_agrees_with_tuple_construction(self, split):
        n_inputs, free, bound = split
        built = Partition(free, bound)
        # the same partition through the trusted bitmask constructor,
        # whose tuple views are derived from the masks on first use
        viewed = _from_masks(
            sum(1 << v for v in free), sum(1 << v for v in bound),
            len(free), len(bound),
        )
        assert viewed.free == built.free == tuple(sorted(free))
        assert viewed.bound == built.bound == tuple(sorted(bound))
        assert (viewed.n_rows, viewed.n_cols) == (built.n_rows, built.n_cols)
        assert viewed == built and hash(viewed) == hash(built) == built.mask
        twin = Partition(tuple(reversed(free)), tuple(reversed(bound)))
        assert twin == built and hash(twin) == hash(built)
        assert [_as_tuples(nb) for nb in built.neighbours()] == (
            _tuple_neighbours(built.free, built.bound)
        )
        for nb, (nb_free, nb_bound) in zip(
            built.neighbours(), _tuple_neighbours(built.free, built.bound)
        ):
            assert nb == Partition(nb_free, nb_bound)
            assert hash(nb) == hash(Partition(nb_free, nb_bound))
            assert built.is_neighbour_of(nb)

    def test_pickle_round_trip(self):
        partition = random_partition(9, 4, np.random.default_rng(1))
        clone = pickle.loads(pickle.dumps(partition))
        assert clone == partition and clone.free == partition.free

    def test_immutable(self):
        partition = Partition((2, 3), (0, 1))
        with pytest.raises(AttributeError):
            partition.mask = 1


class TestSeedPins:
    """Same partitions, same generator state as the tuple representation."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "n_inputs,bound_size", [(4, 2), (8, 3), (12, 7), (16, 9)]
    )
    def test_random_partition(self, seed, n_inputs, bound_size):
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        for _ in range(25):
            drawn = random_partition(n_inputs, bound_size, rng_new)
            assert _as_tuples(drawn) == _tuple_random_partition(
                n_inputs, bound_size, rng_old
            )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 34, 35, 40])
    def test_sample_neighbours(self, seed, count):
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        current = random_partition(12, 7, np.random.default_rng(seed + 100))
        for _ in range(10):
            sampled = current.sample_neighbours(count, rng_new)
            expected = _tuple_sample_neighbours(
                current.free, current.bound, count, rng_old
            )
            assert [_as_tuples(nb) for nb in sampled] == expected
            current = sampled[-1]
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
