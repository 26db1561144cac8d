"""Work-decomposition tests."""

import pytest

from repro.parallel.sharding import ShardSpec, hardened_map_reduce, index_shards


class TestIndexShards:
    def test_covers_range_contiguously(self):
        shards = index_shards(100, 7)
        assert shards[0].start == 0
        assert shards[-1].stop == 100
        for a, b in zip(shards, shards[1:]):
            assert a.stop == b.start

    def test_near_equal_sizes(self):
        shards = index_shards(100, 7)
        sizes = [s.size for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_extra_goes_to_leading_shards(self):
        shards = index_shards(10, 3)
        assert [s.size for s in shards] == [4, 3, 3]

    def test_more_shards_than_items(self):
        shards = index_shards(2, 5)
        assert len(shards) == 2
        assert all(s.size == 1 for s in shards)

    def test_zero_total(self):
        assert index_shards(0, 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            index_shards(-1, 2)
        with pytest.raises(ValueError):
            index_shards(5, 0)

    def test_shard_iteration(self):
        s = ShardSpec(0, 3, 7)
        assert list(s) == [3, 4, 5, 6]
        assert s.size == 4


def _square_sum(shard: ShardSpec) -> int:
    return sum(i * i for i in shard)


def _add(a: int, b: int) -> int:
    return a + b


class TestMapReduce:
    """The map-reduce contract of :func:`hardened_map_reduce`."""

    def test_inline_path(self):
        shards = index_shards(50, 4)
        got = hardened_map_reduce(_square_sum, shards, _add, workers=1)
        assert got == sum(i * i for i in range(50))

    def test_process_path(self):
        shards = index_shards(50, 4)
        got = hardened_map_reduce(_square_sum, shards, _add, workers=4)
        assert got == sum(i * i for i in range(50))

    def test_worker_count_invariance(self):
        shards = index_shards(33, 5)
        results = {
            hardened_map_reduce(_square_sum, shards, _add, workers=w)
            for w in (1, 2, 5)
        }
        assert len(results) == 1

    def test_order_sensitive_reduction_is_shard_ordered(self):
        """Reduce must fold in shard order even under a pool: use a
        non-commutative reduction to detect reordering."""
        shards = index_shards(12, 4)

        got = hardened_map_reduce(_first_index, shards, _keep_left_append, workers=4)
        assert got == [0, 3, 6, 9]

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            hardened_map_reduce(_square_sum, [], _add)


def _first_index(shard: ShardSpec) -> list[int]:
    return [shard.start]


def _keep_left_append(a: list[int], b: list[int]) -> list[int]:
    return a + b
