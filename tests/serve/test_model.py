"""Request validation and the result cache."""

import pytest

from repro.errors import InvalidRequestError, ReproError
from repro.serve.cache import ResultCache
from repro.serve.model import WORKLOADS, validate_wide


def validate(workload, n, index=None, count=1, max_n=8, max_count=63):
    """Validate a request; ``index`` is a one-lane unrank's index."""
    indices = None if index is None else [index]
    validate_wide(workload, n, count, indices, max_n=max_n, max_count=max_count)


class TestValidateRequest:
    def test_accepts_all_workloads(self):
        validate("unrank", 4, 7)
        validate("random_perm", 4)
        validate("shuffle", 4)
        validate_wide("unrank", 4, 3, [0, 7, 23], max_n=8, max_count=63)
        validate("random_perm", 4, count=63)

    @pytest.mark.parametrize("workload", ["bogus", "", "UNRANK", "unranks"])
    def test_unknown_workload(self, workload):
        with pytest.raises(InvalidRequestError, match="unknown workload"):
            validate(workload, 4, 0)

    def test_error_is_both_repro_and_value_error(self):
        with pytest.raises(ReproError):
            validate("bogus", 4, 0)
        with pytest.raises(ValueError):
            validate("bogus", 4, 0)

    @pytest.mark.parametrize("n", [0, -1, 13, True, "4"])
    def test_bad_n(self, n):
        with pytest.raises(InvalidRequestError):
            validate("unrank", n, 0, max_n=12)

    def test_shuffle_needs_two_elements(self):
        with pytest.raises(InvalidRequestError, match="2..12"):
            validate("shuffle", 1, max_n=12)
        validate("unrank", 1, 0, max_n=12)  # unrank is fine

    @pytest.mark.parametrize("index", [None, -1, 24, 1.5, True])
    def test_bad_unrank_index(self, index):
        with pytest.raises(InvalidRequestError):
            validate("unrank", 4, index)

    @pytest.mark.parametrize("workload", ["random_perm", "shuffle"])
    def test_random_workloads_reject_caller_index(self, workload):
        with pytest.raises(InvalidRequestError, match="draws its own"):
            validate(workload, 4, 3)

    @pytest.mark.parametrize("count", [0, -1, 64, True, 1.0])
    def test_bad_count(self, count):
        with pytest.raises(InvalidRequestError, match="count"):
            validate("random_perm", 4, count=count)

    @pytest.mark.parametrize("indices", [[], [0, 1], [0, 1, 2, 3]])
    def test_unrank_needs_one_index_per_lane(self, indices):
        with pytest.raises(InvalidRequestError, match="count=3"):
            validate_wide("unrank", 4, 3, indices, max_n=8, max_count=63)

    def test_one_bad_index_rejects_the_whole_request(self):
        with pytest.raises(InvalidRequestError, match="outside"):
            validate_wide("unrank", 4, 3, [0, 24, 1], max_n=8, max_count=63)

    def test_workloads_tuple_is_stable(self):
        assert WORKLOADS == ("unrank", "random_perm", "shuffle")


class TestResultCache:
    def test_get_put_and_recency_eviction(self):
        c = ResultCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refreshes a
        c.put("c", 3)  # evicts b (LRU)
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.evictions == 1

    def test_hit_miss_accounting(self):
        c = ResultCache(4)
        assert c.get("x") is None
        c.put("x", 9)
        assert c.get("x") == 9
        assert (c.hits, c.misses) == (1, 1)

    def test_capacity_zero_disables(self):
        c = ResultCache(0)
        c.put("a", 1)
        assert len(c) == 0 and c.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_put_refreshes_existing_key(self):
        c = ResultCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)  # refresh, not insert
        c.put("c", 3)  # evicts b
        assert c.get("a") == 10 and c.get("b") is None
