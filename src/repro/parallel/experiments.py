"""Process-parallel index-space searches over the converter.

Each runner shards an exhaustive search into contiguous index ranges
through :func:`~repro.parallel.sharding.hardened_map_reduce` and is
bit-identical to its sequential counterpart for any worker count — the
shard boundaries and shard-ordered reduction guarantee it.  Worker
functions are module-level so they pickle.  (The Monte-Carlo workloads —
the Fig.-4 histogram and the derangement count — are ``shuffle``-source
campaigns of :mod:`repro.analysis.stream`.)
"""

from __future__ import annotations

from repro.apps.bdd import bdd_size_under_order
from repro.apps.pclass import p_representative
from repro.core.factorial import factorial
from repro.core.lehmer import unrank_batch
from repro.parallel.sharding import ShardSpec, hardened_map_reduce, index_shards

__all__ = ["parallel_best_order", "parallel_classify"]


# --------------------------------------------------------------------- #
# BDD variable-order search: shard the n! index space


class _OrderSearchWork:
    def __init__(self, tt: int, n_vars: int):
        self.tt = tt
        self.n_vars = n_vars

    def __call__(self, shard: ShardSpec) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
        best = worst = None
        best_size = 1 << 62
        worst_size = -1
        orders = unrank_batch(list(shard), self.n_vars)
        for row in orders:
            order = tuple(int(x) for x in row)
            size = bdd_size_under_order(self.tt, self.n_vars, order)
            if size < best_size or (size == best_size and (best is None or order < best)):
                best, best_size = order, size
            if size > worst_size or (size == worst_size and (worst is None or order < worst)):
                worst, worst_size = order, size
        assert best is not None and worst is not None
        return best, best_size, worst, worst_size


def _merge_order_results(a, b):
    best_a, bs_a, worst_a, ws_a = a
    best_b, bs_b, worst_b, ws_b = b
    best, bs = (best_a, bs_a)
    if bs_b < bs or (bs_b == bs and best_b < best):
        best, bs = best_b, bs_b
    worst, ws = (worst_a, ws_a)
    if ws_b > ws or (ws_b == ws and worst_b < worst):
        worst, ws = worst_b, ws_b
    return best, bs, worst, ws


def parallel_best_order(
    tt: int, n_vars: int, workers: int = 4
) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
    """Exhaustive BDD order search sharded over the index space.

    Worker ``w`` unranks its own contiguous slice of ``0..n!−1`` — the
    converter *is* the work-distribution mechanism, exactly the usage the
    paper's introduction sketches for hardware-assisted search.  Ties
    resolve to the lexicographically smallest order, making the result
    worker-count invariant.
    """
    shards = index_shards(factorial(n_vars), workers)
    return hardened_map_reduce(
        _OrderSearchWork(tt, n_vars), shards, _merge_order_results, workers=workers
    )


# --------------------------------------------------------------------- #
# P-class classification: shard the function space


class _ClassifyWork:
    def __init__(self, n_vars: int):
        self.n_vars = n_vars

    def __call__(self, shard: ShardSpec) -> set[int]:
        return {p_representative(tt, self.n_vars) for tt in shard}


def _union(a: set[int], b: set[int]) -> set[int]:
    return a | b


def parallel_classify(n_vars: int, workers: int = 4) -> set[int]:
    """All P-representatives, sharded over the 2^(2^n) truth tables."""
    total = 1 << (1 << n_vars)
    shards = index_shards(total, max(workers, 1) * 4)
    return hardened_map_reduce(_ClassifyWork(n_vars), shards, _union, workers=workers)
