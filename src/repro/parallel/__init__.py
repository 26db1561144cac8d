"""Process-parallel execution of the repository's big experiments.

The index-to-permutation converter makes the classic combinatorial
workloads *embarrassingly index-parallel*: any job over "all n!
permutations" (or a sampled subset) shards into contiguous index ranges,
each worker unranks and processes its own range, and results reduce
associatively.

* :mod:`repro.parallel.sharding` — deterministic work decomposition
  (index ranges, capacity-bounded ranges) and the one map-reduce runner,
  :func:`~repro.parallel.sharding.hardened_map_reduce`: an ordered,
  associative reduce with retries, timeouts, crash recovery and partial
  results;
* :mod:`repro.parallel.experiments` — index-space searches on it (BDD
  order search, P-class classification), each *bit-identical* to its
  sequential counterpart — asserted in the test suite, which is the
  property that matters on a real cluster.

The Monte-Carlo workloads (the Fig.-4 histogram, the derangement count)
are streaming campaigns (:mod:`repro.analysis.stream`) on the same
runner: each block is seeded on its own, so any shard or worker count
gives the same state.
"""

from repro.parallel.sharding import (
    index_shards,
    ShardSpec,
    hardened_map_reduce,
)
from repro.parallel.experiments import (
    parallel_best_order,
    parallel_classify,
)

__all__ = [
    "index_shards",
    "ShardSpec",
    "hardened_map_reduce",
    "parallel_best_order",
    "parallel_classify",
]
