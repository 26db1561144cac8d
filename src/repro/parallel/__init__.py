"""Process-parallel execution of the repository's big experiments.

Fault campaigns (:mod:`repro.robustness.campaign`) and the streaming
statistics campaigns (:mod:`repro.analysis.stream`: population
validation, the Fig.-4 histogram, the derangement count) split their
work into contiguous index ranges; each worker processes its own range
and results reduce associatively.

* :mod:`repro.parallel.sharding` — deterministic work decomposition
  (contiguous index ranges) and the one map-reduce runner,
  :func:`~repro.parallel.sharding.hardened_map_reduce`: an ordered,
  associative reduce with retries, timeouts, crash recovery and partial
  results.

Each campaign block is seeded on its own, so any shard or worker count
gives the same state.
"""

from repro.parallel.sharding import (
    index_shards,
    ShardSpec,
    hardened_map_reduce,
)

__all__ = [
    "index_shards",
    "ShardSpec",
    "hardened_map_reduce",
]
