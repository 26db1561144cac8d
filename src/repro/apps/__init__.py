"""Application workloads from the paper's introduction.

Each module exercises the converter / shuffle through one of the §I
motivations:

* :mod:`repro.apps.hashing` — unique-permutation hash functions for
  parallel machines sharing memory (Dolev et al., ref. [6]): a shared
  memory contention simulator comparing permutation probing against
  linear probing.
* :mod:`repro.apps.bdd` — a reduced ordered BDD package plus
  variable-ordering search driven by permutation enumeration (refs. [3],
  [5]), including the Achilles-heel function whose BDD swings between
  polynomial and exponential size with the order.
* :mod:`repro.apps.crypto` — permutation-based diffusion layers and
  avalanche measurement (refs. [7], [17], [18]).
* :mod:`repro.apps.dsp` — data-stream reordering for pipelined FFT
  engines (ref. [15]): bit-reversal and stride permutations as converter
  indices, verified against NumPy's FFT.
* :mod:`repro.apps.montecarlo` — the sorting-assessment Monte-Carlo
  study of Oommen & Ng (ref. [14]).
"""

from repro.apps.hashing import (
    UniquePermutationHasher,
    LinearProbingHasher,
    ContentionResult,
    simulate_contention,
)
from repro.apps.bdd import BDD, achilles_heel, best_variable_order, bdd_size_under_order
from repro.apps.crypto import (
    PermutationDiffusionLayer,
    avalanche_profile,
    SPNetwork,
)
from repro.apps.dsp import (
    bit_reversal_permutation,
    stride_permutation,
    StreamReorderEngine,
    fft_with_explicit_reorder,
)
from repro.apps.pclass import (
    p_representative,
    p_class,
    are_p_equivalent,
    classify_all,
    count_p_classes_burnside,
)
from repro.apps.compression import (
    PermutationCodec,
    best_channel_order,
    compress_reordered,
)
from repro.apps.montecarlo import (
    insertion_sort_cost,
    sortedness_study,
)

__all__ = [
    "UniquePermutationHasher",
    "LinearProbingHasher",
    "ContentionResult",
    "simulate_contention",
    "BDD",
    "achilles_heel",
    "best_variable_order",
    "bdd_size_under_order",
    "PermutationDiffusionLayer",
    "avalanche_profile",
    "SPNetwork",
    "bit_reversal_permutation",
    "stride_permutation",
    "StreamReorderEngine",
    "fft_with_explicit_reorder",
    "insertion_sort_cost",
    "sortedness_study",
    "p_representative",
    "p_class",
    "are_p_equivalent",
    "classify_all",
    "count_p_classes_burnside",
    "PermutationCodec",
    "best_channel_order",
    "compress_reordered",
]
