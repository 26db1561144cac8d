"""repro — reproduction of Butler & Sasao, *Hardware Index to Permutation
Converter* (RAW @ IPDPS 2012).

The package builds the paper's two circuits — the factorial-number-system
index-to-permutation converter and the Knuth-shuffle random permutation
generator — both as fast functional models and as gate-level netlists on a
simulated hardware substrate, together with the FPGA resource/timing models
and the statistical experiments of the paper's evaluation.

Quick start::

    from repro import IndexToPermutationConverter, KnuthShuffleCircuit

    conv = IndexToPermutationConverter(4)
    conv.convert(23)               # -> (3, 2, 1, 0)
    conv.convert_batch(range(24))  # all 24 permutations, NumPy-batched

    shuffle = KnuthShuffleCircuit(8)
    shuffle.sample(1000)           # 1000 uniform random permutations

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    FactorialDigits,
    IndexToPermutationConverter,
    KnuthShuffleCircuit,
    Permutation,
    PermutationSequence,
    all_permutations,
    factorial,
    rank,
    unrank,
)
from repro.errors import (
    FaultDetectedError,
    InvalidIndexError,
    InvalidPermutationError,
    ReproError,
    SilentCorruptionError,
    WorkerFailedError,
)
from repro.rng import FibonacciLFSR, GaloisLFSR, ScaledRandomInteger
from repro.robustness import CheckedConverter

__version__ = "1.1.0"

__all__ = [
    "CheckedConverter",
    "FaultDetectedError",
    "InvalidIndexError",
    "InvalidPermutationError",
    "ReproError",
    "SilentCorruptionError",
    "WorkerFailedError",
    "FactorialDigits",
    "IndexToPermutationConverter",
    "KnuthShuffleCircuit",
    "Permutation",
    "PermutationSequence",
    "all_permutations",
    "factorial",
    "rank",
    "unrank",
    "FibonacciLFSR",
    "GaloisLFSR",
    "ScaledRandomInteger",
    "__version__",
]
