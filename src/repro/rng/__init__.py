"""Pseudo-random number substrate.

The paper's random permutation generators are driven by hardware linear
feedback shift registers (LFSRs).  This package provides:

* :mod:`repro.rng.taps` — maximal-length feedback tap tables for register
  widths 2–64 (the classic XAPP052 set);
* :mod:`repro.rng.lfsr` — bit-exact Fibonacci and Galois LFSR models with
  O(log k) jump-ahead (GF(2) matrix exponentiation) and table-driven batch
  word generation, plus a builder that emits the equivalent gate-level
  netlist for resource accounting;
* :mod:`repro.rng.scaled` — the Fig.-2 scaled random-integer generator
  (``i = (k·x) >> m`` via a shift-and-add multiplier) together with the
  *exact* pigeonhole bias analysis the paper sketches (7 of 24 integers
  twice as likely at ``m = 5``, ~0.1 % imbalance at ``m = 31``).
"""

from repro.rng.taps import MAXIMAL_TAPS, taps_for_width, feedback_mask
from repro.rng.lfsr import FibonacciLFSR, GaloisLFSR, build_lfsr_netlist, dense_seed
from repro.rng.scaled import (
    ScaledRandomInteger,
    scale_word,
    bias_profile,
    BiasReport,
    build_scaled_netlist,
)

__all__ = [
    "MAXIMAL_TAPS",
    "taps_for_width",
    "feedback_mask",
    "FibonacciLFSR",
    "GaloisLFSR",
    "build_lfsr_netlist",
    "dense_seed",
    "ScaledRandomInteger",
    "scale_word",
    "bias_profile",
    "BiasReport",
    "build_scaled_netlist",
]
