"""A small randomness test battery for the hardware generators.

Fig. 4 eyeballs uniformity; production use of the generators (Monte
Carlo, §III) deserves sharper instruments.  The battery covers the
classic cheap tests, each returning a p-value against the null of ideal
randomness and an effect size:

* :func:`monobit_test` — balance of ones in a bitstream;
* :func:`runs_test` — Wald–Wolfowitz runs in a bitstream;
* :func:`serial_correlation` — lag-k autocorrelation of word outputs;
* :func:`battery` — run everything over an LFSR and summarise.

The permutation-level tests (the Fig.-4 chi-square at any n, the
derangement count) are the accumulators of :mod:`repro.analysis.stream`.

LFSR sequences famously pass balance/runs tests within one period (their
design property) while failing *linear-complexity* tests — which is fine
for the paper's Monte-Carlo use and is documented behaviour, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.rng.lfsr import LFSRBase

__all__ = [
    "monobit_test",
    "runs_test",
    "serial_correlation",
    "TestResult",
    "battery",
]


@dataclass(frozen=True)
class TestResult:
    """One test's statistic, iid p-value and effect size.

    ``effect`` is the deviation in the test's own units, for gating
    where a p-value is the wrong null: ones fraction − ½ (monobit),
    runs / expected − 1 (runs), the correlation r (serial); infinite
    where the statistic is degenerate (a constant stream).
    """

    name: str
    statistic: float
    p_value: float
    effect: float = 0.0

    @property
    def passed(self) -> bool:
        """Conventional 1 % significance."""
        return self.p_value > 0.01


def _as_bits(bits: np.ndarray) -> np.ndarray:
    b = np.asarray(bits).astype(np.int8).ravel()
    if b.size == 0 or not np.isin(b, (0, 1)).all():
        raise ValueError("need a non-empty 0/1 array")
    return b


def monobit_test(bits: np.ndarray) -> TestResult:
    """NIST SP 800-22 frequency test: #ones ≈ #zeros."""
    b = _as_bits(bits)
    s = float(np.abs(2.0 * b.sum() - b.size)) / math.sqrt(b.size)
    p = math.erfc(s / math.sqrt(2.0))
    return TestResult("monobit", s, p, float(b.mean()) - 0.5)


def runs_test(bits: np.ndarray) -> TestResult:
    """Wald–Wolfowitz runs test on a bitstream."""
    b = _as_bits(bits)
    n = b.size
    pi = b.mean()
    if pi in (0.0, 1.0):
        return TestResult("runs", float("inf"), 0.0, float("inf"))
    runs = 1 + int((b[1:] != b[:-1]).sum())
    expected = 2.0 * n * pi * (1 - pi) + 1
    sigma = 2.0 * math.sqrt(n) * pi * (1 - pi)
    z = (runs - expected) / sigma
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TestResult("runs", z, p, runs / expected - 1.0)


def serial_correlation(words: np.ndarray, lag: int = 1) -> TestResult:
    """Lag-``lag`` autocorrelation of a word sequence, z-tested.

    Under randomness the sample autocorrelation is ~N(0, 1/N).
    """
    w = np.asarray(words, dtype=np.float64).ravel()
    if w.size <= lag + 1:
        raise ValueError("sequence too short for this lag")
    a = w[:-lag] - w[:-lag].mean()
    b = w[lag:] - w[lag:].mean()
    denom = math.sqrt(float((a * a).sum() * (b * b).sum()))
    if denom == 0.0:
        return TestResult(f"serial_lag{lag}", float("inf"), 0.0, float("inf"))
    r = float((a * b).sum()) / denom
    z = r * math.sqrt(w.size - lag)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TestResult(f"serial_lag{lag}", z, p, r)


def battery(
    lfsr: LFSRBase,
    draws: int = 4096,
    lags: tuple[int, ...] = (1, 2, 7),
) -> list[TestResult]:
    """Run the full battery over one generator's output words."""
    raw = lfsr.words(draws)
    if raw.dtype == object:  # width > 64: bigints need an explicit pass
        lsb = np.array([int(w) & 1 for w in raw], dtype=np.int8)
        words = np.array([int(w) for w in raw], dtype=np.float64)
    else:
        lsb = (raw.astype(np.uint64) & np.uint64(1)).astype(np.int8)
        words = raw.astype(np.float64)
    results = [monobit_test(lsb), runs_test(lsb)]
    for lag in lags:
        results.append(serial_correlation(words, lag=lag))
    return results
