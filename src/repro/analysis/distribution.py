"""The Fig.-4 bar chart: distribution of 2²⁰ Knuth-shuffle permutations.

Fig. 4 plots, for n = 4, the occurrence count of each of the 24
permutations among 2²⁰ = 1,048,576 shuffles of the identity, keyed by the
packed 8-bit output word (e.g. ``0 1 3 2`` → ``00 01 11 10`` = 30).  The
paper reads off ≈43,690 per bar (two quoted bars: 43,399 and 43,897) and
concludes the distribution is uniform.

The counts come from a ``source="shuffle"`` campaign
(:mod:`repro.analysis.stream`): at n = 4 its rank-bucket accumulator
holds one exact cell per rank.  This module lays those cells out as the
figure does and draws them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.factorial import element_width, factorial
from repro.core.lehmer import unrank_batch

__all__ = ["fig4_bars", "render_fig4"]


def fig4_bars(counts: Sequence[int], n: int = 4) -> list[tuple[int, str, int]]:
    """``(packed word, permutation, count)`` per rank, ascending packed
    word — the layout of the paper's figure.  ``counts[r]`` is the count
    of rank ``r``; the packed word puts element 0 in the high bits."""
    if len(counts) != factorial(n):
        raise ValueError(f"need {factorial(n)} rank counts, got {len(counts)}")
    width = element_width(n)
    rows = []
    for rank, perm in enumerate(unrank_batch(range(factorial(n)), n)):
        packed = 0
        for v in perm:
            packed = (packed << width) | int(v)
        rows.append((packed, " ".join(str(int(v)) for v in perm), int(counts[rank])))
    return sorted(rows)


def render_fig4(counts: Sequence[int], n: int = 4, width: int = 50) -> str:
    """ASCII bar chart of the figure, one line per permutation."""
    rows = fig4_bars(counts, n)
    peak = max(1, max(c for _, _, c in rows))
    return "\n".join(
        f"{packed:>4}  {perm:<12} {count:>9} {'#' * max(1, round(width * count / peak))}"
        for packed, perm, count in rows
    )
