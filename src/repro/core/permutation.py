"""Permutation value type.

One-line notation throughout: a permutation of ``{0, …, n−1}`` is the
sequence ``p`` with ``p[i]`` the image of ``i``.  The paper's opening
example "2 0 1 3" (0↦2, 1↦0, 2↦1, 3↦3) is ``Permutation((2, 0, 1, 3))``.

The class is immutable and hashable so permutations can key dictionaries
and participate in sets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.core.factorial import element_width

__all__ = ["Permutation"]

T = TypeVar("T")


class Permutation:
    """An immutable permutation of ``{0, …, n−1}`` in one-line notation."""

    __slots__ = ("seq",)

    def __init__(self, seq: Iterable[int]):
        s = tuple(int(x) for x in seq)
        if sorted(s) != list(range(len(s))):
            raise ValueError(f"{s} is not a permutation of 0..{len(s) - 1}")
        object.__setattr__(self, "seq", s)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Permutation is immutable")

    # -- constructors --------------------------------------------------- #

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        """``n−1, n−2, …, 0`` — the permutation at index ``n! − 1``."""
        return cls(range(n - 1, -1, -1))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator | None = None) -> "Permutation":
        rng = rng if rng is not None else np.random.default_rng()
        return cls(rng.permutation(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles, e.g. ``from_cycles(4, [(0, 2, 1)])``."""
        seq = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            for a in cyc:
                if a in seen:
                    raise ValueError(f"element {a} appears in two cycles")
                seen.add(a)
            for i, a in enumerate(cyc):
                seq[a] = cyc[(i + 1) % len(cyc)]
        return cls(seq)

    @classmethod
    def from_packed(cls, value: int, n: int) -> "Permutation":
        """Decode the paper's packed word (MSB-first elements).

        Inverse of :meth:`packed_value`: e.g. for n = 4 the 8-bit word
        ``0b11100100 = 228`` decodes to ``3 2 1 0``.
        """
        w = element_width(n)
        mask = (1 << w) - 1
        seq = [(value >> (w * (n - 1 - i))) & mask for i in range(n)]
        return cls(seq)

    # -- basic protocol -------------------------------------------------- #

    @property
    def n(self) -> int:
        return len(self.seq)

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self) -> Iterator[int]:
        return iter(self.seq)

    def __getitem__(self, i: int) -> int:
        return self.seq[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Permutation):
            return self.seq == other.seq
        if isinstance(other, (tuple, list)):
            return self.seq == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.seq)

    def __repr__(self) -> str:
        return f"Permutation({list(self.seq)})"

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.seq)

    # -- algebra --------------------------------------------------------- #

    def __call__(self, i: int) -> int:
        """Image of point ``i``."""
        return self.seq[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """``self ∘ other``: apply ``other`` first, then ``self``."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.seq[other.seq[i]] for i in range(self.n))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.seq):
            inv[v] = i
        return Permutation(inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, items: Sequence[T]) -> list[T]:
        """Permute a sequence: output position ``i`` gets ``items[p[i]]``.

        This is the data-reordering view used by the DSP application:
        ``Permutation(p).apply(stream)`` reorders a data block.
        """
        if len(items) != self.n:
            raise ValueError("sequence length mismatch")
        return [items[v] for v in self.seq]

    def scatter(self, items: Sequence[T]) -> list[T]:
        """Inverse reordering: ``items[i]`` lands at position ``p[i]``."""
        if len(items) != self.n:
            raise ValueError("sequence length mismatch")
        out: list[T] = [items[0]] * self.n
        for i, v in enumerate(self.seq):
            out[v] = items[i]
        return out

    # -- structure -------------------------------------------------------- #

    def fixed_points(self) -> tuple[int, ...]:
        """Points with ``p[i] == i`` (paper §III-C uses these directly)."""
        return tuple(i for i, v in enumerate(self.seq) if v == i)

    @property
    def is_derangement(self) -> bool:
        """True when no element is fixed — the §III-C statistic."""
        return all(v != i for i, v in enumerate(self.seq))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.seq))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition (singletons included)."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.seq[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.seq[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted cycle lengths (a partition of n)."""
        return tuple(sorted(len(c) for c in self.cycles()))

    @property
    def order(self) -> int:
        """Order in the symmetric group: lcm of cycle lengths."""
        import math

        o = 1
        for c in self.cycles():
            o = math.lcm(o, len(c))
        return o

    @property
    def sign(self) -> int:
        """+1 for even permutations, −1 for odd."""
        transpositions = sum(len(c) - 1 for c in self.cycles())
        return -1 if transpositions % 2 else 1

    def inversions(self) -> int:
        """Number of pairs ``i < j`` with ``p[i] > p[j]``."""
        return sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.seq[i] > self.seq[j]
        )

    def displacement(self) -> int:
        """Total displacement ``Σ |p[i] − i|`` — the 'almost sorted' metric
        behind the Oommen/Ng discussion of Insertion-Sort behaviour."""
        return sum(abs(v - i) for i, v in enumerate(self.seq))

    # -- encodings --------------------------------------------------------- #

    def packed_value(self) -> int:
        """The paper's single-word encoding: elements MSB first.

        For n = 4: ``3 2 1 0`` → ``11 10 01 00`` = 228.  The word has
        ``n·ceil(log2 n)`` bits.
        """
        w = element_width(self.n)
        value = 0
        for v in self.seq:
            value = (value << w) | v
        return value

    @property
    def index(self) -> int:
        """Lexicographic rank — delegates to :mod:`repro.core.lehmer`."""
        from repro.core.lehmer import rank

        return rank(self.seq)

    def lehmer(self) -> tuple[int, ...]:
        """Factorial digit vector (LSB first)."""
        from repro.core.lehmer import lehmer_digits

        return lehmer_digits(self.seq)
