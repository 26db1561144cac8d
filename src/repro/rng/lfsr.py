"""Linear feedback shift registers, bit-exact with the hardware.

Both canonical forms are provided:

* :class:`FibonacciLFSR` (many-to-one): the feedback bit is the XOR of the
  tapped stages and is shifted in at the bottom.
* :class:`GaloisLFSR` (one-to-many): the output bit is XORed into the
  tapped stages as the register shifts.

With a primitive feedback polynomial both forms are *maximal*: they visit
every nonzero ``m``-bit state exactly once per period of ``2^m − 1`` (the
all-zero state is a fixed point and is excluded, which is why the paper's
5-bit generator produces "all 31 5-bit numbers except 0").

Because the state transition is linear over GF(2), ``k`` steps compose into
a single matrix; :meth:`LFSRBase.jump` exponentiates it in ``O(m³ log k)``
to leap ahead without generating intermediate states (``warm_up`` uses it
to clock past a sparse seed's stretch).  Parallel Monte-Carlo work does
not split one stream: each campaign block seeds its own registers
(:mod:`repro.analysis.stream`).  The same linearity drives
:meth:`FibonacciLFSR.words`: the state ``t`` clocks ahead
is the XOR of one tabulated column per set bit of the current state, so
a batch of words costs a few NumPy calls per :data:`CLOCK_TABLE_SPAN`
words instead of one Python step per word.

:func:`add_lfsr` emits the equivalent register+XOR netlist into a circuit
under construction; this is what the Knuth-shuffle circuit instantiates
per stage for Table IV's resource accounting.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from repro.hdl.gates import Op
from repro.hdl.netlist import Bus, Netlist
from repro.rng.taps import feedback_mask, taps_for_width

__all__ = [
    "CLOCK_TABLE_SPAN",
    "LFSRBase",
    "FibonacciLFSR",
    "GaloisLFSR",
    "dense_seed",
    "add_lfsr",
    "build_lfsr_netlist",
]


#: Clocks one :func:`_clock_table` covers: ``words(count)`` emits this
#: many words per table pass.  A table is ``width × span`` words, 124 KB
#: at m = 31; a Knuth-shuffle circuit holds one per stage width.  4096
#: would save ~20 µs per 4096 words for four times the memory.
CLOCK_TABLE_SPAN = 1024


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of ``x``, lowest first."""
    return [i for i in range(x.bit_length()) if x >> i & 1]


def dense_seed(width: int, salt: int = 0) -> int:
    """A nonzero seed with roughly half its bits set.

    The tabulated polynomials are low-weight (trinomials/pentanomials),
    and low-weight *seeds* then sit in a sparse stretch of the
    m-sequence: from seed 1 the 31-bit register emits only ~29 % ones
    over its first 2,000 outputs.  Statistical consumers should start
    from a dense state (or :meth:`LFSRBase.warm_up` past the stretch);
    this helper derives one from the golden-ratio constant.
    """
    if width < 2:
        raise ValueError("width must be at least 2")
    full = (1 << width) - 1
    value = (0x9E3779B97F4A7C15 * (salt * 2 + 1)) % full
    return value + 1  # in 1..full: nonzero and within range


class LFSRBase:
    """Common machinery for both LFSR forms."""

    def __init__(self, width: int, taps: tuple[int, ...] | None = None, seed: int = 1):
        if width < 2:
            raise ValueError("LFSR width must be at least 2")
        self.width = width
        self.taps = tuple(taps) if taps is not None else taps_for_width(width)
        self.tap_mask = feedback_mask(width, self.taps)
        self.full_mask = (1 << width) - 1
        if not (0 < seed <= self.full_mask):
            raise ValueError(f"seed must be a nonzero {width}-bit value")
        self.seed = seed
        self.state = seed

    @property
    def period(self) -> int:
        """Sequence period for maximal-length taps: ``2^width − 1``."""
        return self.full_mask

    def _step(self, state: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self) -> None:
        self.state = self.seed

    def warm_up(self, steps: int | None = None) -> None:
        """Advance past the low-weight-seed transient (default: 8·width
        clocks, enough to fill the register with sequence history)."""
        self.jump(steps if steps is not None else 8 * self.width)

    def next_word(self) -> int:
        """Advance one clock and return the new state word."""
        self.state = self._step(self.state)
        return self.state

    def next_fraction(self) -> float:
        """The paper's view of the state: a fraction ``0 < x < 1``.

        A virtual binary point sits left of the MSB, so the word ``s``
        denotes ``s / 2^m``.
        """
        return self.next_word() / (1 << self.width)

    def words(self, count: int) -> np.ndarray:
        """Generate ``count`` successive state words.

        Machine-word registers come back in the smallest unsigned tier
        that holds them (``uint8``/``uint32``/``uint64`` — the same
        tiers the compiled-simulation boundary uses), so downstream
        NumPy consumers (:mod:`repro.rng.scaled`, :mod:`repro.analysis`)
        stay vectorised.  Only widths above 64 bits fall back to an
        object array of Python bigints.
        """
        if self.width <= 8:
            dtype: Any = np.uint8
        elif self.width <= 32:
            dtype = np.uint32
        elif self.width <= 64:
            dtype = np.uint64
        else:
            dtype = object
        out = np.empty(count, dtype=dtype)
        s = self.state
        step = self._step
        for i in range(count):
            s = step(s)
            out[i] = s
        self.state = s
        return out

    def iter_words(self) -> Iterator[int]:
        """Endless stream of state words."""
        while True:
            yield self.next_word()

    # -- jump-ahead ---------------------------------------------------- #

    def _transition_columns(self) -> list[int]:
        """Column images of the one-step map: ``col[i] = step(e_i)``.

        Valid because the step is GF(2)-linear (pure XOR/shift network).
        """
        return [self._step(1 << i) for i in range(self.width)]

    @staticmethod
    def _apply_columns(cols: list[int], state: int) -> int:
        out = 0
        while state:
            low = state & -state
            out ^= cols[low.bit_length() - 1]
            state ^= low
        return out

    def jump(self, steps: int) -> int:
        """Advance ``steps`` clocks in O(m³ log steps); returns new state."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        cols = self._transition_columns()
        result = self.state
        k = steps
        while k:
            if k & 1:
                result = self._apply_columns(cols, result)
            k >>= 1
            if k:
                cols = [self._apply_columns(cols, c) for c in cols]
        self.state = result
        return result


class FibonacciLFSR(LFSRBase):
    """Many-to-one LFSR: XOR of tapped bits shifts in at bit 0."""

    def _step(self, state: int) -> int:
        fb = _parity(state & self.tap_mask)
        return ((state << 1) & self.full_mask) | fb

    def words(self, count: int) -> np.ndarray:
        """Vectorised batch generation, bit-exact with the scalar loop.

        The step is GF(2)-linear, so the state ``t`` clocks ahead of
        ``s`` is the XOR, over the set bits ``i`` of ``s``, of the state
        ``t`` clocks ahead of the unit state ``e_i``.  :func:`_clock_table`
        holds those states for ``t = 1 … CLOCK_TABLE_SPAN``; each span of
        words is then one row gather and one XOR reduction, and its last
        word seeds the next span.  Registers wider than 64 bits use the
        scalar clock loop.
        """
        if self.width > 64:
            return super().words(count)
        table = _clock_table(self.width, self.taps)
        out = np.empty(count, dtype=table.dtype)
        state = self.state
        span = table.shape[1]
        for lo in range(0, count, span):
            hi = min(lo + span, count)
            np.bitwise_xor.reduce(
                table[_set_bits(state), : hi - lo], axis=0, out=out[lo:hi]
            )
            state = int(out[hi - 1])
        self.state = state
        return out.astype(np.uint8) if self.width <= 8 else out


@lru_cache(maxsize=16)
def _clock_table(width: int, taps: tuple[int, ...]) -> np.ndarray:
    """``table[i, t − 1]``: the Fibonacci state ``t`` clocks after ``e_i``.

    One read-only table per ``(width, taps)`` and process, for ``t = 1 …
    CLOCK_TABLE_SPAN``, stored as ``uint32`` up to 32 bits and ``uint64``
    up to 64.  Built by doubling: column ``t + j`` of row ``i`` is
    ``step^j`` applied to column ``t`` of row ``i``, which by linearity is
    the XOR of columns ``j`` of the rows named by that state's set bits.
    """
    lfsr = FibonacciLFSR(width, taps)
    dtype = np.uint32 if width <= 32 else np.uint64
    table = np.empty((width, CLOCK_TABLE_SPAN), dtype=dtype)
    table[:, 0] = [lfsr._step(1 << i) for i in range(width)]
    done = 1
    while done < CLOCK_TABLE_SPAN:
        more = min(done, CLOCK_TABLE_SPAN - done)
        for i in range(width):
            np.bitwise_xor.reduce(
                table[_set_bits(int(table[i, done - 1])), :more],
                axis=0,
                out=table[i, done : done + more],
            )
        done += more
    table.setflags(write=False)
    return table


class GaloisLFSR(LFSRBase):
    """One-to-many LFSR: the bit shifted out is XORed into the taps.

    Uses the reciprocal arrangement of the same primitive polynomial, so
    the period is identical to the Fibonacci form.
    """

    def _step(self, state: int) -> int:
        lsb = state & 1
        state >>= 1
        if lsb:
            # The tap mask includes bit width−1 (the width position is
            # always tapped), which supplies the new MSB after the shift.
            state ^= self.tap_mask
        return state


def add_lfsr(
    nl: Netlist,
    width: int,
    taps: tuple[int, ...] | None = None,
    seed: int = 1,
    name: str = "lfsr",
) -> Bus:
    """Instantiate a Fibonacci LFSR inside ``nl``; returns the state bus.

    The structure is ``width`` flip-flops plus an XOR feedback tree over
    the tapped Q outputs — exactly the per-stage random source counted in
    Table IV.
    """
    taps = tuple(taps) if taps is not None else taps_for_width(width)
    if not (0 < seed < (1 << width)):
        raise ValueError("seed must be a nonzero width-bit value")
    # Registers must exist before the feedback references them.  Allocate Q
    # wires first, then wire each D; the Netlist API creates Q at register
    # time, so build a feedback net from placeholder BUFs is not possible —
    # instead create registers with a two-phase trick: Q wires are leaves,
    # and D assignment happens through the registers list.
    q_wires = []
    for i in range(width):
        q = nl._new_wire(Op.REG, (), name=f"{name}.q[{i}]")
        q_wires.append(q)
    fb = None
    for p in taps:
        w = q_wires[p - 1]
        fb = w if fb is None else nl.gate(Op.XOR, fb, w)
    assert fb is not None
    # state' = (state << 1) | fb
    d_wires = [fb] + q_wires[:-1]
    from repro.hdl.netlist import Register

    for i, (q, d) in enumerate(zip(q_wires, d_wires)):
        nl.registers.append(Register(q=q, d=d, init=bool((seed >> i) & 1)))
    return Bus(q_wires)


def build_lfsr_netlist(
    width: int, taps: tuple[int, ...] | None = None, seed: int = 1
) -> Netlist:
    """Standalone LFSR circuit with its state as the only output."""
    nl = Netlist(name=f"lfsr{width}")
    state = add_lfsr(nl, width, taps=taps, seed=seed)
    nl.output("state", state)
    return nl
