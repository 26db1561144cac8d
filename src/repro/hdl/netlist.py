"""Netlist construction: wires, buses, gates and registers.

A :class:`Netlist` is a flat directed acyclic graph of primitive gates
(:class:`repro.hdl.gates.Op`).  Word-level values travel on :class:`Bus`
objects, which are ordered lists of wires, least-significant bit first.

Construction performs the two cheap optimisations every synthesis front-end
applies — constant folding and structural hashing (common-subexpression
elimination) — so the resource counts reported by :mod:`repro.fpga` are
comparable to what a real tool would emit rather than inflated by duplicate
logic.

Registers make the netlist sequential: a register's Q output is a leaf for
combinational levelisation, and :class:`repro.hdl.simulator.
SequentialSimulator` advances all register states on each clock.  Inserting
one register bank per cascade stage is exactly the pipelining transformation
described in §II-B of the paper ("Pipeline registers can simply be inserted
between stages").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.hdl.gates import GATE_ARITY, Op

__all__ = ["Wire", "Bus", "Gate", "Register", "Netlist"]

#: A wire is an index into ``Netlist.gates`` — the gate that drives it.
Wire = int


@dataclass(frozen=True)
class Gate:
    """A single netlist node: the driver of one wire."""

    op: Op
    fanin: tuple[Wire, ...]
    name: str | None = None


@dataclass(frozen=True)
class Register:
    """A D flip-flop: ``q`` is the REG wire, ``d`` its next-state input."""

    q: Wire
    d: Wire
    init: bool = False


class Bus:
    """An ordered, immutable group of wires, LSB first.

    Buses are how word-level components exchange multi-bit values.  Slicing
    a bus returns a bus; indexing returns a single wire.
    """

    __slots__ = ("wires",)

    def __init__(self, wires: Iterable[Wire]) -> None:
        self.wires: tuple[Wire, ...] = tuple(wires)

    @property
    def width(self) -> int:
        return len(self.wires)

    def __len__(self) -> int:
        return len(self.wires)

    def __iter__(self) -> Iterator[Wire]:
        return iter(self.wires)

    def __getitem__(self, idx: int | slice) -> "Wire | Bus":
        if isinstance(idx, slice):
            return Bus(self.wires[idx])
        return self.wires[idx]

    def __add__(self, other: "Bus") -> "Bus":
        """Concatenate: ``self`` supplies the low bits."""
        return Bus(self.wires + tuple(other))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bus) and self.wires == other.wires

    def __hash__(self) -> int:
        return hash(self.wires)

    def __repr__(self) -> str:
        return f"Bus({list(self.wires)})"


class Netlist:
    """A mutable gate-level circuit under construction.

    Attributes
    ----------
    gates:
        ``gates[w]`` is the :class:`Gate` driving wire ``w``.
    registers:
        All D flip-flops, in creation order.
    inputs / outputs:
        Named primary input and output buses.
    """

    def __init__(self, name: str = "top", *, fold: bool = True, cse: bool = True) -> None:
        self.name = name
        self.fold = fold  #: apply constant folding / peepholes in :meth:`gate`
        self.cse = cse  #: apply structural hashing (CSE) in :meth:`gate`
        self.gates: list[Gate] = []
        self.registers: list[Register] = []
        self.inputs: dict[str, Bus] = {}
        self.outputs: dict[str, Bus] = {}
        self._cse: dict[tuple[Op, tuple[Wire, ...]], Wire] = {}
        self._const0: Wire | None = None
        self._const1: Wire | None = None
        self._level_cache: list[int] | None = None
        #: Monotonic mutation counter; consumers (fingerprint, compiled
        #: kernels) combine it with structure sizes to detect staleness.
        self._version: int = 0
        self._fingerprint_cache: tuple[object, str] | None = None
        #: the mutation token of the last passing :meth:`check`
        self._checked: tuple[int, ...] | None = None

    # ------------------------------------------------------------------ #
    # construction

    def _mutation_token(self) -> tuple[int, ...]:
        """Changes with every edit through the builder API: the mutation
        version plus the structure sizes, so direct ``registers``
        appends count too.  In-place surgery on existing ``gates``
        entries or buses bypasses the builder and is not tracked."""
        return (
            self._version,
            len(self.gates),
            len(self.registers),
            len(self.inputs),
            len(self.outputs),
        )

    def _new_wire(self, op: Op, fanin: tuple[Wire, ...], name: str | None = None) -> Wire:
        self.gates.append(Gate(op, fanin, name))
        self._level_cache = None
        self._version += 1
        return len(self.gates) - 1

    def const(self, value: bool | int) -> Wire:
        """Return the shared constant-0 or constant-1 wire."""
        if value:
            if self._const1 is None:
                self._const1 = self._new_wire(Op.CONST1, ())
            return self._const1
        if self._const0 is None:
            self._const0 = self._new_wire(Op.CONST0, ())
        return self._const0

    def const_bus(self, value: int, width: int) -> Bus:
        """A bus holding the binary encoding of ``value`` (LSB first)."""
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return Bus(self.const((value >> b) & 1) for b in range(width))

    def input(self, name: str, width: int = 1) -> Bus:
        """Declare a primary input bus."""
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        bus = Bus(self._new_wire(Op.INPUT, (), name=f"{name}[{b}]") for b in range(width))
        self.inputs[name] = bus
        return bus

    def output(self, name: str, bus: Bus | Wire) -> None:
        """Declare a primary output."""
        if name in self.outputs:
            raise ValueError(f"duplicate output {name!r}")
        if isinstance(bus, int):
            bus = Bus((bus,))
        self.outputs[name] = bus
        self._version += 1

    def register(self, d: Wire, init: bool = False, name: str | None = None) -> Wire:
        """Insert a D flip-flop driven by ``d``; returns the Q wire."""
        q = self._new_wire(Op.REG, (), name=name)
        self.registers.append(Register(q=q, d=d, init=init))
        return q

    def register_bus(self, bus: Bus, init: int = 0, name: str | None = None) -> Bus:
        """Register every bit of ``bus`` (one pipeline stage boundary)."""
        return Bus(
            self.register(w, init=bool((init >> i) & 1),
                          name=None if name is None else f"{name}[{i}]")
            for i, w in enumerate(bus)
        )

    def gate(self, op: Op, *fanin: Wire, name: str | None = None) -> Wire:
        """Add a primitive gate with constant folding and CSE.

        Folding keeps the netlist honest: a comparator against constant 0,
        say, collapses to a constant instead of inflating LUT counts.
        Either optimisation can be disabled per netlist (``fold=False`` /
        ``cse=False`` at construction) — that is how the standalone
        :mod:`repro.hdl.passes` isolate one transformation at a time.
        """
        if len(fanin) != GATE_ARITY[op]:
            raise ValueError(f"{op} expects {GATE_ARITY[op]} fanins, got {len(fanin)}")
        if self.fold:
            folded = self._fold(op, fanin)
            if folded is not None:
                return folded
        if not self.cse:
            return self._new_wire(op, fanin, name)
        key = self._cse_key(op, fanin)
        hit = self._cse.get(key)
        if hit is not None:
            return hit
        w = self._new_wire(op, fanin, name)
        self._cse[key] = w
        return w

    @staticmethod
    def _cse_key(op: Op, fanin: tuple[Wire, ...]) -> tuple[Op, tuple[Wire, ...]]:
        # AND/OR/XOR/NAND/NOR/XNOR are commutative: canonicalise operand order.
        if op in (Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR, Op.XNOR) and fanin[0] > fanin[1]:
            fanin = (fanin[1], fanin[0])
        return (op, fanin)

    def _is_const(self, w: Wire) -> bool | None:
        op = self.gates[w].op
        if op is Op.CONST0:
            return False
        if op is Op.CONST1:
            return True
        return None

    def _fold(self, op: Op, fanin: tuple[Wire, ...]) -> Wire | None:
        """Peephole constant folding / identity simplification."""
        consts = tuple(self._is_const(w) for w in fanin)
        if op is Op.BUF:
            return fanin[0]
        if op is Op.NOT:
            if consts[0] is not None:
                return self.const(not consts[0])
            # double negation
            g = self.gates[fanin[0]]
            if g.op is Op.NOT:
                return g.fanin[0]
            return None
        if op is Op.MUX:
            sel, a, b = fanin
            if consts[0] is not None:
                return b if consts[0] else a
            if a == b:
                return a
            if consts[1] is False and consts[2] is True:
                return sel
            return None
        if op in (Op.AND, Op.NAND):
            a, b = fanin
            out: Wire | None = None
            if consts[0] is False or consts[1] is False:
                out = self.const(0)
            elif consts[0] is True:
                out = b
            elif consts[1] is True:
                out = a
            elif a == b:
                out = a
            if out is not None:
                return out if op is Op.AND else self.gate(Op.NOT, out)
            return None
        if op in (Op.OR, Op.NOR):
            a, b = fanin
            out = None
            if consts[0] is True or consts[1] is True:
                out = self.const(1)
            elif consts[0] is False:
                out = b
            elif consts[1] is False:
                out = a
            elif a == b:
                out = a
            if out is not None:
                return out if op is Op.OR else self.gate(Op.NOT, out)
            return None
        if op in (Op.XOR, Op.XNOR):
            a, b = fanin
            out = None
            if a == b:
                out = self.const(0)
            elif consts[0] is False:
                out = b
            elif consts[1] is False:
                out = a
            elif consts[0] is True:
                out = self.gate(Op.NOT, b)
            elif consts[1] is True:
                out = self.gate(Op.NOT, a)
            if out is not None:
                return out if op is Op.XOR else self.gate(Op.NOT, out)
            return None
        if op is Op.ANDN:
            return self.gate(Op.AND, fanin[0], self.gate(Op.NOT, fanin[1]))
        if op is Op.ORN:
            return self.gate(Op.OR, fanin[0], self.gate(Op.NOT, fanin[1]))
        return None

    # ------------------------------------------------------------------ #
    # analysis

    def levels(self) -> list[int]:
        """Combinational level of each wire (0 for leaves).

        Registers, inputs and constants are level 0; a gate is one more
        than its deepest fanin.  Because wires are created in topological
        order (fanins always precede the gate), a single forward pass
        suffices.
        """
        if self._level_cache is not None:
            return self._level_cache
        lev = [0] * len(self.gates)
        for w, g in enumerate(self.gates):
            if g.fanin:
                lev[w] = 1 + max(lev[f] for f in g.fanin)
        self._level_cache = lev
        return lev

    @property
    def depth(self) -> int:
        """Levelised logic depth — the unit-delay critical path length."""
        observable = [w for bus in self.outputs.values() for w in bus]
        observable += [r.d for r in self.registers]
        if not observable:
            return 0
        lev = self.levels()
        return max(lev[w] for w in observable)

    def gate_counts(self) -> dict[Op, int]:
        """Logic gate population by type (excludes leaves)."""
        counts: dict[Op, int] = {}
        for g in self.gates:
            if g.op in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1):
                continue
            counts[g.op] = counts.get(g.op, 0) + 1
        return counts

    @property
    def num_logic_gates(self) -> int:
        return sum(self.gate_counts().values())

    @property
    def num_live_gates(self) -> int:
        """Logic gates in the observable cone (what a sweep would keep).

        Generator code leaves dead fragments behind — e.g. the high bits
        of a subtractor whose output is truncated — which construction
        cannot remove; resource-style accounting should use this count.
        """
        live = self.live_wires()
        return sum(
            1
            for w in live
            if self.gates[w].op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
        )

    @property
    def num_registers(self) -> int:
        return len(self.registers)

    def fanout_counts(self) -> list[int]:
        """Number of gate/register sinks of each wire."""
        fo = [0] * len(self.gates)
        for g in self.gates:
            for f in g.fanin:
                fo[f] += 1
        for r in self.registers:
            fo[r.d] += 1
        return fo

    def live_wires(self) -> set[Wire]:
        """Wires in the transitive fanin cone of outputs and register Ds."""
        stack = [w for bus in self.outputs.values() for w in bus]
        stack += [r.d for r in self.registers] + [r.q for r in self.registers]
        seen: set[Wire] = set()
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            stack.extend(self.gates[w].fanin)
        return seen

    def check(self) -> None:
        """Structural sanity: fanins precede gates (acyclic), buses intact.

        A passing check holds until the mutation token changes, so
        checking an unchanged netlist again costs nothing.
        """
        token = self._mutation_token()
        if self._checked == token:
            return
        for w, g in enumerate(self.gates):
            for f in g.fanin:
                if not (0 <= f < w):
                    raise ValueError(f"gate {w} has non-causal fanin {f}")
        for r in self.registers:
            if not (0 <= r.d < len(self.gates)):
                raise ValueError("register D out of range")
        for name, bus in {**self.inputs, **self.outputs}.items():
            for w in bus:
                if not (0 <= w < len(self.gates)):
                    raise ValueError(f"bus {name!r} references missing wire {w}")
        self._checked = token

    def summary(self) -> dict[str, int]:
        """A compact structural report used by tests and benchmarks."""
        return {
            "logic_gates": self.num_logic_gates,
            "registers": self.num_registers,
            "depth": self.depth,
            "input_bits": sum(b.width for b in self.inputs.values()),
            "output_bits": sum(b.width for b in self.outputs.values()),
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"<Netlist {self.name!r}: {s['logic_gates']} gates, "
            f"{s['registers']} regs, depth {s['depth']}>"
        )
