"""Reduced ordered binary decision diagrams: the engine behind model_check.

:mod:`repro.hdl.model_check` evaluates a combinational netlist
symbolically, one ROBDD per wire over the primary-input bits.  Because
reduced ordered BDDs are canonical for a fixed variable order, two wires
compute the same Boolean function exactly when their roots are the same
node id — which is what turns symbolic evaluation into an equivalence
proof.

The manager keeps a unique table (hash consing) so reduction holds at
creation: no node tests a variable whose two cofactors are equal, and no
two nodes share a ``(var, lo, hi)`` triple.  Node ids 0 and 1 are the
terminals; variable 0 sits at the top.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["BDD"]

_OPS: dict[str, Callable[[int, int], int]] = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


class BDD:
    """A reduced ordered BDD manager over variables ``0..n_vars−1``."""

    FALSE = 0
    TRUE = 1

    def __init__(self, n_vars: int) -> None:
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        self.n_vars = n_vars
        self._nodes: list[tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[str, int, int], int] = {}

    def node(self, var: int, lo: int, hi: int) -> int:
        """Hash-consed, reduced node constructor."""
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        self._nodes.append(key)
        nid = len(self._nodes) - 1
        self._unique[key] = nid
        return nid

    def var_of(self, nid: int) -> int:
        return self._nodes[nid][0]

    def cofactors(self, nid: int) -> tuple[int, int]:
        _, lo, hi = self._nodes[nid]
        return lo, hi

    def variable(self, i: int) -> int:
        """The single-variable function ``x_i``."""
        if not (0 <= i < self.n_vars):
            raise ValueError(f"variable {i} outside 0..{self.n_vars - 1}")
        return self.node(i, self.FALSE, self.TRUE)

    def apply(self, op: str, u: int, v: int) -> int:
        """Binary combinator over BDD roots: 'and' | 'or' | 'xor'."""
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}")
        fn = _OPS[op]

        def rec(a: int, b: int) -> int:
            if a <= 1 and b <= 1:
                return fn(a, b)
            key = (op, a, b)
            hit = self._apply_cache.get(key)
            if hit is not None:
                return hit
            va = self.var_of(a) if a > 1 else self.n_vars
            vb = self.var_of(b) if b > 1 else self.n_vars
            top = min(va, vb)
            a0, a1 = self.cofactors(a) if va == top else (a, a)
            b0, b1 = self.cofactors(b) if vb == top else (b, b)
            out = self.node(top, rec(a0, b0), rec(a1, b1))
            self._apply_cache[key] = out
            return out

        return rec(u, v)

    def negate(self, u: int) -> int:
        cache: dict[int, int] = {}

        def rec(a: int) -> int:
            if a <= 1:
                return 1 - a
            hit = cache.get(a)
            if hit is not None:
                return hit
            var, lo, hi = self._nodes[a]
            out = self.node(var, rec(lo), rec(hi))
            cache[a] = out
            return out

        return rec(u)

    def evaluate(self, root: int, assignment: Sequence[int]) -> int:
        """Evaluate the function at a 0/1 assignment (index = variable)."""
        nid = root
        while nid > 1:
            var, lo, hi = self._nodes[nid]
            nid = hi if assignment[var] else lo
        return nid
