#!/usr/bin/env python
"""Quickstart: the paper's two circuits in five minutes.

Walks through:
  1. the factorial number system (Table I),
  2. index → permutation conversion (functional and gate-level),
  3. the pipelined circuit producing one permutation per clock,
  4. random permutations — the indexed generator and the Knuth shuffle.

Run:  python examples/quickstart.py
"""

from repro import (
    FactorialDigits,
    IndexToPermutationConverter,
    KnuthShuffleCircuit,
    Permutation,
    ScaledRandomInteger,
)
from repro.rng import bias_profile


def section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    section("1. The factorial number system (paper §II, Table I)")
    for index in (0, 5, 11, 23):
        digits = FactorialDigits.from_index(index, 4)
        print(f"  N={index:>2}  digits (MSB first) = {digits}  = {digits.expansion()}")

    section("2. Index -> permutation")
    conv = IndexToPermutationConverter(4)
    for index in (0, 5, 11, 23):
        perm = conv.convert(index)
        packed = Permutation(perm).packed_value()
        print(f"  N={index:>2}  ->  {' '.join(map(str, perm))}   (packed word {packed:#010b})")

    print("\n  Batch conversion is vectorised (NumPy):")
    print(" ", conv.convert_batch([0, 1, 2, 3]).tolist())

    section("3. The gate-level circuit, combinational and pipelined")
    netlist = conv.build_netlist(pipelined=True)
    print(f"  pipelined n=4 netlist: {netlist.summary()}")
    out = conv.simulate_netlist(range(6), pipelined=True)
    print(f"  cycle-accurate pipeline output (1 perm/clock after fill):")
    for i, row in enumerate(out):
        print(f"    clock {i + conv.pipeline_register_stages}:  {' '.join(map(str, row))}")

    section("4a. Random permutations: index generator (Fig. 2)")
    # a 16-bit LFSR word scaled to an index below 4! = 24, then converted
    sample = conv.convert_batch(ScaledRandomInteger(24, m=16).ints(5))
    for row in sample:
        print("  ", " ".join(str(int(x)) for x in row))
    bias = bias_profile(24, 16)
    print(f"  exact index bias at m=16: max/min probability ratio = {bias.ratio:.6f}")

    section("4b. Random permutations: Knuth shuffle circuit (Fig. 3)")
    shuffle = KnuthShuffleCircuit(8)
    sample = shuffle.sample(5)
    for row in sample:
        print("  ", " ".join(str(int(x)) for x in row))
    print(f"  circuit: {shuffle.num_stages} stages, "
          f"{shuffle.crossover_count()} crossovers (= n(n-1)/2), latency {shuffle.latency}")


if __name__ == "__main__":
    main()
