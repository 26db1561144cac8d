#!/usr/bin/env python
"""The paper's §III-C Monte-Carlo experiment: estimating e from derangements.

Reproduces: "In the generation of 1,048,576 random 4-element permutations …
385,811 of them were derangements.  Therefore, we can approximate e as
e ≈ 1048576/385811 = 2.718." and the repeats at n = 8 and n = 16 — each a
Knuth-shuffle streaming campaign whose fixed-point histogram holds the
derangement count — then goes one step further and shards the n = 4
campaign over worker processes, showing the parallel decomposition is
bit-exact (every block seeds the stage LFSRs on its own).

Run:  python examples/monte_carlo_derangements.py [--samples 1048576]
"""

import argparse
import math

from repro.analysis.stream import CampaignConfig, run_population_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1 << 20)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    def campaign(n: int, shards: int = 1, workers: int = 1):
        cfg = CampaignConfig(n=n, samples=args.samples, source="shuffle")
        return run_population_campaign(
            cfg, shards=shards, workers=workers, battery_draws=0
        )

    print(f"{'n':>3}  {'samples':>9}  {'derangements':>12}  {'e estimate':>10}  "
          f"{'true d_n/n!':>11}  {'elapsed':>8}")
    for n in (4, 8, 16):
        result = campaign(n)
        fx = result.summary["fixed_points"]
        print(f"{n:>3}  {fx['samples']:>9}  {fx['derangements']:>12}  "
              f"{fx['e_estimate']:>10.4f}  {fx['expected_fraction']:>11.6f}  "
              f"{result.wall_s:>7.2f}s")

    print(f"\ntrue e = {math.e:.6f}")

    shards = 2 * args.workers
    print(f"\nParallel run ({shards} shards on {args.workers} worker processes), n = 4:")
    seq = campaign(4).summary["fixed_points"]
    par = campaign(4, shards=shards, workers=args.workers).summary["fixed_points"]
    print(f"  sequential derangements: {seq['derangements']}")
    print(f"  parallel   derangements: {par['derangements']}")
    print(f"  bit-exact match: {seq['histogram'] == par['histogram']}")


if __name__ == "__main__":
    main()
