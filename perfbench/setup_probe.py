"""Set-up probe: a fresh process runs the first unit of one workload.

Usage: ``python perfbench/setup_probe.py validate|faults SEED``

Prints ``first <speed>`` on stdout the moment the first 4096-lane
block (validate) or the first campaign (faults) completes, with the
median host speed sampled in this process (see
:class:`host.SpeedSampler`).  The parent times process start to that
line; it may terminate the probe right after.
"""

from __future__ import annotations

import json
import os
import sys

from host import SpeedSampler, median


def main() -> int:
    with SpeedSampler() as sampler:
        return run(sampler, sys.argv[1], int(sys.argv[2]))


def run(sampler, kind: str, seed: int) -> int:
    with open(os.path.join(os.path.dirname(__file__), "spec.json")) as fh:
        spec = json.load(fh)
    if kind == "validate":
        from repro.analysis import stream

        update = stream.PopulationStats.update
        seen = []

        def first_block(self, perms):
            update(self, perms)
            if not seen:
                seen.append(True)
                print(f"first {median(sampler.speeds())!r}", flush=True)

        stream.PopulationStats.update = first_block
        cfg = stream.CampaignConfig(
            seed=seed, samples=spec["workloads"]["validate"]["samples"]
        )
        stream.run_population_campaign(cfg, shards=1, workers=1)
        return 0
    if kind == "faults":
        from repro.robustness.campaign import CampaignSpec, run_campaign

        model = spec["workloads"]["faults"]["models"][0]
        run_campaign(
            CampaignSpec(circuit="converter", n=spec["n"], model=model, seed=seed),
            workers=1,
            degrade=True,
        )
        print(f"first {median(sampler.speeds())!r}", flush=True)
        return 0
    raise SystemExit(f"unknown probe {kind!r}")


if __name__ == "__main__":
    sys.exit(main())
