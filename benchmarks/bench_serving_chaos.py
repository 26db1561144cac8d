"""Chaos campaign artefact: fault-injection invariants for the serving ladder.

Runs the seeded chaos campaign from :mod:`repro.serve.chaos` against both
executors of the degradation ladder — one worker thread per shard, and
two worker processes per shard — crash / stall / delay / corrupt / swap
events injected into worker sweeps while a closed-loop client population
drives load, then a clean recovery phase — and writes both campaign
payloads (schema ``serving_chaos/v1``) to
``results/serving_chaos.{txt,json}``.

The same invariants are asserted on each executor:

- **zero incorrect responses** — every response that reached a client
  passed the independent rank oracle, no matter what was injected;
- **every killed worker was replaced** — restarts ≥ kills, and every
  shard is back on the worker rung (mode ``full``) after recovery;
- **availability floor** — ≥ 90 % of attempts complete during chaos
  (the ladder degrades, it does not collapse), ≥ 99 % during recovery;
- **failovers happened and served real traffic** — the fallback rung
  was exercised, not just configured.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the campaign
but keeps every invariant: chaos that is only tested at full scale is
chaos that regresses silently.
"""

import os

from conftest import write_report

from repro.serve import ChaosSpec, run_chaos_campaign

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 5 if SMOKE else 6
REQUESTS = 150 if SMOKE else 500
RECOVERY = 60 if SMOKE else 200
CLIENTS = 6 if SMOKE else 8
SEED = 3
SPEC = ChaosSpec(
    crash_p=0.10, stall_p=0.05, delay_p=0.05, corrupt_p=0.10, swap_p=0.05,
    stall_s=0.3,
)

EXECUTORS = {"threads": 0, "processes": 2}  # executor → worker processes


def _campaign(workers: int) -> dict:
    payload = run_chaos_campaign(
        n=N,
        requests=REQUESTS,
        recovery_requests=RECOVERY,
        clients=CLIENTS,
        seed=SEED,
        spec=SPEC,
        workers=workers,
    )
    name = payload["executor"]

    # -- the acceptance invariants --------------------------------------- #
    assert payload["incorrect_responses"] == 0, f"{name}: a wrong response was served"
    assert payload["workers_killed"] >= 1, f"{name}: chaos never killed a worker"
    assert payload["worker_restarts"] >= payload["workers_killed"], name
    assert payload["failovers"] >= 1, f"{name}: the fallback rung was never exercised"
    assert payload["availability_chaos"] >= 0.90, name
    assert payload["availability_recovery"] >= 0.99, name
    assert payload["recovered"], f"{name}: shards stuck: {payload['final_shard_modes']}"
    return payload


def _summary(payload: dict) -> str:
    chaos, recovery = payload["phases"]["chaos"], payload["phases"]["recovery"]
    return (
        f"{payload['executor']} ({payload['workers']} per shard)\n"
        f"  injected            : {payload['chaos']['injected']}\n"
        f"  incorrect responses : {payload['incorrect_responses']}\n"
        f"  workers killed      : {payload['workers_killed']}"
        f" -> restarts {payload['worker_restarts']}\n"
        f"  check failures      : {payload['check_failures']}"
        f" -> kernel quarantines {payload['kernel_quarantines']}\n"
        f"  failovers served    : {payload['failovers']}"
        f"  (breaker trips {payload['breaker_trips']})\n"
        f"  availability        : chaos {payload['availability_chaos']:.3f}, "
        f"recovery {payload['availability_recovery']:.3f}\n"
        f"  response modes      : chaos {chaos['modes']}, "
        f"recovery {recovery['modes']}\n"
        f"  recovered           : {payload['recovered']} "
        f"{payload['final_shard_modes']}"
    )


def test_chaos_campaign_invariants(results_dir):
    payloads = {name: _campaign(w) for name, w in EXECUTORS.items()}
    write_report(
        results_dir,
        "serving_chaos",
        f"Chaos campaign (n={N}, seed={SEED}, {REQUESTS}+{RECOVERY} requests, "
        f"{CLIENTS} clients), on both executors\n\n"
        + "\n\n".join(_summary(p) for p in payloads.values()),
        data=payloads,
    )
