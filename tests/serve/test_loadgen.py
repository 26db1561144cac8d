"""Load generator accounting: sheds, degraded service, verification.

A scripted stub service stands in for the real one so the accounting
paths are exercised deterministically — each submission's outcome is
decided by a canned per-call schedule, not by timing.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.core.converter import IndexToPermutationConverter
from repro.core.factorial import factorial
from repro.errors import ServiceDegradedError, ServiceOverloadedError
from repro.serve import LoadReport, WideResponse, run_closed_loop


class _DoneFuture:
    def __init__(self, response):
        self._response = response

    def result(self, timeout=None):
        return self._response


class _ScriptedService:
    """Yields one scripted outcome per submission, cycling when exhausted.

    Outcomes: ``"ok"``, ``"fallback"``, ``"cached"`` (a served response
    in that mode), ``"shed"`` / ``"degraded"`` (the typed rejection), or
    ``"wrong"`` (a served response carrying a corrupted permutation).
    """

    def __init__(self, outcomes):
        self._outcomes = itertools.cycle(outcomes)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.conv = IndexToPermutationConverter(4)

    def submit_wide(self, workload, n, count, indices=None):
        assert count == 1  # the in-process driver sends one-lane entries
        with self._lock:
            outcome = next(self._outcomes)
            rid = next(self._ids)
        if outcome == "shed":
            raise ServiceOverloadedError("queue full", queue_depth=1, limit=1)
        if outcome == "degraded":
            raise ServiceDegradedError("cache-only", mode="cache_only")
        indices = tuple(indices) if indices is not None else (0,) * count
        perms = self.conv.convert_batch(indices)
        if outcome == "wrong":
            perms = np.roll(perms, -1, axis=1)  # valid but wrong rank
        return _DoneFuture(
            WideResponse(
                request_id=rid,
                workload=workload,
                n=n,
                count=count,
                indices=indices,
                permutations=perms,
                batch_id=None if outcome == "cached" else rid,
                lanes=0 if outcome == "cached" else 4,
                cached=outcome == "cached",
                queued_s=0.0,
                sweep_s=0.0,
                total_s=0.0,
                mode="worker" if outcome in ("ok", "wrong") else outcome,
            )
        )


def drive(outcomes, total=24, verify=False, **kw):
    svc = _ScriptedService(outcomes)
    kw.setdefault("clients", 1)  # one client keeps the schedule exact
    return run_closed_loop(
        svc, n=4, total=total, mix={"unrank": 1.0}, verify=verify, **kw
    )


class TestSeparateAccounting:
    def test_sheds_and_degraded_sheds_are_not_folded_together(self):
        # per request: one overload shed, one degraded shed, then served
        report = drive(["shed", "degraded", "ok"], total=10)
        assert report.completed == 10
        assert report.shed == 10
        assert report.degraded_shed == 10
        assert report.abandoned == 0

    def test_degraded_mode_responses_counted_separately_from_errors(self):
        report = drive(["ok", "fallback", "cached", "fallback"], total=20)
        assert report.completed == 20
        assert report.degraded_responses == 10  # the fallback-mode half
        assert report.modes == {"worker": 5, "fallback": 10, "cached": 5}
        assert report.cache_hits == 5
        assert report.shed == 0 and report.degraded_shed == 0

    def test_availability_counts_every_failed_attempt(self):
        report = drive(["shed", "degraded", "ok"], total=10)
        # 10 completions over 30 attempts
        assert report.availability == pytest.approx(10 / 30)

    def test_availability_is_one_for_clean_runs(self):
        report = drive(["ok"], total=5)
        assert report.availability == 1.0
        assert LoadReport(clients=1, completed=0, shed=0, duration_s=0).availability == 1.0

    def test_permanently_degraded_requests_are_abandoned_not_hung(self):
        report = drive(
            ["degraded"], total=3, max_attempts=5, degraded_backoff_s=0.0
        )
        assert report.completed == 0
        assert report.abandoned == 3
        assert report.degraded_shed == 15  # 3 requests × 5 attempts
        assert report.availability == 0.0


class TestVerification:
    def test_wrong_permutations_are_convicted(self):
        report = drive(["ok", "wrong"], total=10, verify=True)
        assert report.completed == 10
        assert report.incorrect == 5

    def test_clean_responses_pass(self):
        report = drive(["ok", "fallback", "cached"], total=12, verify=True)
        assert report.incorrect == 0

    def test_verification_off_by_default(self):
        report = drive(["wrong"], total=4)
        assert report.incorrect == 0  # nobody looked


class TestRealServiceSmoke:
    def test_unknown_workload_in_mix_rejected(self):
        svc = _ScriptedService(["ok"])
        with pytest.raises(ValueError):
            run_closed_loop(svc, n=4, total=1, mix={"bogus": 1.0})

    def test_shuffle_verification_checks_bijectivity_only(self):
        # shuffles carry no index: any valid permutation must pass
        class _ShuffleService(_ScriptedService):
            def submit_wide(self, workload, n, count, indices=None):
                assert (workload, count, indices) == ("shuffle", 1, None)
                fut = super().submit_wide("unrank", n, count, [5])
                resp = fut._response
                object.__setattr__(resp, "workload", "shuffle")
                object.__setattr__(resp, "indices", None)
                return fut

        report = run_closed_loop(
            _ShuffleService(["ok"]), n=4, total=6,
            mix={"shuffle": 1.0}, clients=1, verify=True,
        )
        assert report.incorrect == 0
