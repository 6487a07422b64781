"""Broker claim order: cost estimates, longest-first, name-order fallback."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.mechanisms import make_config
from repro.runtime import SimJob, estimate_job_cost
from repro.runtime.broker import BrokerQueue, job_spec
from repro.runtime import runner as runner_mod
from repro.workloads import get_profile

WL = "streaming"
SCALE = 0.05


def _job(
    llc: int, workload: str = WL, scale: float = SCALE, btb: int | None = None
) -> SimJob:
    config = make_config("none").with_llc_latency(llc)
    if btb is not None:
        config = config.with_btb_entries(btb)
    return SimJob(workload, config, scale)


def _trace_instrs(job: SimJob) -> int:
    return get_profile(job.workload).scaled(job.workload_scale).default_trace_instrs


def _claim_all(queue: BrokerQueue) -> list[str]:
    order = []
    while (claimed := queue.claim()) is not None:
        order.append(claimed.job_id)
    return order


def _backdate(path, seconds: float) -> None:
    past = time.time() - seconds
    os.utime(path, (past, past))


# ---------------------------------------------------------------------------
# The cost estimate
# ---------------------------------------------------------------------------


class TestCostEstimate:
    def test_cost_scales_with_trace_length(self):
        base = estimate_job_cost(_job(30))
        assert isinstance(base, int) and base > 0
        assert estimate_job_cost(_job(30, scale=0.5)) > base  # longer trace

    def test_cost_is_invariant_to_llc_latency_and_btb_size(self):
        base = estimate_job_cost(_job(30))
        for llc in (1, 10, 70, 100):
            for btb in (None, 2048, 32768):
                assert estimate_job_cost(_job(llc, btb=btb)) == base

    @pytest.mark.parametrize("workload", ["streaming", "apache", "oracle"])
    @pytest.mark.parametrize("scale", [0.05, 0.25, 1.0])
    def test_cost_is_proportional_to_scaled_trace_length(self, workload, scale):
        """Equal to it, in fact: the cost's unit is one trace instruction."""
        job = _job(30, workload=workload, scale=scale)
        assert estimate_job_cost(job) == _trace_instrs(job)

    def test_unknown_workload_has_no_estimate(self):
        assert estimate_job_cost(_job(30, workload="no-such-workload")) is None

    def test_cost_recorded_in_job_payload(self):
        job = _job(30)
        spec = job_spec(job)
        assert spec["cost"] == estimate_job_cost(job)

    def test_estimate_is_deterministic(self):
        job = _job(42)
        assert estimate_job_cost(job) == estimate_job_cost(job)


# ---------------------------------------------------------------------------
# Claim order (directly against the broker queue)
# ---------------------------------------------------------------------------


class TestLongestFirstClaimOrder:
    def test_claims_most_expensive_pending_job_first(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        jobs = {scale: _job(30, scale=scale) for scale in (0.1, 0.7, 0.3, 0.5)}
        ids = {scale: queue.enqueue(job) for scale, job in jobs.items()}
        # Cost is the scaled trace length, so descending scale is exactly
        # descending cost here.
        assert _claim_all(queue) == [ids[0.7], ids[0.5], ids[0.3], ids[0.1]]

    def test_long_low_latency_job_claims_before_short_high_latency_jobs(
        self, tmp_path
    ):
        """A default-scale latency-1 cell runs ~4x longer than a
        quick-scale latency-70 one, so it must start first."""
        queue = BrokerQueue(tmp_path)
        short_ids = [
            queue.enqueue(_job(70, workload=wl, scale=0.25))
            for wl in ("apache", "nutch", "zeus")
        ]
        long_id = queue.enqueue(_job(1, workload="apache", scale=1.0))
        order = _claim_all(queue)
        assert order[0] == long_id
        assert sorted(order[1:]) == sorted(short_ids)

    def test_fifo_fallback_when_cost_estimates_absent(self, tmp_path, monkeypatch):
        """Jobs with no estimate (an unknown profile) must claim in
        deterministic name order."""
        monkeypatch.setattr(runner_mod, "estimate_job_cost", lambda job: None)
        queue = BrokerQueue(tmp_path)
        ids = [queue.enqueue(_job(llc)) for llc in (40, 20, 60)]
        # No weight token in any filename: no estimate to order by.
        for name in os.listdir(queue.pending):
            assert "__w" not in name
        assert _claim_all(queue) == sorted(ids)

    def test_costless_jobs_claim_after_every_costed_job(self, tmp_path, monkeypatch):
        queue = BrokerQueue(tmp_path)
        costless_ids = []

        def no_estimate(job):
            return None

        monkeypatch.setattr(runner_mod, "estimate_job_cost", no_estimate)
        costless_ids = [queue.enqueue(_job(llc)) for llc in (99, 5)]
        monkeypatch.undo()
        costed_ids = [queue.enqueue(_job(30, scale=s)) for s in (0.1, 0.5)]
        order = _claim_all(queue)
        assert order[:2] == [costed_ids[1], costed_ids[0]]  # cost desc
        assert order[2:] == sorted(costless_ids)  # then name order

    def test_lease_recovery_preserves_the_cost_token(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        cheap, dear = _job(30, scale=0.1), _job(30, scale=0.7)
        queue.enqueue(dear)
        claimed = queue.claim()
        _backdate(claimed.path, seconds=60)
        assert queue.recover_expired() == 1
        queue.enqueue(cheap)
        # The recovered (dear) job must still outrank the cheap one.
        order = _claim_all(queue)
        assert order[0] == queue.job_id(dear)
        assert "__w" in os.listdir(queue.claimed)[0]

    def test_fail_requeue_preserves_the_cost_token(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        job = _job(70)
        queue.enqueue(job)
        claimed = queue.claim()
        assert queue.fail(claimed, "boom") is True
        (name,) = os.listdir(queue.pending)
        assert "__w" in name and name.endswith("__a1.json")
        reclaimed = queue.claim()
        assert reclaimed is not None and reclaimed.attempts == 1
