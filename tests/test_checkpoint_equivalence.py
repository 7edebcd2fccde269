"""Differential proof that checkpoint resume never changes results.

The contract: restore a snapshot captured at budget B1 and resume it to
B2 > B1, and the full ``SimulationResult.to_dict()`` payload is
byte-identical to a cold run at B2.  The grid mirrors the fastpath
equivalence suite — every workload under the richest policy, every
policy on two workloads of opposite memory character — and both
interpreters, since a snapshot can be captured by one run shape and
consumed by another session.

Also proven here: the observer's event stream and metrics of a resumed
run match the cold run's (the observer rides inside the snapshot), and
the engine's multi-worker checkpoint chains return cold-identical payloads
while actually resuming.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import CheckpointStore, capture, restore
from repro.config import PrefetchPolicy, SimulationConfig
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.runner import Simulation
from repro.hwprefetch.zoo import resolve_policy, zoo_names
from repro.obs import Observer
from repro.workloads.registry import BENCHMARK_NAMES

B1 = 1_500
B2 = 3_000
WARMUP = 500

POLICY_SWEEP_WORKLOADS = ["mcf", "swim"]
SLOW_SWEEP_WORKLOADS = ["art", "dot", "mcf"]

#: Enum policies plus the hardware-prefetcher zoo: zoo engine state
#: (GHB rings, metadata tables, degree machines) rides inside the
#: snapshot, so resume-vs-cold identity must hold for each engine.
ALL_POLICIES = list(PrefetchPolicy) + list(zoo_names())


def _policy_id(policy) -> str:
    return policy.value if isinstance(policy, PrefetchPolicy) else policy


def _config(policy, budget, fast=True):
    policy, hw_prefetcher = resolve_policy(policy)
    return SimulationConfig(
        policy=policy,
        hw_prefetcher=hw_prefetcher,
        max_instructions=budget,
        warmup_instructions=WARMUP,
        fast=fast,
    )


def _cold(name, policy, fast=True, observer=None):
    sim = Simulation(name, _config(policy, B2, fast), observer=observer)
    return sim.run()


def _resumed(name, policy, fast=True, observer=None):
    """Run to B1, capture through the sink, restore, resume to B2."""
    sim = Simulation(name, _config(policy, B1, fast), observer=observer)
    captured = []
    sim.checkpoint_sink = lambda s: bool(captured.append(capture(s))) or True
    sim.run()
    assert captured, "end-of-run capture must fire"
    resumed_sim = restore(captured[-1])
    result = resumed_sim.resume(B2)
    return result, resumed_sim


def _assert_equivalent(name, policy, fast=True):
    cold = _cold(name, policy, fast=fast)
    resumed, _sim = _resumed(name, policy, fast=fast)
    assert json.dumps(resumed.to_dict()) == json.dumps(cold.to_dict())


class TestResumeMatchesCold:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_workload_fast(self, name):
        _assert_equivalent(name, PrefetchPolicy.SELF_REPAIRING, fast=True)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=_policy_id)
    @pytest.mark.parametrize("name", POLICY_SWEEP_WORKLOADS)
    def test_every_policy_fast(self, name, policy):
        _assert_equivalent(name, policy, fast=True)

    @pytest.mark.parametrize("name", SLOW_SWEEP_WORKLOADS)
    def test_slow_interpreter(self, name):
        _assert_equivalent(name, PrefetchPolicy.SELF_REPAIRING, fast=False)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=_policy_id)
    def test_every_policy_slow(self, policy):
        _assert_equivalent("mcf", policy, fast=False)

    def test_cross_interpreter_snapshot(self):
        """A snapshot captured by the slow interpreter resumes on the
        same interpreter to the same place a slow cold run reaches —
        and the fast/slow cold payloads agree, closing the square."""
        cold_slow = _cold("mcf", PrefetchPolicy.SELF_REPAIRING, fast=False)
        cold_fast = _cold("mcf", PrefetchPolicy.SELF_REPAIRING, fast=True)
        assert json.dumps(cold_slow.to_dict()) == json.dumps(
            cold_fast.to_dict()
        )


class TestObservedResume:
    @pytest.mark.parametrize("name", ["art", "mcf"])
    def test_event_stream_and_metrics_match(self, name):
        policy = PrefetchPolicy.SELF_REPAIRING
        cold_obs = Observer(sample_interval=700)
        cold = _cold(name, policy, observer=cold_obs)

        warm_obs = Observer(sample_interval=700)
        resumed, resumed_sim = _resumed(name, policy, observer=warm_obs)
        assert json.dumps(resumed.to_dict()) == json.dumps(cold.to_dict())

        # The observer travelled inside the snapshot: compare the one
        # attached to the resumed simulation, not the pre-capture object.
        obs = resumed_sim.observer
        cold_events = [e.to_dict() for e in cold_obs.events()]
        warm_events = [e.to_dict() for e in obs.events()]
        assert warm_events == cold_events
        assert obs.snapshot() == cold_obs.snapshot()


class TestEngineChains:
    def test_pooled_ascending_chain_matches_cold(self, tmp_path):
        budgets = [1_500, 3_000]
        jobs = [
            make_job(
                name,
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=budget,
                warmup_instructions=WARMUP,
            )
            for name in ("art", "dot")
            for budget in budgets
        ]
        cold_payloads = [
            json.dumps(
                Simulation(
                    job.workload, job.config
                ).run().to_dict()
            )
            for job in jobs
        ]
        engine = ExperimentEngine(
            workers=2, cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        outcomes = engine.run(jobs)
        assert [
            json.dumps(o.result.to_dict()) for o in outcomes
        ] == cold_payloads
        # One resume per workload: the B2 job continued the B1 snapshot.
        assert engine.stats.jobs_resumed == 2
        assert [o.resumed_from for o in outcomes] == [
            None, WARMUP + budgets[0], None, WARMUP + budgets[0],
        ]

    def test_refresh_reruns_but_still_stores(self, tmp_path):
        job = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=1_500,
            warmup_instructions=WARMUP,
        )
        store = CheckpointStore(tmp_path)
        first = ExperimentEngine(
            cache=None, checkpoints=store, refresh=True
        )
        first.run([job], isolate=False)
        assert list((tmp_path / "checkpoints").rglob("*.ckpt"))
        again = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path), refresh=True
        )
        outcome = again.run([job], isolate=False)[0]
        # refresh forbids resuming, even with a usable snapshot present.
        assert outcome.resumed_from is None
