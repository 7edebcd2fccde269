"""One workload build per program per ``ExperimentEngine.run``.

A figure runs each program under several policies, and a scaling sweep
under several budgets.  The in-process path builds each distinct
workload source once per ``run()`` call and hands every job the shared
(read-only) program plus a private copy of the built memory words: a
cold start runs on it, a resume restores its snapshot onto it.  Under
the supervisor, a program's jobs form one unit and its worker does the
same.  These tests pin the contract: one build per program, results
byte-identical to one engine per job, no memory write leaking from one
job into the next, and nothing built outliving the call.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.checkpoint import CheckpointStore
from repro.config import PrefetchPolicy
from repro.harness import runner
from repro.harness.engine import ExperimentEngine, make_job

#: wupwise stores into its memory as it runs; dot starts from a 96k-word
#: memory image, so its private copies are not trivially empty.
PROGRAMS = ("wupwise", "dot")
POLICIES = (
    PrefetchPolicy.HW_ONLY,
    PrefetchPolicy.BASIC,
    PrefetchPolicy.WHOLE_OBJECT,
    PrefetchPolicy.SELF_REPAIRING,
)


def _jobs():
    return [
        make_job(
            name, policy=policy, max_instructions=1_500,
            warmup_instructions=400,
        )
        for name in PROGRAMS
        for policy in POLICIES
    ]


def _dumps(outcome) -> str:
    assert outcome.ok, outcome.error
    return json.dumps(outcome.result.to_dict(), sort_keys=True)


@pytest.fixture
def builds(monkeypatch):
    """Count builtin builds (by name) through the builder seam."""
    counts = {}
    real = runner.load_workload

    def counting(name, seed=1):
        counts[name] = counts.get(name, 0) + 1
        return real(name, seed=seed)

    monkeypatch.setattr(runner, "load_workload", counting)
    return counts


@pytest.mark.parametrize("store", [False, True], ids=["no-ckpt", "ckpt"])
def test_one_build_per_program_and_identical_results(
    builds, tmp_path, store
):
    checkpoints = CheckpointStore(tmp_path) if store else None
    engine = ExperimentEngine(cache=None, checkpoints=checkpoints)
    shared = engine.run(_jobs())
    assert builds == {name: 1 for name in PROGRAMS}

    builds.clear()
    alone = [
        ExperimentEngine(cache=None, checkpoints=None).run([job])[0]
        for job in _jobs()
    ]
    assert builds == {name: len(POLICIES) for name in PROGRAMS}
    assert [_dumps(o) for o in shared] == [_dumps(o) for o in alone]


def test_memory_writes_stay_private(monkeypatch):
    """Every job starts from the freshly built words, in its own memory
    object, even though earlier jobs of the same program wrote theirs."""
    started = []
    real = runner.Simulation

    class Recording(real):
        def __init__(self, workload, *args, **kwargs):
            super().__init__(workload, *args, **kwargs)
            memory = self.workload.memory
            started.append((self.workload.name, memory, memory.words()))

    monkeypatch.setattr(runner, "Simulation", Recording)
    outcomes = ExperimentEngine(cache=None, checkpoints=None).run(_jobs())
    assert all(outcome.ok for outcome in outcomes)
    assert len(started) == len(PROGRAMS) * len(POLICIES)
    assert len({id(memory) for _, memory, _ in started}) == len(started)

    fresh = {
        name: runner.load_workload(name).memory.words()
        for name in PROGRAMS
    }
    for name, _, initial in started:
        assert list(initial.items()) == list(fresh[name].items())
    # The property is not vacuous: jobs did write their memories.
    assert any(memory.words() != initial for _, memory, initial in started)


def test_nothing_built_outlives_the_run(monkeypatch):
    built = []
    real = runner.load_workload

    def tracking(name, seed=1):
        workload = real(name, seed=seed)
        built.append(weakref.ref(workload))
        built.append(weakref.ref(workload.memory))
        built.append(weakref.ref(workload.program))
        return workload

    monkeypatch.setattr(runner, "load_workload", tracking)
    engine = ExperimentEngine(cache=None, checkpoints=None)
    outcomes = engine.run(_jobs())
    assert all(outcome.ok for outcome in outcomes)
    gc.collect()
    assert len(built) == 3 * len(PROGRAMS)
    assert [ref() for ref in built] == [None] * len(built)


#: Three budgets per program: the first starts cold, the other two
#: resume from the chain's snapshots.
LADDER = (1_000, 2_000, 3_000)


def _ladder_jobs():
    return [
        make_job(
            name, policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget, warmup_instructions=400,
        )
        for name in PROGRAMS
        for budget in LADDER
    ]


@pytest.fixture
def logged_builds(monkeypatch, tmp_path):
    """Count builtin builds through the builder seam, in this process
    and in forked workers alike (one line per build in a log file)."""
    log = tmp_path / "builds.log"
    real = runner.load_workload

    def logging(name, seed=1):
        with open(log, "a") as fh:
            fh.write(name + "\n")
        return real(name, seed=seed)

    monkeypatch.setattr(runner, "load_workload", logging)

    def counts():
        names = log.read_text().split() if log.exists() else []
        return {name: names.count(name) for name in set(names)}

    return counts


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "supervised"])
def test_budget_chain_builds_once(logged_builds, tmp_path, workers):
    engine = ExperimentEngine(
        workers=workers,
        cache=None,
        checkpoints=CheckpointStore(tmp_path / "store"),
    )
    outcomes = engine.run(_ladder_jobs())
    assert logged_builds() == {name: 1 for name in PROGRAMS}
    assert engine.stats.jobs_resumed == len(PROGRAMS) * (len(LADDER) - 1)
    alone = [
        ExperimentEngine(cache=None, checkpoints=None).run([job])[0]
        for job in _ladder_jobs()
    ]
    assert [_dumps(o) for o in outcomes] == [_dumps(o) for o in alone]


#: A tournament in miniature: the paper's policies and two zoo engines
#: over three programs.
TOURNAMENT_PROGRAMS = ("wupwise", "dot", "mgrid")
TOURNAMENT_POLICIES = ("hw_only", "self_repairing", "ghb_delta",
                       "adaptive_nextline")


def test_supervised_sweep_builds_each_program_once(logged_builds):
    jobs = [
        make_job(
            name, policy=policy, max_instructions=1_500,
            warmup_instructions=400, group=name,
        )
        for name in TOURNAMENT_PROGRAMS
        for policy in TOURNAMENT_POLICIES
    ]
    engine = ExperimentEngine(workers=2, cache=None, checkpoints=None)
    outcomes = engine.run(jobs)
    assert logged_builds() == {name: 1 for name in TOURNAMENT_PROGRAMS}
    assert engine.supervisor.dispatches == len(TOURNAMENT_PROGRAMS)
    alone = [
        ExperimentEngine(cache=None, checkpoints=None).run([job])[0]
        for job in jobs
    ]
    assert [_dumps(o) for o in outcomes] == [_dumps(o) for o in alone]


def _two_policy_ladder():
    return [
        make_job(
            name, policy=policy, max_instructions=budget,
            warmup_instructions=400,
        )
        for name in PROGRAMS
        for policy in (PrefetchPolicy.HW_ONLY, PrefetchPolicy.SELF_REPAIRING)
        for budget in LADDER
    ]


def test_merged_units_keep_each_chains_budget_order(logged_builds, tmp_path):
    """Both policies' chains of a program share one unit; each chain
    still runs shortest budget first, so every longer budget resumes."""
    resumed = {}
    for workers in (1, 2):
        engine = ExperimentEngine(
            workers=workers,
            cache=None,
            checkpoints=CheckpointStore(tmp_path / f"store-{workers}"),
        )
        outcomes = engine.run(_two_policy_ladder())
        assert all(outcome.ok for outcome in outcomes)
        resumed[workers] = engine.stats.jobs_resumed
    assert resumed[2] == resumed[1] == 2 * len(PROGRAMS) * (len(LADDER) - 1)
    assert logged_builds() == {name: 2 for name in PROGRAMS}


def test_units_group_by_source_and_launch_largest_first():
    engine = ExperimentEngine(workers=2, cache=None, checkpoints=None)
    jobs = [
        make_job(name, policy=policy, max_instructions=budget)
        for name, budget in (("wupwise", 1_000), ("dot", 5_000),
                             ("mgrid", 2_000))
        for policy in (PrefetchPolicy.HW_ONLY, PrefetchPolicy.BASIC)
    ]
    units = engine._units(jobs, list(range(len(jobs))))
    assert units == [[2, 3], [4, 5], [0, 1]]
    # One program cannot keep two workers busy as one unit: its
    # chains stay apart.
    assert engine._units(jobs[:2], [0, 1]) == [[0], [1]]
