"""The benchmark's three workloads: fixed job grids plus engine settings.

Each grid is built directly with ``make_job(..., seed=seed)`` so the seed
reaches every cell and the measured grid does not move when the figure
entry points in ``repro.harness.experiments`` change.  Program names,
policies and budgets are spelled out here for the same reason.

Every sweep runs on a fresh temporary root (result cache, checkpoint
store and, where used, journal): no cell is ever served from state a
previous sweep or the host left behind.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable, List, Tuple

#: The 14 builtin programs (``repro.workloads.registry.BENCHMARK_NAMES``).
BUILTINS: Tuple[str, ...] = (
    "applu", "art", "dot", "equake", "facerec", "fma3d", "galgel",
    "gap", "mcf", "mgrid", "parser", "swim", "vis", "wupwise",
)

#: The four curated scenarios (``repro.scenarios.CATALOG``).
SCENARIOS: Tuple[str, ...] = (
    "scenario:stride-flip", "scenario:hash-churn",
    "scenario:ramp-chase", "scenario:object-walk",
)

#: Half the builtins, which keeps one ladder sweep near 30 s on a 2-core
#: x86-64 host (all 14 take about twice that): four irregular programs
#: (pointer chase, hash probing, low trace coverage, sparse CSR) and
#: three regular ones (stride, stencil, very long inner loop).  gap and
#: applu have the costliest batch compiles, which every hw_only restore
#: repeats.
SCALING_PROGRAMS: Tuple[str, ...] = (
    "mcf", "parser", "gap", "equake", "swim", "mgrid", "applu",
)

FIG5_POLICIES: Tuple[str, ...] = (
    "hw_only", "basic", "whole_object", "self_repairing",
)

#: The tournament field: hardware baseline, the paper's software
#: policies, then the four zoo engines.
TOURNAMENT_POLICIES: Tuple[str, ...] = (
    "hw_only", "basic", "self_repairing",
    "ghb_delta", "adaptive_nextline", "triangel", "power7_reconfig",
)

FIG5_BUDGET, FIG5_WARMUP = 8_000, 4_000
SCALING_BUDGETS, SCALING_WARMUP = (20_000, 40_000, 60_000), 4_000
TOURNAMENT_BUDGET, TOURNAMENT_WARMUP = 4_000, 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Pool size; 1 runs every cell in-process.
    workers: int
    #: Journal and telemetry on, as ``figure ... --journal-dir`` does.
    journal: bool
    build: Callable[[int], list]


def _fig5_jobs(seed: int) -> list:
    from repro.harness.engine import make_job

    return [
        make_job(
            name, policy=policy, max_instructions=FIG5_BUDGET,
            warmup_instructions=FIG5_WARMUP, seed=seed,
        )
        for name in BUILTINS
        for policy in FIG5_POLICIES
    ]


def _scaling_jobs(seed: int) -> list:
    from repro.harness.engine import make_job

    return [
        make_job(
            name, policy=policy, max_instructions=budget,
            warmup_instructions=SCALING_WARMUP, seed=seed,
        )
        for name in SCALING_PROGRAMS
        for policy in ("hw_only", "self_repairing")
        for budget in SCALING_BUDGETS
    ]


def _tournament_jobs(seed: int) -> list:
    from repro.harness.engine import make_job

    return [
        make_job(
            name, policy=policy, max_instructions=TOURNAMENT_BUDGET,
            warmup_instructions=TOURNAMENT_WARMUP, seed=seed, group=name,
        )
        for name in BUILTINS + SCENARIOS
        for policy in TOURNAMENT_POLICIES
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig5-cold",
            "figure-5 grid cold: every program is built, compiled and "
            "checkpointed four times and never restored, so per-job "
            "set-up shows",
            workers=1, journal=False, build=_fig5_jobs,
        ),
        Workload(
            "scaling-ladder",
            "figure-scaling chains: one build per chain, and longer "
            "budgets restore the shorter ones' snapshots, so restore, "
            "recompile and the simulator core show",
            workers=1, journal=False, build=_scaling_jobs,
        ),
        Workload(
            "tournament-fleet",
            "tournament grid on a 2-worker pool with journal and "
            "telemetry: short cells, so scheduling, IPC, fsync and zoo "
            "overhead dominate",
            workers=2, journal=True, build=_tournament_jobs,
        ),
    )
}


def cell_label(job) -> str:
    """A stable name for one cell: program/policy/budget."""
    policy = job.config.hw_prefetcher or job.config.policy.value
    return f"{job.group or job.workload}/{policy}/{job.config.max_instructions}"


def make_engine(workload: Workload, root: pathlib.Path, workers=None):
    """The engine a sweep runs on, rooted at the empty directory ``root``.

    Cache and checkpoints live under ``root/cache``; the journal and the
    telemetry feed, when on, under ``root/journal``.
    """
    from repro.harness.cache import ResultCache
    from repro.harness.engine import ExperimentEngine

    kwargs = {
        "workers": workload.workers if workers is None else workers,
        "cache": ResultCache(root / "cache"),
    }
    if workload.journal:
        from repro.harness.journal import JobJournal
        from repro.obs.telemetry import TelemetryHub

        hub = TelemetryHub(out_dir=root / "journal")
        journal = JobJournal(root / "journal")
        journal.append("sweep", argv=["perfbench", workload.name],
                       sweep_id=hub.sweep_id)
        kwargs.update(telemetry=hub, journal=journal)
    return ExperimentEngine(**kwargs)


def close_engine(engine) -> None:
    if engine.journal is not None:
        engine.journal.close()


def builtin_speedups(jobs: List, results: List) -> List[float]:
    """Self-repairing over hw_only IPC per builtin program, at the
    largest budget the grid runs."""
    top = max(job.config.max_instructions for job in jobs)
    ipc = {}
    for job, result in zip(jobs, results):
        policy = job.config.hw_prefetcher or job.config.policy.value
        if (
            job.scenario is None and job.trace is None
            and job.config.max_instructions == top
            and policy in ("hw_only", "self_repairing")
        ):
            ipc[(job.workload, policy)] = result.ipc
    return [
        ipc[(name, "self_repairing")] / ipc[(name, "hw_only")]
        for name in BUILTINS
        if (name, "self_repairing") in ipc and (name, "hw_only") in ipc
    ]
