#!/usr/bin/env python3
"""The repo benchmark: cold experiment sweeps, end to end and per layer.

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  It times engine set-up in
fresh interpreters, runs back-to-back cold sweeps of the workload's grid
until ``--seconds`` have passed (at least one sweep), each on a fresh
temporary root, and finishes with a warm replay from the last sweep's
cache.  Timings are medians over the sweeps.

``--trace 1`` prints the per-layer metrics.  It runs one untraced cold
sweep, then the same grid cold and warm again under the external layer
ledger (``perfbench/ledger.py``).  On the pooled workload the ledger
traces only the engine-side layers of the pool run and takes the
simulation layers from an in-process replay of the grid.

Every cell's ``SimulationResult.to_dict()`` digest is checked: the sweeps
of a run, the warm replay and the traced passes must all agree, and at
the reference seed they must equal ``perfbench/reference.json``.  Any
error outcome or mismatch counts as a failed cell.  Regenerate the
reference after a change that is meant to move simulated results with:

    python3 perfbench/run.py --write-reference

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch roots for caches, checkpoints and journals (one per sweep).
TMP = ROOT / ".perfbench_tmp"
#: Span dumps of traced runs.
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1
SETUP_PROBES = 5
#: The paper's reported mean speedup of self-repairing prefetching over
#: the hardware-only baseline (context for sr_speedup_geomean).
PAPER_SR_SPEEDUP = 1.23


def digest(result) -> str:
    canonical = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Sweep:
    wall_s: float
    outcomes: list
    digests: List[Optional[str]]


def reap_workers(timeout: float = 60.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.01)


def run_sweep(workload, jobs, root: pathlib.Path, workers=None) -> Sweep:
    """One engine over ``root``: from first job submitted to last result
    returned."""
    from grids import close_engine, make_engine

    engine = make_engine(workload, root, workers)
    try:
        started = time.perf_counter()
        outcomes = engine.run(jobs)
        wall = time.perf_counter() - started
    finally:
        close_engine(engine)
        reap_workers()
    return Sweep(
        wall, outcomes,
        [digest(o.result) if o.ok else None for o in outcomes],
    )


class Checker:
    """Counts attempted and failed cells across every pass of a run."""

    def __init__(self, labels: List[str]) -> None:
        self.labels = labels
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, name: str, sweep: Sweep, expected, cached=False) -> None:
        for index, (label, outcome, got) in enumerate(
            zip(self.labels, sweep.outcomes, sweep.digests)
        ):
            self.attempted += 1
            want = expected[index] if expected is not None else None
            problem = None
            if not outcome.ok:
                problem = f"{outcome.error['type']}: {outcome.error['error']}"
            elif want is not None and got != want:
                problem = f"digest {got[:12]} != expected {want[:12]}"
            elif cached and not outcome.cached:
                problem = "warm replay re-simulated the cell"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{name} {label}: {problem}")


def reference_digests(name: str, labels: List[str]):
    """The stored digests for ``name`` in grid order, or None if the
    reference does not cover this exact grid."""
    try:
        stored = json.loads(REFERENCE.read_text())["workloads"][name]
    except (OSError, ValueError, KeyError):
        return None
    if sorted(stored) != sorted(labels):
        return None
    return [stored[label] for label in labels]


def fresh_root() -> pathlib.Path:
    TMP.mkdir(parents=True, exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="sweep-", dir=TMP))


def percentile_tail(values: List[float]):
    """(value, percentile, n): the highest order statistic with at least
    ten cells above it."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def sweep_numbers(jobs, sweep: Sweep) -> Dict[str, float]:
    from grids import builtin_speedups

    ok = [(job, o) for job, o in zip(jobs, sweep.outcomes) if o.ok]
    elapsed = [o.elapsed_s for _, o in ok]
    tail, pct, n = percentile_tail(elapsed)
    delivered = sum(
        job.config.warmup_instructions + o.result.instructions
        for job, o in ok
    )
    return {
        "sweep_s": sweep.wall_s,
        "sim_ips": delivered / sweep.wall_s,
        "cell_p50_s": statistics.median(elapsed),
        "cell_tail_s": tail,
        "tail_pct": pct,
        "cells": n,
        "busy_s": sum(elapsed),
        "sr_speedup_geomean": geomean(
            builtin_speedups([j for j, _ in ok], [o.result for _, o in ok])
        ),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (pool workers, set-up probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(name: str) -> List[float]:
    """Fresh-interpreter set-up times, one probe process at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        root = fresh_root()
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name,
                 str(root)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
                check=True,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics.
# ----------------------------------------------------------------------
def end_to_end(workload, jobs, seconds: float, expected, checker):
    setup = measure_setup(workload.name)
    sweeps: List[Dict[str, float]] = []
    first: Optional[List[Optional[str]]] = expected
    started = time.perf_counter()
    root = None
    while not sweeps or time.perf_counter() - started < seconds:
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)
        root = fresh_root()
        sweep = run_sweep(workload, jobs, root)
        checker.check(f"cold#{len(sweeps) + 1}", sweep, first)
        if first is None:
            first = sweep.digests
        sweeps.append(sweep_numbers(jobs, sweep))
    warm = run_sweep(workload, jobs, root)
    checker.check("warm", warm, first, cached=True)
    shutil.rmtree(root, ignore_errors=True)

    def med(key):
        return statistics.median(s[key] for s in sweeps)

    cells = sweeps[0]["cells"]
    print(f"# {len(sweeps)} cold sweep(s) of {len(jobs)} cells; "
          f"warm replay {warm.wall_s:.3f} s")
    print(f"# cell_tail_s is p{sweeps[0]['tail_pct']:.1f} over {cells} "
          f"cells per sweep (10 cells beyond it)")
    print(f"# setup_s probes: {', '.join(f'{t:.3f}' for t in setup)}")
    print(f"# sr_speedup_geomean is simulated and unvalidated against "
          f"hardware; the paper reports {PAPER_SR_SPEEDUP:.2f}x")
    return {
        "sweep_s": metric(med("sweep_s"), "s"),
        "sim_ips": metric(med("sim_ips"), "1/s"),
        "cell_p50_s": metric(med("cell_p50_s"), "s"),
        "cell_tail_s": metric(med("cell_tail_s"), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        "ok_frac": metric(
            1.0 - checker.failed / checker.attempted, "frac"
        ),
        "sr_speedup_geomean": metric(med("sr_speedup_geomean"), "x"),
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics.
# ----------------------------------------------------------------------
def traced(workload, jobs, seed: int, expected, checker):
    from interactions import report_shares
    from ledger import ENGINE_TARGETS, SIM_TARGETS, Ledger

    root = fresh_root()
    try:
        plain = run_sweep(workload, jobs, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    checker.check("untraced", plain, expected)
    cold = expected if expected is not None else plain.digests
    numbers = sweep_numbers(jobs, plain)

    pooled = workload.workers > 1
    ledger = Ledger()
    replay = None
    origin = time.perf_counter()
    with ledger:
        root = fresh_root()
        try:
            if pooled:
                ledger.install(ENGINE_TARGETS)
                ledger.install_wait()
            else:
                ledger.install(SIM_TARGETS + ENGINE_TARGETS)
            sweep = run_sweep(workload, jobs, root)
            warm = run_sweep(workload, jobs, root)
            ledger.uninstall()
            if pooled:
                replay_root = fresh_root()
                try:
                    ledger.install(SIM_TARGETS)
                    replay = run_sweep(workload, jobs, replay_root, workers=1)
                    ledger.uninstall()
                finally:
                    shutil.rmtree(replay_root, ignore_errors=True)
        finally:
            ledger.uninstall()
            shutil.rmtree(root, ignore_errors=True)
    checker.check("traced", sweep, cold)
    checker.check("traced-warm", warm, cold, cached=True)
    sim_pass = sweep
    if replay is not None:
        checker.check("traced-replay", replay, cold)
        sim_pass = replay
    wall = sweep.wall_s + warm.wall_s + (replay.wall_s if replay else 0.0)

    OUT.mkdir(parents=True, exist_ok=True)
    ledger.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl", origin)

    s, c, k = ledger.self_s, ledger.calls, ledger.counts
    results = [o.result for o in sim_pass.outcomes if o.ok]
    loads = sum(r.core.loads_executed for r in results)
    misses = sum(r.core.misses_total for r in results)
    captures = k["checkpoint.captures"]
    attributed = ledger.attributed_s()
    metrics = {
        "workloads.build_s": metric(s["workloads"], "s"),
        "workloads.builds": metric(c["workloads"], "count"),
        "cpu.compile_s": metric(s["cpu.compile"], "s"),
        "cpu.compiles": metric(c["cpu.compile"], "count"),
        "cpu.dispatch_s": metric(s["cpu.dispatch"], "s"),
        "cpu.instructions": metric(k["cpu.instructions"], "count"),
        "memory.access_s": metric(s["memory"], "s"),
        "memory.calls": metric(c["memory"], "count"),
        "memory.l1_miss_rate": metric(misses / loads if loads else 0.0,
                                      "frac"),
        "hwprefetch.self_s": metric(s["hwprefetch"], "s"),
        "hwprefetch.calls": metric(
            c["hwprefetch"] + c["hwprefetch.zoo"], "count"
        ),
        "hwprefetch.zoo_s": metric(s["hwprefetch.zoo"], "s"),
        "trident.self_s": metric(s["trident"], "s"),
        "trident.calls": metric(c["trident"], "count"),
        "trident.repairs": metric(
            sum(r.repairs_applied for r in results), "count"
        ),
        "checkpoint.capture_s": metric(s["checkpoint.capture"], "s"),
        "checkpoint.captures": metric(captures, "count"),
        "checkpoint.bytes_written": metric(
            k["checkpoint.bytes_written"], "bytes"
        ),
        "checkpoint.restore_s": metric(s["checkpoint.restore"], "s"),
        "checkpoint.restores": metric(k["checkpoint.restores"], "count"),
        "checkpoint.reuse_frac": metric(
            k["checkpoint.restores"] / captures if captures else 0.0, "frac"
        ),
        "runner.self_s": metric(s["runner"], "s"),
        "cache.get_s": metric(s["cache.get"], "s"),
        "cache.put_s": metric(s["cache.put"], "s"),
        "cache.hit_frac": metric(
            k["cache.hits"] / k["cache.gets"] if k["cache.gets"] else 0.0,
            "frac",
        ),
        "journal.append_s": metric(s["journal"], "s"),
        "journal.appends": metric(c["journal"], "count"),
        "engine.self_s": metric(s["engine"], "s"),
        "engine.wait_s": metric(s["engine.wait"], "s"),
        "engine.overhead_s": metric(
            numbers["sweep_s"] - numbers["busy_s"] / workload.workers, "s"
        ),
        "engine.worker_busy_frac": metric(
            numbers["busy_s"] / (workload.workers * numbers["sweep_s"]),
            "frac",
        ),
        "python.gc_s": metric(ledger.gc_s, "s"),
        "traced_wall_s": metric(wall, "s"),
        "unattributed_s": metric(wall - attributed, "s"),
        "tracing_overhead_frac": metric(
            sweep.wall_s / plain.wall_s - 1.0, "frac"
        ),
    }
    print(f"# traced wall {wall:.3f} s = layer self times "
          f"{attributed:.3f} s + unattributed {wall - attributed:.3f} s")
    report_shares(workload.name, ledger.self_s, wall)
    return metrics


# ----------------------------------------------------------------------
def write_reference() -> int:
    from grids import WORKLOADS, cell_label

    stored = {}
    for name, workload in WORKLOADS.items():
        jobs = workload.build(REFERENCE_SEED)
        root = fresh_root()
        try:
            sweep = run_sweep(workload, jobs, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if any(d is None for d in sweep.digests):
            print(f"error: {name} has failed cells", file=sys.stderr)
            return 1
        stored[name] = {
            cell_label(job): d for job, d in zip(jobs, sweep.digests)
        }
        print(f"{name}: {len(jobs)} cells in {sweep.wall_s:.1f} s")
    REFERENCE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "workloads": stored}, indent=1,
        sort_keys=True,
    ) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Safety net: nothing may fall back to the per-user cache.
    os.environ["REPRO_CACHE_DIR"] = str(TMP / "default-cache")
    from grids import WORKLOADS, cell_label

    try:
        if args.write_reference:
            return write_reference()
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        jobs = workload.build(args.seed)
        labels = [cell_label(job) for job in jobs]
        expected = None
        if args.seed == REFERENCE_SEED:
            expected = reference_digests(workload.name, labels)
            if expected is None:
                print(f"error: {REFERENCE.name} does not cover "
                      f"{workload.name}", file=sys.stderr)
                return 1
        checker = Checker(labels)
        print(f"# {workload.name}: {workload.why}")
        if args.trace:
            metrics = traced(workload, jobs, args.seed, expected, checker)
        else:
            metrics = end_to_end(
                workload, jobs, args.seconds, expected, checker
            )
    finally:
        reap_workers()
        shutil.rmtree(TMP, ignore_errors=True)
    for problem in checker.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
