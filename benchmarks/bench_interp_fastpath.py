"""Interpreter fast path — decoded dispatch vs the reference stepper.

The decoded fast path (``src/repro/cpu/fastpath.py``) must be a pure
wall-clock optimization: byte-identical results, measurably faster.
This bench times both interpreters on figure-5 workloads at the
standard budget and asserts the headline speedup, re-checking payload
identity on every cell so a perf regression can never hide a
correctness one.
"""

import json
import math
import time

from bench_output import write_bench_record
from conftest import shapes_asserted

from repro.config import PrefetchPolicy
from repro.harness.experiments import bench_instructions, bench_warmup
from repro.harness.runner import run_simulation

#: Figure-5 cells where decoded dispatch dominates the profile (the
#: hw_only runs spend no time in the Trident runtime, so interpreter
#: overhead is the bottleneck).  gap/hw_only has the longest
#: straight-line run of any workload (998 instructions), so it is the
#: cell that shows batch compile cost.  Two gates: the best cell must
#: win >=1.5x, and no cell may be slower than the reference stepper.
#: The geomean is recorded but not gated here.
CELLS = (
    ("swim", PrefetchPolicy.HW_ONLY),
    ("applu", PrefetchPolicy.HW_ONLY),
    ("gap", PrefetchPolicy.HW_ONLY),
    ("swim", PrefetchPolicy.SELF_REPAIRING),
    ("equake", PrefetchPolicy.SELF_REPAIRING),
)

MIN_SPEEDUP = 1.5
MIN_CELL_SPEEDUP = 1.0


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _timed_cell(workload, policy, fast):
    start = time.perf_counter()
    result = run_simulation(
        workload,
        policy=policy,
        max_instructions=bench_instructions(),
        warmup_instructions=bench_warmup(),
        fast=fast,
    )
    return time.perf_counter() - start, json.dumps(result.to_dict())


def run_fastpath_bench():
    rows = []
    for workload, policy in CELLS:
        fast_s, fast_payload = _timed_cell(workload, policy, fast=True)
        slow_s, slow_payload = _timed_cell(workload, policy, fast=False)
        assert fast_payload == slow_payload, (
            f"fast path diverged on {workload}/{policy.value}"
        )
        rows.append((workload, policy.value, slow_s, fast_s, slow_s / fast_s))
    return rows


def render(rows):
    lines = [
        "Interpreter fast path: decoded dispatch vs reference stepper",
        f"(budget: {bench_instructions():,} measured "
        f"+ {bench_warmup():,} warmup instructions)",
        "",
        f"{'workload':<10} {'policy':<16} {'slow (s)':>9} "
        f"{'fast (s)':>9} {'speedup':>8}",
    ]
    for workload, policy, slow_s, fast_s, speedup in rows:
        lines.append(
            f"{workload:<10} {policy:<16} {slow_s:>9.2f} "
            f"{fast_s:>9.2f} {speedup:>7.2f}x"
        )
    speedups = [r[4] for r in rows]
    lines.append("")
    lines.append(
        f"best speedup: {max(speedups):.2f}x (gate: >={MIN_SPEEDUP}x)"
    )
    lines.append(
        f"worst speedup: {min(speedups):.2f}x (gate: >={MIN_CELL_SPEEDUP}x)"
    )
    lines.append(f"geomean speedup: {geomean(speedups):.2f}x (not gated)")
    return "\n".join(lines)


def record_rows(rows):
    """Write the bench record (snapshot + history) for one run's rows.

    Shared by the pytest bench and ``tools/bench_trend.py measure`` so
    both produce identical records.
    """
    wall_times = {}
    for workload, policy, slow_s, fast_s, _speedup in rows:
        wall_times[f"{workload}/{policy}/slow"] = slow_s
        wall_times[f"{workload}/{policy}/fast"] = fast_s
    speedups = [r[4] for r in rows]
    return write_bench_record(
        "interp_fastpath",
        wall_times_s=wall_times,
        speedup=max(speedups),
        extra={
            "gate_min_speedup": MIN_SPEEDUP,
            "gate_min_cell_speedup": MIN_CELL_SPEEDUP,
            "min_cell_speedup": round(min(speedups), 4),
            "geomean_speedup": round(geomean(speedups), 4),
        },
    )


def test_interp_fastpath_speedup(benchmark, report):
    rows = benchmark.pedantic(
        run_fastpath_bench, iterations=1, rounds=1
    )
    report("interp_fastpath", render(rows))
    record_rows(rows)
    if not shapes_asserted():
        return  # tiny smoke budgets: ratios are all noise
    best = max(r[4] for r in rows)
    assert best >= MIN_SPEEDUP, (
        f"fast path best speedup {best:.2f}x below {MIN_SPEEDUP}x gate"
    )
    slow_cells = [
        f"{workload}/{policy} {speedup:.2f}x"
        for workload, policy, _slow_s, _fast_s, speedup in rows
        if speedup < MIN_CELL_SPEEDUP
    ]
    assert not slow_cells, (
        f"fast path slower than the reference stepper on {slow_cells} "
        f"(every cell must reach {MIN_CELL_SPEEDUP}x)"
    )
