"""Programmatic verdicts on the paper's claims.

Each :class:`Claim` names a quantitative statement from the paper's
evaluation and a predicate over this reproduction's experiment results.
``evaluate_claims`` runs the necessary experiments once and grades every
claim REPRODUCED / DEVIATES, so a reader (or CI) can see at a glance where
the reproduction stands — the machine-checkable version of
EXPERIMENTS.md's summary table.

Use from the CLI::

    python -m repro claims --workloads mcf,art,swim --instructions 80000
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from . import experiments as E
from .report import render_table


@dataclass
class Claim:
    """One gradeable statement from the paper."""

    ident: str
    statement: str
    #: Receives the experiment-result cache; returns (ok, detail).
    check: Callable[[Dict], tuple]


@dataclass
class Verdict:
    claim: Claim
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Claim predicates.
# ---------------------------------------------------------------------------
def _hw_helps(cache):
    fig2 = cache["fig2"]
    ok = fig2.mean_speedup_8x8 > 1.0 and fig2.mean_speedup_4x4 > 1.0
    return ok, (
        f"4x4 {fig2.mean_speedup_4x4:.2f}x, 8x8 {fig2.mean_speedup_8x8:.2f}x"
    )


def _overhead_tiny(cache):
    fig3 = cache["fig3"]
    ok = fig3.mean_overhead < 0.02
    return ok, f"overhead-only slowdown {fig3.mean_overhead:.2%}"


def _coverage_high(cache):
    fig4 = cache["fig4"]
    ok = fig4.mean_trace_coverage > 0.6
    return ok, (
        f"{fig4.mean_trace_coverage:.0%} of misses in traces, "
        f"{fig4.mean_prefetch_coverage:.0%} prefetchable"
    )


def _repair_beats_basic(cache):
    fig5 = cache["fig5"]
    basic = fig5.mean_speedup("basic")
    repaired = fig5.mean_speedup("self_repairing")
    ok = repaired > basic and repaired > 1.03
    return ok, f"basic {basic:.3f}x vs self-repairing {repaired:.3f}x"


def _ordering_holds(cache):
    fig5 = cache["fig5"]
    basic = fig5.mean_speedup("basic")
    whole = fig5.mean_speedup("whole_object")
    repaired = fig5.mean_speedup("self_repairing")
    ok = basic <= whole * 1.02 and whole <= repaired * 1.02
    return ok, f"{basic:.3f} <= {whole:.3f} <= {repaired:.3f}"


def _prefetch_caused_misses_rare(cache):
    fig6 = cache["fig6"]
    worst = max(r["miss_due_to_prefetch"] for r in fig6.rows)
    mean = sum(r["miss_due_to_prefetch"] for r in fig6.rows) / len(fig6.rows)
    ok = mean < 0.05
    return ok, f"mean {mean:.2%}, worst {worst:.2%}"


def _combined_best(cache):
    fig9 = cache["fig9"]
    hw = fig9.mean_speedup("hw_only")
    combined = fig9.mean_speedup("combined")
    ok = combined >= hw
    return ok, f"HW {hw:.2f}x, combined {combined:.2f}x"


def _sw_competitive(cache):
    fig9 = cache["fig9"]
    hw = fig9.mean_speedup("hw_only")
    sw = fig9.mean_speedup("sw_only")
    ok = sw >= hw * 0.9
    return ok, f"SW-only {sw:.2f}x vs HW-only {hw:.2f}x"


def _software_outranks_zoo(cache):
    """The adaptivity claim, stress-tested: the self-repairing software
    prefetcher must outrank every *adaptive hardware* engine in the zoo,
    not just the paper's static stream-buffer baseline."""
    from ..hwprefetch.zoo import zoo_names

    tournament = cache["tournament"]
    by_policy = {
        e["policy"]: e["mean_speedup"] for e in tournament.ranking
    }
    repaired = by_policy["self_repairing"]
    zoo = {name: by_policy[name] for name in zoo_names() if name in by_policy}
    if not zoo:
        return False, "no zoo contenders ranked"
    best_name = max(zoo, key=lambda n: zoo[n])
    ok = all(repaired > speedup for speedup in zoo.values())
    return ok, (
        f"self_repairing {repaired:.3f}x vs best zoo engine "
        f"{best_name} {zoo[best_name]:.3f}x"
    )


def _tournament_complete(cache):
    """Structural claim on the harness itself: every contender produced
    a result on every workload and the ranking covers all of them."""
    tournament = cache["tournament"]
    contenders = set(tournament.contenders)
    complete = all(
        set(row["speedup"]) == contenders for row in tournament.rows
    )
    ranked = {entry["policy"] for entry in tournament.ranking}
    ok = bool(tournament.rows) and complete and ranked == contenders
    return ok, (
        f"{len(tournament.rows)} workloads x {len(contenders)} "
        f"contenders, {len(tournament.errors)} errors"
    )


CLAIMS: List[Claim] = [
    Claim(
        "fig2-hw-baseline",
        "Hardware stream buffers speed up the no-prefetch baseline",
        _hw_helps,
    ),
    Claim(
        "s5.1-overhead",
        "Running the optimizer without linking traces is nearly free "
        "(paper: 0.6%)",
        _overhead_tiny,
    ),
    Claim(
        "fig4-coverage",
        "Most load misses occur inside hot traces (paper: >85%)",
        _coverage_high,
    ),
    Claim(
        "fig5-headline",
        "Self-repairing beats non-adaptive software prefetching "
        "(paper: +23% vs +11%)",
        _repair_beats_basic,
    ),
    Claim(
        "fig5-ordering",
        "basic <= whole-object <= self-repairing on average",
        _ordering_holds,
    ),
    Claim(
        "fig6-displacement",
        "Misses caused by prefetch displacement are rare",
        _prefetch_caused_misses_rare,
    ),
    Claim(
        "fig9-combined",
        "Software + hardware prefetching combined is at least as good "
        "as hardware alone",
        _combined_best,
    ),
    Claim(
        "fig9-sw-competitive",
        "Software-only prefetching is competitive with the 8x8 buffers "
        "(paper: +11% better)",
        _sw_competitive,
    ),
    Claim(
        "tournament-sw-adaptivity",
        "Self-repairing software prefetching outranks every adaptive "
        "hardware engine in the zoo",
        _software_outranks_zoo,
    ),
    Claim(
        "tournament-complete",
        "The policy tournament ranks every contender on every workload",
        _tournament_complete,
    ),
]


def evaluate_claims(
    workloads: Optional[Sequence[str]] = None,
    max_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    engine=None,
    fast: bool = True,
) -> List[Verdict]:
    """Run the experiments each claim needs and grade all claims.

    An :class:`~repro.harness.engine.ExperimentEngine` may be passed so
    the figures share one cache and worker fleet; figures that repeat a
    baseline (fig2's HW runs, fig9's) then cost one simulation total.
    """
    kwargs = dict(
        workloads=workloads, max_instructions=max_instructions,
        warmup=warmup, engine=engine, fast=fast,
    )
    cache: Dict = {
        "fig2": E.fig2_hw_baseline(**kwargs),
        "fig3": E.fig3_overhead(**kwargs),
        "fig4": E.fig4_coverage(**kwargs),
        "fig5": E.fig5_policies(**kwargs),
        "fig6": E.fig6_breakdown(**kwargs),
        "fig9": E.fig9_sw_vs_hw(**kwargs),
        "tournament": E.tournament(**kwargs),
    }
    verdicts = []
    for claim in CLAIMS:
        ok, detail = claim.check(cache)
        verdicts.append(Verdict(claim=claim, ok=ok, detail=detail))
    return verdicts


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    rows = [
        (
            v.claim.ident,
            "REPRODUCED" if v.ok else "DEVIATES",
            v.detail,
        )
        for v in verdicts
    ]
    passed = sum(1 for v in verdicts if v.ok)
    table = render_table(
        ["claim", "verdict", "measured"],
        rows,
        title=f"Paper claims: {passed}/{len(verdicts)} reproduced",
    )
    return table
