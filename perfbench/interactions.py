"""Which end-to-end metric each layer should move, and by how much.

``INTERACTIONS`` maps each ledger layer to the end-to-end metrics and
workloads a change to that layer is expected to move.  A layer can save
at most its share of the traced wall time on a workload, so
``BASELINE_SHARES`` records those shares as this benchmark first
measured them (``--trace 1`` at seed 1, 2-core x86-64 host, Python
3.11.7): the most a perf change to the layer can claim.  On
tournament-fleet the traced wall is the pool run plus its in-process
replay, so shares there are of that sum.
"""

from typing import Dict, List, Tuple

INTERACTIONS: Dict[str, List[Tuple[str, str]]] = {
    "workloads": [("sweep_s", "fig5-cold"), ("sweep_s", "tournament-fleet")],
    "cpu.compile": [
        ("sweep_s", "tournament-fleet"), ("sweep_s", "scaling-ladder"),
    ],
    "cpu.dispatch": [("sim_ips", "scaling-ladder")],
    "memory": [("sim_ips", "scaling-ladder"), ("sim_ips", "fig5-cold")],
    "hwprefetch": [("sim_ips", "scaling-ladder")],
    "hwprefetch.zoo": [("sweep_s", "tournament-fleet")],
    "trident": [("sim_ips", "scaling-ladder")],
    "checkpoint.capture": [
        ("sweep_s", "fig5-cold"), ("sweep_s", "tournament-fleet"),
        ("sweep_s", "scaling-ladder"),
    ],
    "checkpoint.restore": [("sweep_s", "scaling-ladder")],
    "runner": [("sweep_s", "fig5-cold")],
    "cache.get": [("sweep_s", "tournament-fleet")],
    "cache.put": [("sweep_s", "tournament-fleet")],
    "journal": [("sweep_s", "tournament-fleet")],
    "engine": [
        ("sweep_s", "tournament-fleet"), ("cell_tail_s", "tournament-fleet"),
    ],
    "engine.wait": [("sweep_s", "tournament-fleet")],
}

BASELINE_SHARES: Dict[str, Dict[str, float]] = {
    "fig5-cold": {
        "checkpoint.capture": 0.349,
        "workloads": 0.275,
        "memory": 0.105,
        "cpu.dispatch": 0.096,
        "cpu.compile": 0.08,
        "hwprefetch": 0.05,
        "trident": 0.036,
        "cache.put": 0.004,
        "engine": 0.003,
        "runner": 0.002,
        "cache.get": 0.001,
    },
    "scaling-ladder": {
        "checkpoint.capture": 0.281,
        "cpu.compile": 0.218,
        "memory": 0.124,
        "checkpoint.restore": 0.111,
        "cpu.dispatch": 0.099,
        "workloads": 0.08,
        "hwprefetch": 0.051,
        "trident": 0.032,
        "engine": 0.002,
        "cache.put": 0.002,
        "cache.get": 0.001,
    },
    "tournament-fleet": {
        "engine.wait": 0.259,
        "checkpoint.capture": 0.212,
        "workloads": 0.21,
        "cpu.compile": 0.188,
        "memory": 0.048,
        "cpu.dispatch": 0.032,
        "hwprefetch": 0.01,
        "hwprefetch.zoo": 0.008,
        "cache.put": 0.006,
        "trident": 0.006,
        "engine": 0.006,
        "runner": 0.003,
        "journal": 0.003,
        "cache.get": 0.001,
    },
}


def report_shares(workload: str, self_s: Dict[str, float], wall: float) -> None:
    """Print each layer's share of the traced wall time next to its
    recorded baseline share and the metrics it should move."""
    baseline = BASELINE_SHARES.get(workload, {})
    print("# layer                share  baseline  moves")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = seconds / wall
        was = baseline.get(layer)
        was_text = f"{was:8.1%}" if was is not None else "       -"
        moves = ", ".join(
            f"{m} on {w}" for m, w in INTERACTIONS.get(layer, [])
        )
        print(f"# {layer:<20} {share:6.1%}  {was_text}  {moves}")
