"""Workload registry: the paper's 14 benchmarks by name."""

from __future__ import annotations

from typing import Callable, Dict, List

from . import (
    applu,
    art,
    dot,
    equake,
    facerec,
    fma3d,
    galgel,
    gap,
    mcf,
    mgrid,
    parser,
    swim,
    vis,
    wupwise,
)
from .base import Workload, source_key

#: Benchmark order as listed in the paper (section 4.2).
BENCHMARK_NAMES: List[str] = [
    "applu",
    "art",
    "dot",
    "equake",
    "facerec",
    "fma3d",
    "galgel",
    "gap",
    "mcf",
    "mgrid",
    "parser",
    "swim",
    "vis",
    "wupwise",
]

_BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "applu": applu.build,
    "art": art.build,
    "dot": dot.build,
    "equake": equake.build,
    "facerec": facerec.build,
    "fma3d": fma3d.build,
    "galgel": galgel.build,
    "gap": gap.build,
    "mcf": mcf.build,
    "mgrid": mgrid.build,
    "parser": parser.build,
    "swim": swim.build,
    "vis": vis.build,
    "wupwise": wupwise.build,
}


def load_workload(name: str, seed: int = 1) -> Workload:
    """Build the named benchmark workload.

    Building is deterministic for a given (name, seed): identical layout,
    identical program.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    workload = builder(seed)
    workload.memory.mark_built(source_key(name, None, None, seed))
    return workload


def all_workload_names() -> List[str]:
    return list(BENCHMARK_NAMES)
