"""Externally-fed workload sources: the scenario DSL and trace frontend.

Two ways to run something other than the 14 built-in benchmarks:

* ``scenario:<name-or-file.json>`` — a :class:`ScenarioSpec` from the
  curated catalog or a JSON file, compiled to a program through the
  ordinary workload builder;
* ``trace:<file.champsim.gz>`` — a ChampSim-format memory-access trace,
  lowered to a replay program.

:func:`resolve_job_source` turns any workload reference — builtin name,
prefixed string, or spec object — into the ``(name, scenario_dict,
trace_dict)`` triple :func:`repro.harness.engine.make_job` stores on the
job, and :func:`materialize_workload` rebuilds the runnable
:class:`~repro.workloads.base.Workload` from those dicts inside whatever
process executes the job.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

from ..errors import ConfigError
from ..workloads.base import Workload
from .catalog import CATALOG, CATALOG_NAMES
from .dsl import (
    PRIMITIVE_PARAMS,
    Phase,
    Primitive,
    ScenarioSpec,
    generate_scenario,
)
from .trace import TraceSpec, lower_trace, read_trace

__all__ = [
    "CATALOG",
    "CATALOG_NAMES",
    "PRIMITIVE_PARAMS",
    "Phase",
    "Primitive",
    "ScenarioSpec",
    "TraceSpec",
    "generate_scenario",
    "lower_trace",
    "materialize_workload",
    "read_trace",
    "resolve_job_source",
    "resolve_scenario",
]

#: Workload-reference prefixes understood by the CLI and ``make_job``.
SCENARIO_PREFIX = "scenario:"
TRACE_PREFIX = "trace:"


def resolve_scenario(ref: str) -> ScenarioSpec:
    """Resolve a scenario reference: catalog name, or path to a JSON
    spec file (anything containing a path separator or ending in
    ``.json`` is read as a file)."""
    if ref in CATALOG:
        return CATALOG[ref]
    if os.sep in ref or ref.endswith(".json") or os.path.exists(ref):
        return ScenarioSpec.load(ref)
    known = ", ".join(CATALOG_NAMES)
    raise ConfigError(
        f"unknown scenario {ref!r}: not in the catalog ({known}) and "
        "not a readable spec file"
    )


def resolve_job_source(
    workload: Union[str, ScenarioSpec, TraceSpec],
) -> Tuple[str, Optional[Dict], Optional[Dict]]:
    """Normalise a workload reference for :func:`make_job`.

    Returns ``(name, scenario_dict, trace_dict)``; at most one of the
    dicts is non-None.  Plain builtin names pass through untouched.
    """
    if isinstance(workload, ScenarioSpec):
        return workload.name, workload.to_dict(), None
    if isinstance(workload, TraceSpec):
        return workload.name, None, workload.to_dict()
    if not isinstance(workload, str):
        raise ConfigError(
            f"workload must be a name, ScenarioSpec, or TraceSpec; "
            f"got {workload!r}"
        )
    if workload.startswith(SCENARIO_PREFIX):
        spec = resolve_scenario(workload[len(SCENARIO_PREFIX):])
        return spec.name, spec.to_dict(), None
    if workload.startswith(TRACE_PREFIX):
        spec = TraceSpec.for_file(workload[len(TRACE_PREFIX):])
        return spec.name, None, spec.to_dict()
    return workload, None, None


def materialize_workload(
    scenario: Optional[Dict], trace: Optional[Dict], seed: int = 1
) -> Workload:
    """Rebuild the runnable workload a job's source dicts describe.

    The single seam the engine uses in whatever process runs the job —
    both dicts travel with the pickled :class:`SimJob`, so supervised
    workers rebuild identically to the in-process path.
    """
    if (scenario is None) == (trace is None):
        raise ConfigError(
            "exactly one of scenario/trace must be given to materialize"
        )
    if scenario is not None:
        return ScenarioSpec.from_dict(scenario).build(seed)
    return TraceSpec.from_dict(trace).build(seed)
