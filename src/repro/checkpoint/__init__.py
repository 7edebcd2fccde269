"""Snapshot/resume checkpoints: capture a deterministic simulator state
and resume it at a larger budget, byte-identical to a cold run.

See DESIGN.md §5d.  :mod:`~repro.checkpoint.snapshot` owns the canonical
serialisation and the quiescence rule; :mod:`~repro.checkpoint.store`
owns the prefix-keyed on-disk layout the experiment engine resumes from.
"""

from .snapshot import (
    FORMAT_VERSION,
    Snapshot,
    canonical_dumps,
    canonical_loads,
    capture,
    is_quiescent,
    restore,
)
from .store import CheckpointStore, prefix_spec, prune, scan_usage

__all__ = [
    "FORMAT_VERSION",
    "Snapshot",
    "CheckpointStore",
    "canonical_dumps",
    "canonical_loads",
    "capture",
    "is_quiescent",
    "prefix_spec",
    "prune",
    "restore",
    "scan_usage",
]
