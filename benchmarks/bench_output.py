"""Machine-readable bench records.

Each perf bench renders a human table into ``benchmarks/results/<name>.txt``
(via the ``report`` fixture) and, through :func:`write_bench_record`, a
JSON companion ``benchmarks/results/BENCH_<name>.json`` with the raw
wall-time and speedup numbers.  The JSON is what CI artifacts and
longitudinal tooling consume: stable keys, no layout to parse.

Record shape::

    {
      "bench": "interp_fastpath",
      "budget": {"instructions": 120000, "warmup": 200000},
      "host": {"python": "3.11.x", "platform": "Linux-..."},
      "wall_times_s": {"<label>": seconds, ...},
      "speedup": <headline ratio, when the bench has one>,
      ... bench-specific extras ...
    }

Besides the per-bench snapshot file, every record is also *appended* to
``results/BENCH_history.jsonl`` stamped with the wall-clock time, the
git revision and a digest of the source tree — the longitudinal feed
``tools/bench_trend.py`` turns into per-PR trend reports and a
perf-regression gate.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import subprocess
from datetime import datetime, timezone
from typing import Dict, List, Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Append-only longitudinal record: one JSON object per bench run, ever.
HISTORY_PATH = RESULTS_DIR / "BENCH_history.jsonl"

#: The source tree a history line's ``tree`` digest covers.
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"


def _git_rev() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(__file__).parent,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev or None


def source_tree_digest(root: pathlib.Path = SRC_DIR) -> str:
    """sha256 over the sorted paths and contents of the files under
    ``root`` (bytecode caches and packaging metadata excluded)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        parts = path.relative_to(root).parts
        if not path.is_file() or any(
            part == "__pycache__" or part.endswith(".egg-info")
            for part in parts
        ):
            continue
        digest.update("/".join(parts).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def append_history(record: Dict) -> pathlib.Path:
    """Append one bench record to ``BENCH_history.jsonl``.

    The entry is the record plus ``recorded_at`` (UTC ISO timestamp),
    ``git_rev`` and ``tree``.  ``git_rev`` names HEAD, which is the
    parent commit while a change is still uncommitted; ``tree`` digests
    the ``src/`` files actually measured, so a line can be matched to
    the commit that later contains them.  The file only ever grows, so
    the full perf history of the repo is one greppable JSONL stream.
    """
    entry = dict(record)
    entry["recorded_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    entry["git_rev"] = _git_rev()
    entry["tree"] = source_tree_digest()
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(HISTORY_PATH, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return HISTORY_PATH


def read_history(path: Optional[pathlib.Path] = None) -> List[Dict]:
    """Load the history feed, oldest first; torn tail lines are skipped
    (same recovery rule as the job journal)."""
    records: List[Dict] = []
    target = HISTORY_PATH if path is None else pathlib.Path(path)
    try:
        with open(target, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        pass
    return records


def write_bench_record(
    name: str,
    *,
    wall_times_s: Dict[str, float],
    speedup: Optional[float] = None,
    extra: Optional[Dict] = None,
) -> pathlib.Path:
    """Write ``results/BENCH_<name>.json``; returns the path written.

    ``wall_times_s`` maps a bench-chosen label (a cell, a variant) to
    seconds.  ``speedup`` is the bench's headline ratio — the number its
    gate asserts on.  ``extra`` is merged in at the top level for
    bench-specific fields (per-cell tables, budgets swept, ...).
    """
    from repro.harness.experiments import bench_instructions, bench_warmup

    record: Dict = {
        "bench": name,
        "budget": {
            "instructions": bench_instructions(),
            "warmup": bench_warmup(),
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "wall_times_s": {
            label: round(seconds, 4)
            for label, seconds in wall_times_s.items()
        },
    }
    if speedup is not None:
        record["speedup"] = round(speedup, 4)
    if extra:
        record.update(extra)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    append_history(record)
    return path
