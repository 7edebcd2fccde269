"""External layer ledger: wall time per layer, measured from outside.

:class:`Ledger` replaces public functions of the simulator's layers with
timing wrappers for the length of one traced run and puts the originals
back afterwards; no ``repro`` source changes.  Wrappers must be in place
before any ``Simulation`` is built, because the fast interpreter binds
``hierarchy.load`` and friends when it compiles a program.

Each wrapped call is a span.  A layer's self time is the sum of its
spans' durations minus the time their child spans cover, so the self
times of all layers add up to the time spent inside any wrapped call,
and ``unattributed_s`` (traced wall minus that sum) is the rest.
Coarse spans (everything but the per-access memory, prefetcher and
Trident hooks, which fire millions of times) are kept in memory and
written out once by :meth:`Ledger.write_spans`.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple


def _count_put(counts, stored, args) -> None:
    if stored:
        store, prefix, snapshot = args[:3]
        path = store.path_for(prefix, snapshot.committed)
        counts["checkpoint.bytes_written"] += path.stat().st_size


def _count_get(counts, payload, args) -> None:
    counts["cache.gets"] += 1
    counts["cache.hits"] += payload is not None


def _counter(name: str):
    def count(counts, result, args) -> None:
        counts[name] += 1

    return count


_count_capture = _counter("checkpoint.captures")
_count_restore = _counter("checkpoint.restores")

#: (module, attribute path, layer, counter).  A dotted attribute path
#: names a class method.  Functions are patched where they are *bound*:
#: modules that ``from x import f`` hold their own reference.  A counter
#: ``f(counts, result, args)`` runs after each call, outside its span.
SIM_TARGETS: Tuple[Tuple, ...] = (
    ("repro.harness.runner", "load_workload", "workloads", None),
    ("repro.scenarios", "materialize_workload", "workloads", None),
    ("repro.cpu.core", "compile_program", "cpu.compile", None),
    ("repro.cpu.core", "compile_batches", "cpu.compile", None),
    ("repro.cpu.core", "compile_trace", "cpu.compile", None),
    # checkpoint.restore imports compile_trace from here at call time.
    ("repro.cpu.fastpath", "compile_trace", "cpu.compile", None),
    # Also counts the instructions each call commits.
    ("repro.cpu.core", "SMTCore.run", "cpu.dispatch", None),
    ("repro.memory.hierarchy", "MemoryHierarchy.load", "memory", None),
    ("repro.memory.hierarchy", "MemoryHierarchy.load_synthetic", "memory",
     None),
    ("repro.memory.hierarchy", "MemoryHierarchy.store", "memory", None),
    ("repro.memory.hierarchy", "MemoryHierarchy.software_prefetch", "memory",
     None),
    ("repro.memory.hierarchy", "MemoryHierarchy.drain", "memory", None),
    ("repro.hwprefetch.stream_buffer",
     "StreamBufferPrefetcher.on_demand_load", "hwprefetch", None),
    ("repro.hwprefetch.ghb", "GHBPrefetcher.on_demand_load",
     "hwprefetch.zoo", None),
    ("repro.hwprefetch.adaptive_nextline",
     "AdaptiveNextLinePrefetcher.on_demand_load", "hwprefetch.zoo", None),
    ("repro.hwprefetch.triangel", "TriangelPrefetcher.on_demand_load",
     "hwprefetch.zoo", None),
    ("repro.hwprefetch.reconfig", "PhaseReconfigPrefetcher.on_demand_load",
     "hwprefetch.zoo", None),
    ("repro.trident.runtime", "TridentRuntime.tick", "trident", None),
    ("repro.trident.runtime", "TridentRuntime.on_branch", "trident", None),
    ("repro.trident.runtime", "TridentRuntime.on_trace_load", "trident",
     None),
    ("repro.trident.runtime", "TridentRuntime.on_trace_execution",
     "trident", None),
    ("repro.core.optimizer", "PrefetchOptimizer.process_delinquent_load",
     "trident", None),
    ("repro.checkpoint.store", "CheckpointStore.save", "checkpoint.capture",
     None),
    ("repro.checkpoint.store", "CheckpointStore.put", "checkpoint.capture",
     _count_put),
    ("repro.checkpoint.store", "capture", "checkpoint.capture",
     _count_capture),
    ("repro.checkpoint", "capture", "checkpoint.capture", _count_capture),
    ("repro.checkpoint.store", "CheckpointStore.best", "checkpoint.restore",
     None),
    # The engine imports restore from the package at call time.
    ("repro.checkpoint", "restore", "checkpoint.restore", _count_restore),
    ("repro.harness.runner", "Simulation.__init__", "runner", None),
    ("repro.harness.runner", "Simulation.run", "runner", None),
    ("repro.harness.runner", "Simulation.resume", "runner", None),
)

#: Layers of the process that owns the engine.  Only these are traced
#: on a worker pool: forked workers would inherit any other wrapper and
#: record spans the parent never sees.
ENGINE_TARGETS: Tuple[Tuple, ...] = (
    ("repro.harness.cache", "ResultCache.get", "cache.get", _count_get),
    ("repro.harness.cache", "ResultCache.key_for", "cache.get", None),
    ("repro.harness.cache", "ResultCache.put", "cache.put", None),
    ("repro.harness.journal", "JobJournal.append", "journal", None),
    ("repro.harness.engine", "ExperimentEngine.run", "engine", None),
)

#: Layers whose spans are too many to keep one by one.
FINE_LAYERS = frozenset({"memory", "hwprefetch", "hwprefetch.zoo", "trident"})


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Ledger:
    """Per-layer self time and call counts for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Layer counters measured at the wrappers (instructions, bytes,
        #: hits, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Coarse spans: (layer, start, duration, depth).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.gc_s = 0.0
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._gc_started: Optional[float] = None

    # ------------------------------------------------------------------
    def _span(self, fn, layer: str, count=None):
        """Wrap ``fn`` so each call is a span of ``layer``; ``count``
        (see the target tables) runs after the span closes."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        spans = None if layer in FINE_LAYERS else self.spans

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if spans is not None:
                    spans.append((layer, start, duration, len(stack)))
            if count is not None:
                count(counts, result, args)
            return result

        return wrapper

    def _counting_run(self, fn):
        """``SMTCore.run`` counting the instructions each call commits."""
        counts = self.counts
        timed = self._span(fn, "cpu.dispatch")

        def run(core, *args, **kwargs):
            before = core.stats.committed
            stats = timed(core, *args, **kwargs)
            counts["cpu.instructions"] += core.stats.committed - before
            return stats

        return run

    def install(self, targets) -> None:
        for module, path, layer, count in targets:
            owner, attr = _resolve(module, path)
            # A class's own dict entry, so uninstall restores it exactly.
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if layer == "cpu.dispatch":
                wrapped = self._counting_run(original)
            else:
                wrapped = self._span(original, layer, count)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def install_wait(self) -> None:
        """Time the engine's blocking waits on pool futures as
        ``engine.wait``: on a pool run, the time workers spend on jobs."""
        from repro.harness import engine

        original = engine.as_completed
        stack, clock = self._stack, time.perf_counter
        self_s, calls = self.self_s, self.calls

        def as_completed(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    self_s["engine.wait"] += duration
                    calls["engine.wait"] += 1
                    if stack:
                        stack[-1][0] += duration
                yield item

        self._patched.append((engine, "as_completed", original))
        engine.as_completed = as_completed

    def _on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self._gc_started = None

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Ledger":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self.uninstall()

    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path, origin: float) -> None:
        """Write the coarse spans as JSON lines, times relative to
        ``origin`` (a ``time.perf_counter`` reading)."""
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, duration, depth in self.spans:
                handle.write(json.dumps({
                    "layer": layer,
                    "start_s": round(start - origin, 6),
                    "dur_s": round(duration, 6),
                    "depth": depth,
                }) + "\n")
