"""Versioned, deterministic snapshots of a whole :class:`Simulation`.

Every run here is bit-for-bit deterministic and ``SMTCore.run`` is
re-entrant: chunked calls (``drain=False``) leave state identical to one
big call.  A snapshot therefore *is* the run's future — restoring one and
continuing to budget B2 is byte-identical to a cold run at B2.  That
equivalence only holds if two things are true, and this module enforces
both:

* **Capture happens at quiescent points only.**  Pending fault reverts
  hold closures that cannot be pickled; :func:`capture` raises
  :class:`CheckpointError` while a fault window is open and callers
  simply retry at a later boundary.  (In-flight helper jobs and queued
  optimization events are *not* blockers: their completion actions are
  picklable objects over the simulated graph, so a busy helper rides
  along inside the snapshot.)
* **The serialized form is canonical.**  The payload is a pickle whose
  bytes depend only on *values*, never on object identity accidents:
  the C pickler's ``persistent_id`` hook replaces every string by the
  first equal instance of the dump (CPython interns attribute names and
  literals, so equal strings are one shared object in a freshly built
  graph but many distinct objects in an unpickled one, and the
  identity-keyed memo would encode that difference into the bytes) and
  every ``set``/``frozenset`` by its sorted elements (a restored set's
  iteration order differs from the original's insertion order).  (The
  simulation itself never iterates its persisted sets in a
  timing-relevant order; the property tests hold capture idempotence to
  byte equality.)

A snapshot holds only the state a run created.  The workload's data
memory (up to ~1M words) is almost all its build-time image, which a
run barely writes, so the memory travels as its **origin** — the source
key it was built from — plus the words written since the build.
:func:`restore` replays those words onto a fresh build of the origin:
one the caller already holds (the engine's shared build), or one it
makes itself.

Volatile derived state is excluded by ``__getstate__`` hooks on its
owners: the fast interpreter's compiled handler closures (``SMTCore``,
``HotTrace._fast_cache``) are rebuilt on demand, and the watchdog's
wall-clock deadline is re-armed on the next ``run`` call.

The on-disk container is a small framed format::

    RPCK | uint32 header length | header JSON | zlib-compressed pickle

The header carries the format version, the code-version stamp of
:func:`repro.harness.cache.code_version` (any source change invalidates
every prior snapshot), the memory's origin, and the progress
coordinates (committed instructions, cycles) used for prefix lookup.
Anything that fails to parse — truncation, garbage, stale stamps —
raises :class:`CheckpointError`, which every consumer converts to "run
cold".
"""

from __future__ import annotations

import array
import io
import json
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import CheckpointError
from ..harness.cache import code_version
from ..memory.mainmem import DataMemory

#: Bumped whenever the frame layout or the pickled object graph changes
#: incompatibly; part of the header, checked on load.
FORMAT_VERSION = 3

#: Frame magic ("RePro ChecKpoint").
MAGIC = b"RPCK"

_HEADER_LEN = struct.Struct(">I")

#: zlib level 1: snapshots are dominated by workload data arrays that
#: compress well at any level, and capture sits on the measured path of
#: every checkpointed run — speed wins over the last few percent of size.
_ZLIB_LEVEL = 1


def _sorted_elements(values) -> list:
    """Elements of a set in a deterministic order.

    Persisted simulator sets hold homogeneous ints (load PCs); ``repr``
    is the total-order fallback for anything unorderable that may appear
    in test doubles.
    """
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


#: Lists shorter than this go through the generic pickler; longer
#: homogeneous numeric ones (data arrays, predictor tables) pack through
#: :mod:`array`.
_PACK_MIN = 256


def _sort_set(obj):
    return (type(obj).__name__, _sorted_elements(obj))


def _pack_list(obj: list):
    kinds = set(map(type, obj))
    if kinds == {int}:
        try:
            return ("ilist", array.array("q", obj).tobytes())
        except OverflowError:
            return None  # arbitrary-precision outlier: generic path
    if kinds == {float}:
        return ("flist", array.array("d", obj).tobytes())
    return None


def _pack_memory(memory: DataMemory):
    # The run's data memory is the built image of its origin plus the
    # words written since; only those words travel.  An origin-less
    # memory (hand-assembled, not from a builder) pickles whole.
    if memory.origin is None:
        return None
    addrs = sorted(memory.written)
    return (
        "memory",
        memory.origin,
        addrs,
        list(map(memory.read_quiet, addrs)),  # written words are mapped
        memory.unmapped_reads,
    )


#: Object type -> encoder returning its persistent id, or None to leave
#: the object to the generic pickler.
_ENCODERS = {
    set: _sort_set,
    frozenset: _sort_set,
    list: _pack_list,
    DataMemory: _pack_memory,
}


def _load_pid(pid):
    """The object a (non-string, non-memory) persistent id stands for."""
    tag = pid[0]
    if tag == "set" or tag == "frozenset":
        (_, elements) = pid
        return (set if tag == "set" else frozenset)(elements)
    if tag == "ilist" or tag == "flist":
        (_, data) = pid
        return list(array.array("q" if tag == "ilist" else "d", data))
    raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")


class _Pickler(pickle.Pickler):
    """The C pickler, made to produce identical bytes for equal graphs.

    Its memo is keyed on object identity, and identity does not survive
    a round trip, so :meth:`persistent_id` takes over the objects whose
    identity or iteration order is an accident:

    * Every ``str`` becomes the first equal instance seen in this dump,
      emitted as a persistent id.  Attribute names and literals are one
      interned object in a live process but many distinct objects after
      unpickling; mapped by value, memo hits depend only on values.
    * ``set``/``frozenset`` become sorted element lists; their native
      opcodes write insertion order, which differs between an original
      and a restored set.
    * Exact-type homogeneous int/float lists of ``_PACK_MIN`` or more
      elements pack through :mod:`array` (host-endian: snapshots are
      same-machine artifacts, keyed by a local code-version stamp, never
      shipped across architectures).
    * A built :class:`DataMemory` becomes its origin plus the words
      written since the build, in address order.

    Each replaced object maps to one pid object per dump (the ``id``
    table below), so the pickler memoizes the pid and an aliased set,
    list or memory restores as one shared object.  Dict ordering is
    already deterministic: simulation dicts are built in deterministic
    insertion order, and unpickling preserves it.
    """

    def __init__(self, file) -> None:
        super().__init__(file, protocol=4)
        self._strings: Dict[str, str] = {}
        #: id(container) -> (container, pid or None); holding the
        #: container keeps its id from being reused mid-dump.
        self._pids: Dict[int, tuple] = {}

    def persistent_id(self, obj):
        kind = type(obj)
        if kind is str:
            return self._strings.setdefault(obj, obj)
        encode = _ENCODERS.get(kind)
        if encode is None or (kind is list and len(obj) < _PACK_MIN):
            return None
        seen = self._pids.get(id(obj))
        if seen is None:
            seen = self._pids[id(obj)] = (obj, encode(obj))
        return seen[1]


class _Unpickler(pickle.Unpickler):
    """Reads :class:`_Pickler` output back into live objects.

    A memory persistent id resolves to ``base`` — a freshly built image
    of the same origin — or, without one, to a new build of the origin.
    The written words are replayed only once the whole stream has
    loaded, so a restore that fails part-way leaves ``base`` untouched.
    """

    def __init__(self, file, base: Optional[DataMemory] = None) -> None:
        super().__init__(file)
        #: id(pid) -> (pid, object): a memoized pid comes back as the
        #: same tuple, and must come back as the same object.
        self._loaded: Dict[int, tuple] = {}
        self._base = base
        #: (memory, memory pid) pairs whose written words are pending.
        self._patches: List[tuple] = []

    def persistent_load(self, pid):
        if type(pid) is str:
            return pid
        if type(pid) is not tuple or not pid:
            raise pickle.UnpicklingError(f"malformed persistent id {pid!r}")
        seen = self._loaded.get(id(pid))
        if seen is None:
            obj = (
                self._load_memory(pid) if pid[0] == "memory"
                else _load_pid(pid)
            )
            seen = self._loaded[id(pid)] = (pid, obj)
        return seen[1]

    def _load_memory(self, pid) -> DataMemory:
        (_, origin, addrs, values, _unmapped_reads) = pid
        if len(addrs) != len(values):
            raise pickle.UnpicklingError("memory words and values differ")
        memory, self._base = self._base, None
        if memory is None:
            memory = _build_origin(origin)
        elif memory.origin != origin:
            raise CheckpointError(
                f"restore base was built from {memory.origin!r}, "
                f"the snapshot from {origin!r}"
            )
        elif memory.written:
            raise CheckpointError(
                "restore base was already written; it is not a fresh build"
            )
        self._patches.append((memory, pid))
        return memory

    def load(self):
        obj = super().load()
        for memory, (_, _, addrs, values, unmapped_reads) in self._patches:
            memory.apply_writes(addrs, values, unmapped_reads)
        return obj


def _build_origin(origin: str) -> DataMemory:
    """A fresh memory image built from a recorded origin."""
    from ..harness.runner import build_source

    try:
        return build_source(*json.loads(origin)).memory
    except Exception as exc:
        raise CheckpointError(
            f"cannot rebuild memory origin {origin!r}: {exc}"
        ) from exc


def canonical_dumps(obj) -> bytes:
    """Pickle ``obj`` into bytes that depend only on its values."""
    buffer = io.BytesIO()
    _Pickler(buffer).dump(obj)
    return buffer.getvalue()


def canonical_loads(data: bytes, base: Optional[DataMemory] = None):
    """Inverse of :func:`canonical_dumps`; ``base`` as for :func:`restore`."""
    return _Unpickler(io.BytesIO(data), base).load()


# ---------------------------------------------------------------------------
# Quiescence.
# ---------------------------------------------------------------------------
def is_quiescent(sim) -> bool:
    """True when ``sim`` holds no in-flight closures.

    Helper jobs and queued optimization events are picklable objects
    (their completion actions are dataclasses over the simulated object
    graph, see ``repro.core.optimizer`` / ``repro.trident.runtime``), so
    a busy helper does not block capture.  The one remaining owner of
    genuine closures is the fault injector's scheduled revert list —
    present only in fault-plan runs, and pending only inside an active
    fault window.
    """
    injector = sim.injector
    if injector is not None and injector._reverts:
        return False
    return True


# ---------------------------------------------------------------------------
# The snapshot container.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Snapshot:
    """One captured simulator state: parsed header + compressed payload."""

    header: Dict
    payload: bytes

    @property
    def committed(self) -> int:
        return self.header["committed"]

    @property
    def cycles(self) -> float:
        return self.header["cycles"]

    def to_bytes(self) -> bytes:
        header = json.dumps(
            self.header, sort_keys=True, separators=(",", ":")
        ).encode()
        return b"".join(
            (MAGIC, _HEADER_LEN.pack(len(header)), header, self.payload)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        """Parse a framed snapshot; raises :class:`CheckpointError` on
        any truncation, corruption, or version/stamp mismatch."""
        prefix = len(MAGIC) + _HEADER_LEN.size
        if len(data) < prefix or not data.startswith(MAGIC):
            raise CheckpointError("not a checkpoint: bad magic")
        (header_len,) = _HEADER_LEN.unpack(
            data[len(MAGIC):prefix]
        )
        if len(data) < prefix + header_len:
            raise CheckpointError("truncated checkpoint header")
        try:
            header = json.loads(data[prefix:prefix + header_len])
        except ValueError as exc:
            raise CheckpointError(f"unparsable checkpoint header: {exc}")
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not an object")
        if header.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {header.get('format')!r} "
                f"(this build reads {FORMAT_VERSION})"
            )
        payload = data[prefix + header_len:]
        declared = header.get("payload_bytes")
        if declared is not None and declared != len(payload):
            raise CheckpointError(
                f"truncated checkpoint payload: {len(payload)} bytes, "
                f"header declares {declared}"
            )
        return cls(header=header, payload=payload)


def capture(sim) -> Snapshot:
    """Snapshot the complete simulator state at a quiescent point.

    The snapshot is taken *before* the end-of-run drain and
    ``injector.finish`` — i.e. exactly the state a longer cold run would
    have when passing this committed count — so a checkpoint captured at
    a run's own budget can seed any larger budget.  The workload's data
    memory travels as its origin plus the words written since the
    build, so a memory without an origin cannot be captured.
    """
    if not is_quiescent(sim):
        raise CheckpointError(
            "cannot capture: fault revert in flight "
            "(retry at the next quiescent boundary)"
        )
    origin = sim.workload.memory.origin
    if origin is None:
        raise CheckpointError(
            "cannot capture: the workload memory records no build origin"
        )
    committed, cycles = sim.core.snapshot()
    payload = zlib.compress(canonical_dumps(sim), _ZLIB_LEVEL)
    header = {
        "format": FORMAT_VERSION,
        "code_version": code_version(),
        "workload": sim.workload.name,
        "origin": json.loads(origin),
        "policy": sim.config.policy.value,
        "warmup_instructions": sim.config.warmup_instructions,
        "committed": committed,
        "cycles": cycles,
        "payload_bytes": len(payload),
    }
    return Snapshot(header=header, payload=payload)


def restore(snapshot: Snapshot, base: Optional[DataMemory] = None):
    """Rebuild a runnable :class:`Simulation` from ``snapshot``.

    Validates the code-version stamp (a snapshot from different sources
    is not just stale, it would *diverge*), unpickles the object graph,
    and recompiles the one piece of stripped derived state that cannot
    wait for lazy rebuild: the fast interpreter's handler list for a
    trace that was mid-execution at capture time.

    The data memory is ``base`` — a fresh, never-written build of the
    snapshot's origin, which the run's written words are replayed onto —
    or, when ``base`` is None, a new build of that origin.  A base of
    another origin, or one already written, raises
    :class:`CheckpointError`; it is never patched.  Any failure leaves
    ``base`` as it was.
    """
    stamp = snapshot.header.get("code_version")
    if stamp != code_version():
        raise CheckpointError(
            "checkpoint was captured by different simulator sources "
            f"(stamp {str(stamp)[:12]}..., current "
            f"{code_version()[:12]}...)"
        )
    try:
        sim = canonical_loads(zlib.decompress(snapshot.payload), base)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint payload: {exc}")
    core = getattr(sim, "core", None)
    if core is None:
        raise CheckpointError("checkpoint payload is not a Simulation")
    if core._trace is not None and core.fast:
        from ..cpu.fastpath import compile_trace

        trace = core._trace
        handlers = compile_trace(core, trace)
        trace._fast_cache = (trace.body, len(trace.body), handlers)
        core._trace_handlers = handlers
    return sim
