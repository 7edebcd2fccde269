"""ChampSim-format trace ingestion: external traces as workloads.

ChampSim input traces are gzip'd streams of fixed 64-byte records::

    u64 ip;            // PC of the retired instruction
    u8  is_branch;     // 1 when the instruction is a branch
    u8  branch_taken;  // 1 when that branch was taken
    u8  dest_regs[2];  // architectural destinations (0 = unused)
    u8  src_regs[4];   // architectural sources (0 = unused)
    u64 dest_mem[2];   // store addresses (0 = unused)
    u64 src_mem[4];    // load addresses (0 = unused)

We cannot execute the traced program — we never saw its instructions —
but the prefetcher only reacts to the *memory reference stream*, so a
trace lowers to a synthetic program that replays exactly that stream,
PC-structure intact, through the ordinary ISA.  Both interpreters, the
checkpoint machinery, the result cache, and every figure then work on a
trace workload unchanged, because it *is* an ordinary workload.

Lowering
--------
Records are split into basic blocks at branch boundaries.  If the block
sequence is periodic (the common case for any loopy region of interest)
the trace lowers to a **real counted loop**: one load/store instruction
per static access slot, whose per-iteration addresses are read from a
per-slot address table indexed by the loop counter.  Each traced static
access keeps its own PC, so the DLT sees each slot's genuine address
sequence — a strided slot classifies Stride, an irregular one Pointer —
and the loop back-edge is the taken backward branch the trace-formation
heuristic keys on.  A partial trailing cycle is dropped (clamp, never
stall).  Non-periodic traces lower to straight-line replay: no loops in
the trace means no hot traces to form, and the budget clamps the run.

Trace addresses are remapped into a reserved high window
(``TRACE_BASE``) preserving their low 32 bits — cache-set, line, and
page geometry survive; collisions with the lowered program's own
address tables (bump-allocated at the ordinary heap base) cannot occur.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..memory.mainmem import WORD_SIZE
from ..workloads.base import (
    Workload,
    counted_loop,
    new_parts,
    source_key,
)
from ..workloads.registry import BENCHMARK_NAMES

#: One ChampSim input-trace record (little-endian, 64 bytes).
RECORD = struct.Struct("<QBB2B4B2Q4Q")
RECORD_SIZE = RECORD.size
assert RECORD_SIZE == 64

#: Base of the reserved address window trace references are mapped into.
TRACE_BASE = 1 << 40
#: Low bits preserved by the mapping (cache/page geometry intact).
TRACE_MASK = (1 << 32) - 1

#: Default cap on records read from a trace file.
DEFAULT_LIMIT = 65_536

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]{0,63}$")

#: Registers used by lowered code: loop index, accumulator, temps.
_IDX_REG, _ACC_REG = "r9", "r11"
_T0, _T1, _T2 = "r17", "r18", "r19"


class TraceRecord(NamedTuple):
    """One decoded record: PC, branch flags, and its memory references."""

    ip: int
    is_branch: bool
    taken: bool
    loads: Tuple[int, ...]
    stores: Tuple[int, ...]


def map_address(addr: int) -> int:
    """Remap a traced address into the reserved trace window."""
    return TRACE_BASE | (addr & TRACE_MASK)


def read_trace(path, limit: int = DEFAULT_LIMIT) -> List[TraceRecord]:
    """Decode up to ``limit`` records from a gzip'd ChampSim trace.

    Raises :class:`ConfigError` for a missing file, corrupt or truncated
    gzip stream, a final partial record, or an empty trace.  A trace
    longer than ``limit`` is clamped, never an error.
    """
    if not isinstance(limit, int) or limit < 1:
        raise ConfigError(f"trace record limit must be >= 1, got {limit!r}")
    records: List[TraceRecord] = []
    try:
        with gzip.open(path, "rb") as fh:
            tail = b""
            while len(records) < limit:
                chunk = fh.read(RECORD_SIZE * 1024)
                if not chunk:
                    break
                data = tail + chunk
                usable = len(data) - (len(data) % RECORD_SIZE)
                for offset in range(0, usable, RECORD_SIZE):
                    fields = RECORD.unpack_from(data, offset)
                    records.append(
                        TraceRecord(
                            ip=fields[0],
                            is_branch=bool(fields[1]),
                            taken=bool(fields[2]),
                            loads=tuple(a for a in fields[9:13] if a),
                            stores=tuple(a for a in fields[7:9] if a),
                        )
                    )
                    if len(records) >= limit:
                        break
                tail = data[usable:]
    except (OSError, EOFError, zlib.error) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}")
    if tail and len(records) < limit:
        raise ConfigError(
            f"trace {path} is truncated: {len(tail)} stray byte(s) after "
            f"{len(records)} complete record(s)"
        )
    if not records:
        raise ConfigError(f"trace {path} holds no records")
    return records


# ----------------------------------------------------------------------
# Block structure and periodicity.
# ----------------------------------------------------------------------
def split_blocks(
    records: Sequence[TraceRecord],
) -> List[List[TraceRecord]]:
    """Split the record stream into basic blocks ending at branches."""
    blocks: List[List[TraceRecord]] = []
    current: List[TraceRecord] = []
    for record in records:
        current.append(record)
        if record.is_branch:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


def find_period(signatures: Sequence[Tuple]) -> Optional[int]:
    """Smallest period of the block-signature sequence, requiring at
    least two complete cycles; None when the sequence is aperiodic."""
    n = len(signatures)
    for period in range(1, n // 2 + 1):
        cycles = n // period
        if cycles < 2:
            break
        body = signatures[:period]
        if all(
            signatures[i] == body[i % period]
            for i in range(period * cycles)
        ):
            return period
    return None


# ----------------------------------------------------------------------
# Lowering.
# ----------------------------------------------------------------------
def lower_trace(records: Sequence[TraceRecord], name: str) -> Workload:
    """Lower decoded records to a runnable :class:`Workload`."""
    blocks = split_blocks(records)
    signatures = [tuple(r.ip for r in block) for block in blocks]
    period = find_period(signatures)
    parts = new_parts(name, 1)
    if period is not None:
        cycles = len(blocks) // period
        description = _lower_loop(parts, blocks, period, cycles)
    else:
        description = _lower_straight(parts, records)
    parts.asm.halt()
    return Workload(
        name=name,
        program=parts.asm.build(),
        memory=parts.memory,
        description=description,
        kind="trace",
        paper_notes="lowered from a ChampSim-format input trace",
    )


def _seed_window(memory, addrs) -> None:
    """Give every replayed reference a resident value (no unmapped-read
    noise in the memory stats)."""
    for addr in addrs:
        memory.write(addr, addr & 0xFFFF)


def _lower_loop(parts, blocks, period: int, cycles: int) -> str:
    """Periodic trace: one counted loop, per-slot address tables."""
    asm, alloc, memory = parts.asm, parts.alloc, parts.memory
    # Static access slots: (block-in-body, record-in-block, kind, slot).
    # Per slot, the number of references must agree across cycles for the
    # tables to stay aligned; extra references in some occurrences are
    # dropped (counted below).
    slots: List[Tuple[int, int, str, int, int]] = []  # + table base
    dropped = 0
    touched: List[int] = []
    for b in range(period):
        body_block = blocks[b]
        for r in range(len(body_block)):
            occurrences = [blocks[c * period + b][r] for c in range(cycles)]
            for kind in ("loads", "stores"):
                counts = [len(getattr(o, kind)) for o in occurrences]
                keep = min(counts)
                dropped += sum(counts) - keep * cycles
                for slot in range(keep):
                    table = alloc.alloc_array(cycles)
                    for c, occ in enumerate(occurrences):
                        mapped = map_address(getattr(occ, kind)[slot])
                        memory.write(table + c * WORD_SIZE, mapped)
                        touched.append(mapped)
                    slots.append((b, r, kind, slot, table))
    _seed_window(memory, touched)
    asm.li(_IDX_REG, 0)
    close = counted_loop(asm, "r27", cycles, "trace_body")
    for _b, _r, kind, _slot, table in slots:
        asm.addq(_T0, _IDX_REG, imm=table)
        asm.ldq(_T1, _T0, 0)
        if kind == "loads":
            asm.ldq(_T2, _T1, 0)
            asm.addq(_ACC_REG, _ACC_REG, rb=_T2)
        else:
            asm.stq(_ACC_REG, _T1, 0)
    asm.lda(_IDX_REG, _IDX_REG, WORD_SIZE)
    close()
    return (
        f"trace replay: periodic, {period} block(s)/cycle x {cycles} "
        f"cycle(s), {len(slots)} access slot(s), {dropped} dropped "
        "ragged reference(s)"
    )


def _lower_straight(parts, records: Sequence[TraceRecord]) -> str:
    """Aperiodic trace: straight-line replay of every reference."""
    asm, memory = parts.asm, parts.memory
    touched: List[int] = []
    count = 0
    for record in records:
        for addr in record.loads:
            mapped = map_address(addr)
            touched.append(mapped)
            asm.li(_T0, mapped)
            asm.ldq(_T1, _T0, 0)
            count += 1
        for addr in record.stores:
            mapped = map_address(addr)
            touched.append(mapped)
            asm.li(_T0, mapped)
            asm.stq(_ACC_REG, _T0, 0)
            count += 1
    _seed_window(memory, touched)
    return (
        f"trace replay: aperiodic, straight-line, {count} reference(s) "
        f"over {len(records)} record(s)"
    )


# ----------------------------------------------------------------------
# The job-facing spec.
# ----------------------------------------------------------------------
def _content_hash(path) -> str:
    """sha256 of the *decompressed* record stream: identity follows the
    trace content, not gzip header metadata (filename, mtime) or the
    compression level — re-gzipping the same records keeps the hash."""
    digest = hashlib.sha256()
    try:
        with gzip.open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except (OSError, EOFError, zlib.error) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}")
    return digest.hexdigest()


def _name_from_path(path: str) -> str:
    stem = os.path.basename(path)
    for suffix in (".gz", ".champsim", ".xz", ".trace"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    cleaned = re.sub(r"[^a-z0-9_-]+", "-", stem.lower()).strip("-")
    if not cleaned or not cleaned[0].isalpha():
        cleaned = f"t-{cleaned}" if cleaned else "t"
    return cleaned[:64].rstrip("-")


@dataclass(frozen=True)
class TraceSpec:
    """An external trace as job input: identity travels by content hash.

    ``path`` tells a worker where to read the bytes; the *hashed* spec
    (:meth:`spec_dict`) carries only name, sha256, and limit — two jobs
    reading identical trace content from different paths share one
    cache entry, and a file edited in place can never replay a stale
    result (the hash is re-verified at build time).
    """

    path: str
    sha256: str
    limit: int = DEFAULT_LIMIT
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.limit, int) or self.limit < 1:
            raise ConfigError(
                f"trace record limit must be >= 1, got {self.limit!r}"
            )
        if not self.name or not _NAME_RE.match(self.name):
            raise ConfigError(
                f"trace workload name {self.name!r} is invalid: must "
                f"match {_NAME_RE.pattern}"
            )
        if self.name in BENCHMARK_NAMES:
            raise ConfigError(
                f"trace workload name {self.name!r} collides with a "
                "built-in benchmark workload"
            )

    @staticmethod
    def for_file(
        path, limit: int = DEFAULT_LIMIT, name: Optional[str] = None
    ) -> "TraceSpec":
        """Build a spec for a trace file, hashing its decoded content."""
        return TraceSpec(
            path=str(path),
            sha256=_content_hash(path),
            limit=limit,
            name=name or _name_from_path(str(path)),
        )

    def spec_dict(self) -> Dict:
        """The content-addressed identity (no path)."""
        return {"name": self.name, "sha256": self.sha256, "limit": self.limit}

    def to_dict(self) -> Dict:
        payload = self.spec_dict()
        payload["path"] = self.path
        return payload

    @staticmethod
    def from_dict(raw: Dict) -> "TraceSpec":
        if not isinstance(raw, dict) or "path" not in raw:
            raise ConfigError(f"not a serialised TraceSpec: {raw!r}")
        return TraceSpec(
            path=raw["path"],
            sha256=raw.get("sha256", ""),
            limit=raw.get("limit", DEFAULT_LIMIT),
            name=raw.get("name", ""),
        )

    def build(self, seed: int = 1) -> Workload:
        """Read, verify, and lower the trace.  ``seed`` is accepted for
        interface parity with scenario builds; lowering is seed-free,
        but the seed is part of the built memory's origin, as for every
        other source."""
        digest = _content_hash(self.path)
        if digest != self.sha256:
            raise ConfigError(
                f"trace {self.path} content hash {digest[:12]}... does "
                f"not match the job spec's {self.sha256[:12]}...; the "
                "file changed since the job was built"
            )
        workload = lower_trace(read_trace(self.path, self.limit), self.name)
        workload.memory.mark_built(
            source_key(self.name, None, self.to_dict(), seed)
        )
        return workload
