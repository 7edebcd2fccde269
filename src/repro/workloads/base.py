"""Workload container and shared helpers.

Each workload module builds a :class:`Workload`: an assembled program plus
a populated data memory, shaped to reproduce the documented memory
behaviour of the SPEC2000 / pointer-intensive benchmark it stands in for
(see DESIGN.md's substitution table).  The paper's benchmarks are Alpha
binaries we cannot run; what the prefetcher *reacts to* is the access
pattern, which these synthetic programs reproduce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..isa.assembler import Assembler
from ..isa.program import Program
from ..memory.mainmem import DataMemory, HeapAllocator


@dataclass
class Workload:
    """A runnable benchmark: program + initial memory + provenance."""

    name: str
    program: Program
    memory: DataMemory
    description: str
    #: Dominant memory behaviour ("stride", "pointer", "mixed", "irregular").
    kind: str
    #: Notes on which paper observations this workload is shaped to show.
    paper_notes: str = ""


def source_key(
    workload: str,
    scenario: Optional[Dict],
    trace: Optional[Dict],
    seed: int,
) -> str:
    """The canonical name of one workload build.

    Builds with equal keys are identical (building is deterministic), so
    the key is both the engine's build-sharing key and a built memory's
    :attr:`~repro.memory.mainmem.DataMemory.origin`, from which a
    snapshot's memory image is rebuilt.
    """
    return json.dumps([workload, scenario, trace, seed], sort_keys=True)


@dataclass
class WorkloadParts:
    """The builder scaffolding every workload module starts from."""

    asm: Assembler
    memory: DataMemory
    alloc: HeapAllocator
    rng: random.Random


def new_parts(name: str, seed: int) -> WorkloadParts:
    memory = DataMemory()
    return WorkloadParts(
        asm=Assembler(name),
        memory=memory,
        alloc=HeapAllocator(memory),
        rng=random.Random(seed),
    )


def counted_loop(asm: Assembler, counter_reg: str, count: int, label: str):
    """Emit the prologue of a counted loop; returns a ``close()`` that
    emits the decrement-and-branch back-edge.

    The back-edge is a conditional taken backward branch — the pattern the
    branch profiler recognises as a hot trace head.
    """
    asm.li(counter_reg, count)
    asm.label(label)

    def close() -> None:
        asm.subq(counter_reg, counter_reg, imm=1)
        asm.bne(counter_reg, label)

    return close
