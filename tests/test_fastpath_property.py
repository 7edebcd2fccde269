"""Property-based differential fuzzing of the decoded fast interpreter.

Hypothesis generates random straight-line programs — every batchable
opcode class the fast path compiles into single-closure blocks (integer
and FP ALU, loads, non-faulting loads, stores, prefetches, LDA, MOVE,
NOP) in arbitrary order with arbitrary register/displacement choices —
and asserts the reference stepper and the fast path agree on *all*
architecturally visible state: registers, memory words, cycles, core
stats, and the memory hierarchy's outcome counters.

Straight-line code is exactly the shape the batch compiler fuses, so
this hammers the riskiest transformation (loop-carried scalar pipeline
state, deferred ``stats.committed``) harder than the fixed workloads
can.  A second property re-runs each program under a random instruction
budget, forcing the mid-block clamp fallback.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig
from repro.cpu.core import SMTCore
from repro.isa.assembler import Assembler
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import DataMemory

REGS = [f"r{i}" for i in range(1, 9)]
ADDR_REG = "r9"  # always holds BASE: loads/stores stay in a mapped region
BASE = 0x10000

_regs = st.sampled_from(REGS)
# Word-aligned displacements spanning a few cache lines, so generated
# loads mix L1 hits, misses, and stream-buffer-adjacent patterns.
_disps = st.integers(min_value=0, max_value=64).map(lambda n: n * 8)
# Shifts take the immediate form with a small count so register values
# stay bounded no matter how the program chains them.
_shift_imms = st.integers(min_value=0, max_value=8)
_imms = st.integers(min_value=0, max_value=255)

_instructions = st.one_of(
    st.tuples(
        st.just("alu"),
        st.sampled_from(
            ["addq", "subq", "mulq", "and_", "or_", "xor",
             "addf", "subf", "mulf"]
        ),
        _regs, _regs, st.one_of(_regs, _imms),
    ),
    st.tuples(st.just("shift"), st.sampled_from(["sll", "srl"]),
              _regs, _regs, _shift_imms),
    st.tuples(st.just("cmp"), st.sampled_from(["cmpeq", "cmplt", "cmple"]),
              _regs, _regs, st.one_of(_regs, _imms)),
    st.tuples(st.just("ldq"), _regs, _disps),
    st.tuples(st.just("ldq_nf"), _regs, _disps),
    st.tuples(st.just("stq"), _regs, _disps),
    st.tuples(st.just("prefetch"), _disps),
    st.tuples(st.just("lda"), _regs, _disps),
    st.tuples(st.just("move"), _regs, _regs),
    st.tuples(st.just("nop"),),
)

programs = st.lists(_instructions, min_size=0, max_size=48)


def _build(ops):
    asm = Assembler("prop")
    asm.li(ADDR_REG, BASE)
    for i, reg in enumerate(REGS):
        asm.li(reg, (i * 37 + 11) % 251)
    for op in ops:
        kind = op[0]
        if kind in ("alu", "cmp"):
            _, name, rd, ra, b = op
            if isinstance(b, str):
                getattr(asm, name)(rd, ra, rb=b)
            else:
                getattr(asm, name)(rd, ra, imm=b)
        elif kind == "shift":
            _, name, rd, ra, imm = op
            getattr(asm, name)(rd, ra, imm=imm)
        elif kind == "ldq":
            asm.ldq(op[1], ADDR_REG, op[2])
        elif kind == "ldq_nf":
            asm.ldq_nf(op[1], ADDR_REG, op[2])
        elif kind == "stq":
            asm.stq(op[1], ADDR_REG, op[2])
        elif kind == "prefetch":
            asm.prefetch(ADDR_REG, op[1])
        elif kind == "lda":
            asm.lda(op[1], ADDR_REG, op[2])
        elif kind == "move":
            asm.move(op[1], op[2])
        else:
            asm.nop()
    asm.halt()
    return asm.build()


def _snapshot(core, memory, hierarchy):
    return {
        "regs": list(core.ctx.regs),
        "pc": core.ctx.pc,
        "halted": core.ctx.halted,
        "cycles": core.cycles,
        "stats": dataclasses.asdict(core.stats),
        "mem": memory.words(),
        "unmapped_reads": memory.unmapped_reads,
        "mem_stats": dataclasses.asdict(hierarchy.stats),
    }


def _run(program, fast, budget=10_000):
    config = MachineConfig()
    memory = DataMemory()
    hierarchy = MemoryHierarchy(config)
    core = SMTCore(program, memory, hierarchy, config, fast=fast)
    core.run(budget)
    return _snapshot(core, memory, hierarchy)


@settings(max_examples=60, deadline=None)
@given(ops=programs)
def test_random_straight_line_identical(ops):
    program = _build(ops)
    assert _run(program, fast=True) == _run(program, fast=False)


@settings(max_examples=60, deadline=None)
@given(ops=programs, budget=st.integers(min_value=1, max_value=40))
def test_random_budget_truncation_identical(ops, budget):
    """A budget landing mid-block must clamp to the per-instruction
    fallback and still match the reference stepper exactly."""
    program = _build(ops)
    assert _run(program, fast=True, budget=budget) == _run(
        program, fast=False, budget=budget
    )
