"""Property test: optimized hot traces preserve program semantics.

For random loop programs, running to completion with the full Trident +
self-repairing pipeline must produce exactly the architectural state of
plain execution — traces, base optimizations, inserted prefetches, and
repairs may never change results.  This is the safety property the whole
dynamic-optimization approach rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PrefetchPolicy, SimulationConfig
from repro.harness.runner import Simulation
from repro.isa.assembler import Assembler
from repro.memory.mainmem import DataMemory, HeapAllocator
from repro.workloads.base import Workload

# Body-op vocabulary: (kind, payload)
body_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=2,
    max_size=10,
)


def build_program(ops, iters):
    memory = DataMemory()
    alloc = HeapAllocator(memory)
    base = alloc.alloc_array(200_000)
    asm = Assembler("rand")
    asm.li("r2", base)
    asm.li("r3", base + 800_000)
    asm.li("r1", iters)
    asm.label("loop")
    for index, (kind, payload) in enumerate(ops):
        if kind == 0:
            asm.ldq("r4", "r2", payload * 8)
        elif kind == 1:
            asm.addq("r5", "r5", rb="r4")
        elif kind == 2:
            asm.mulq("r6", "r5", imm=payload + 1)
        elif kind == 3:
            asm.stq("r5", "r3", payload * 8)
        elif kind == 4:
            asm.lda("r2", "r2", 8 * (payload + 1))
        elif kind == 5:
            asm.xor("r5", "r5", rb="r6")
        else:
            # A data-dependent branch: traces will exit early sometimes.
            asm.and_("r7", "r5", imm=1)
            asm.beq("r7", f"skip{index}")
            asm.addq("r8", "r8", imm=1)
            asm.label(f"skip{index}")
    asm.subq("r1", "r1", imm=1)
    asm.bne("r1", "loop")
    asm.halt()
    return Workload(
        name="rand", program=asm.build(), memory=memory,
        description="random", kind="mixed",
    )


def final_state(workload, policy):
    sim = Simulation(
        workload,
        SimulationConfig(policy=policy, max_instructions=10**9),
    )
    sim.run()
    assert sim.core.ctx.halted
    # Architectural state: registers plus every written memory word.
    return list(sim.core.ctx.regs), workload.memory.words()


class TestTraceEquivalence:
    @given(body_ops)
    @settings(max_examples=12, deadline=None)
    def test_full_pipeline_preserves_semantics(self, ops):
        plain_regs, plain_mem = final_state(
            build_program(ops, iters=900), PrefetchPolicy.NONE
        )
        opt_regs, opt_mem = final_state(
            build_program(ops, iters=900), PrefetchPolicy.SELF_REPAIRING
        )
        assert plain_regs == opt_regs
        assert plain_mem == opt_mem

    @given(body_ops)
    @settings(max_examples=6, deadline=None)
    def test_basic_policy_preserves_semantics(self, ops):
        plain_regs, plain_mem = final_state(
            build_program(ops, iters=700), PrefetchPolicy.NONE
        )
        opt_regs, opt_mem = final_state(
            build_program(ops, iters=700), PrefetchPolicy.BASIC
        )
        assert plain_regs == opt_regs
        assert plain_mem == opt_mem
