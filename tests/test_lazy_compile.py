"""The fast path compiles what runs, on first entry, and nothing else.

``fastpath.compile_program`` and ``compile_batches`` hand back tables of
compile-on-entry stubs; a slot is compiled the first time the core
executes it.  These tests pin down the two halves of that contract:

* compile cost is linear in the static code a core enters.  The old
  eager compile built a batch for every suffix of every straight-line
  run, which is quadratic in the run length (gap's 998-instruction run
  alone cost ~500k instruction specs per core);
* entries first reached late — a suffix of a run re-entered after a
  watchdog check or a ``run(drain=False)`` chunk boundary split it, or
  any entry of a core restored from a checkpoint — are byte-identical
  to the reference interpreter and to a cold run.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import capture, restore
from repro.config import PrefetchPolicy, SimulationConfig
from repro.cpu import fastpath
from repro.harness.runner import Simulation
from repro.obs import Observer

#: The figure-5 bench budget: measured + warmup instructions.
FIG5_BUDGET = 8_000
FIG5_WARMUP = 4_000


def _config(budget=FIG5_BUDGET, warmup=FIG5_WARMUP, fast=True):
    return SimulationConfig(
        policy=PrefetchPolicy.HW_ONLY,
        max_instructions=budget,
        warmup_instructions=warmup,
        fast=fast,
    )


def _canon(result) -> str:
    return json.dumps(result.to_dict())


@pytest.fixture
def compiled(monkeypatch):
    """Record every compile: ``(kind, pc, instruction count)``."""
    log = []
    compile_batch = fastpath._compile_batch
    compile_original = fastpath._compile_original

    def counting_batch(core, pc, insts):
        log.append(("batch", pc, len(insts)))
        return compile_batch(core, pc, insts)

    def counting_original(core, pc, inst):
        log.append(("handler", pc, 1))
        return compile_original(core, pc, inst)

    monkeypatch.setattr(fastpath, "_compile_batch", counting_batch)
    monkeypatch.setattr(fastpath, "_compile_original", counting_original)
    return log


def _suffix_entries(core):
    """PCs inside a longer run whose own (suffix) batch was compiled."""
    lens = core._fast_block_len
    return [
        pc for pc, batch in enumerate(core._fast_batches)
        if batch is not None and batch.__name__ == "run_block"
        and pc > 0 and lens[pc - 1] > lens[pc]
    ]


class TestCompileCostIsLinear:
    def test_gap_hw_only_compiles_each_instruction_about_once(
        self, compiled
    ):
        sim = Simulation("gap", _config())
        sim.run()
        program_len = len(sim.core.program.instructions)
        compiled_insts = sum(n for _kind, _pc, n in compiled)
        assert 0 < compiled_insts <= 2 * program_len, (
            f"compiled {compiled_insts} instructions for a "
            f"{program_len}-instruction program"
        )

    def test_tables_start_as_one_shared_stub(self, compiled):
        sim = Simulation("gap", _config())
        core = sim.core
        handlers, block_len = fastpath.compile_program(core)
        batches = fastpath.compile_batches(core)
        assert not compiled
        assert type(handlers) is list and type(batches) is list
        assert len({id(h) for h in handlers}) == 1
        live = {id(b) for b in batches if b is not None}
        assert len(live) == 1
        assert [b is not None for b in batches] == [
            n >= 2 for n in block_len
        ]

    def test_entry_compiles_once_and_replaces_its_stub(self, compiled):
        sim = Simulation("gap", _config())
        core = sim.core
        handlers, _block_len = fastpath.compile_program(core)
        stub = handlers[0]
        pc = core.ctx.pc
        handlers[pc]()
        assert compiled == [("handler", pc, 1)]
        assert handlers[pc] is not stub
        assert all(h is stub for i, h in enumerate(handlers) if i != pc)


class TestLateEntriesMatchReference:
    """Entries first reached part-way through a run match the reference.

    gap's loop head sits three instructions into its 998-instruction
    run, and watchdog checks and sampler chunks split the run at PCs
    that drift from one iteration to the next, so the fast core enters
    many suffixes of that run and compiles each on first entry.
    """

    def _assert_matches_reference(self, make_sim):
        fast = make_sim(True)
        fast_payload = _canon(fast.run())
        assert fast_payload == _canon(make_sim(False).run())
        assert len(_suffix_entries(fast.core)) > 1, (
            "no split run suffix was entered; the test lost its point"
        )

    @pytest.mark.parametrize("check_interval", [7, 97])
    def test_watchdog_split_batches(self, check_interval):
        def make_sim(fast):
            sim = Simulation("gap", _config(fast=fast))
            sim.watchdog.check_interval = check_interval
            return sim

        self._assert_matches_reference(make_sim)

    @pytest.mark.parametrize("interval", [333, 1_001])
    def test_chunk_boundary_split_batches(self, interval):
        def make_sim(fast):
            return Simulation(
                "gap", _config(fast=fast),
                observer=Observer(sample_interval=interval),
            )

        self._assert_matches_reference(make_sim)


class TestRestoredCore:
    @pytest.mark.parametrize("name", ["gap", "applu", "swim"])
    def test_restored_hw_only_core_compiles_on_resume(self, compiled, name):
        b1, b2 = FIG5_BUDGET // 2, FIG5_BUDGET
        cold = Simulation(name, _config(budget=b2)).run()

        sim = Simulation(name, _config(budget=b1))
        captured = []
        sim.checkpoint_sink = (
            lambda s: bool(captured.append(capture(s))) or True
        )
        sim.run()
        restored = restore(captured[-1])
        core = restored.core
        assert core._fast_handlers is None and core._fast_batches is None

        del compiled[:]
        resumed = restored.resume(b2)
        assert _canon(resumed) == _canon(cold)
        program_len = len(core.program.instructions)
        assert 0 < sum(n for _k, _pc, n in compiled) <= 2 * program_len
