"""Unit and property tests for the checkpoint subsystem.

The load-bearing property is **capture idempotence**: capturing a run,
restoring it, and capturing again must produce identical bytes — if it
did not, either restore loses state or the serialisation is not
canonical, and either way resumed runs could diverge.  The sweep covers
every workload (under the richest policy) and every policy (on two
workloads of opposite memory character), mirroring the fastpath
equivalence grid.

Corruption must degrade, never crash: a truncated or tampered snapshot
raises :class:`CheckpointError` from the parser, and the engine treats
any unusable checkpoint as a miss and runs cold.
"""

from __future__ import annotations

import io
import json
import pickle
import zlib

import pytest

from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    Snapshot,
    canonical_dumps,
    canonical_loads,
    capture,
    is_quiescent,
    prune,
    restore,
    scan_usage,
)
from repro.config import PrefetchPolicy, SimulationConfig
from repro.errors import CheckpointError
from repro.harness import engine as engine_module
from repro.harness import runner
from repro.harness.engine import ExperimentEngine, make_job
from repro.harness.runner import Simulation
from repro.workloads.registry import BENCHMARK_NAMES

BUDGET = 1_500
WARMUP = 400

#: Two workloads of opposite memory character (pointer chase vs stream)
#: carry the full-policy axis of the sweep.
POLICY_SWEEP_WORKLOADS = ["mcf", "swim"]


def _run_sim(name, policy, **overrides):
    overrides.setdefault("max_instructions", BUDGET)
    overrides.setdefault("warmup_instructions", WARMUP)
    sim = Simulation(name, SimulationConfig(policy=policy, **overrides))
    sim.run()
    return sim


def _assert_idempotent(name, policy):
    sim = _run_sim(name, policy)
    first = capture(sim)
    second = capture(restore(first))
    assert first.header == second.header
    assert first.payload == second.payload
    assert first.to_bytes() == second.to_bytes()


class TestCaptureIdempotence:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_workload(self, name):
        _assert_idempotent(name, PrefetchPolicy.SELF_REPAIRING)

    @pytest.mark.parametrize("policy", list(PrefetchPolicy))
    @pytest.mark.parametrize("name", POLICY_SWEEP_WORKLOADS)
    def test_every_policy(self, name, policy):
        _assert_idempotent(name, policy)

    def test_frame_roundtrip(self):
        sim = _run_sim("art", PrefetchPolicy.SELF_REPAIRING)
        snapshot = capture(sim)
        parsed = Snapshot.from_bytes(snapshot.to_bytes())
        assert parsed.header == snapshot.header
        assert parsed.payload == snapshot.payload
        assert parsed.committed == sim.core.stats.committed

    def test_fault_free_runs_are_always_quiescent(self):
        sim = _run_sim("mcf", PrefetchPolicy.SELF_REPAIRING)
        assert sim.injector is None
        assert is_quiescent(sim)


class TestCorruption:
    @pytest.fixture(scope="class")
    def frame(self):
        sim = _run_sim("art", PrefetchPolicy.SELF_REPAIRING)
        return capture(sim)

    def test_truncation_raises_everywhere(self, frame):
        data = frame.to_bytes()
        for cut in (0, 2, 4, 7, 40, len(data) // 2, len(data) - 1):
            with pytest.raises(CheckpointError):
                Snapshot.from_bytes(data[:cut])

    def test_bad_magic_raises(self):
        with pytest.raises(CheckpointError):
            Snapshot.from_bytes(b"NOPE" + b"\x00" * 64)

    def test_unknown_format_raises(self, frame):
        header = dict(frame.header, format=FORMAT_VERSION + 1)
        data = Snapshot(header=header, payload=frame.payload).to_bytes()
        with pytest.raises(CheckpointError):
            Snapshot.from_bytes(data)

    def test_stale_code_version_refuses_restore(self, frame):
        tampered = Snapshot(
            header=dict(frame.header, code_version="0" * 64),
            payload=frame.payload,
        )
        with pytest.raises(CheckpointError):
            restore(tampered)

    def test_garbage_payload_refuses_restore(self, frame):
        garbage = zlib.compress(b"not a pickle")
        tampered = Snapshot(
            header=dict(frame.header, payload_bytes=len(garbage)),
            payload=garbage,
        )
        with pytest.raises(CheckpointError):
            restore(tampered)

    def test_engine_runs_cold_off_truncated_checkpoints(self, tmp_path):
        """An unusable stored snapshot is a miss, not a crash."""
        job = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=1_000,
            warmup_instructions=WARMUP,
        )
        seeded = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        seeded.run([job], isolate=False)
        ckpts = list((tmp_path / "checkpoints").rglob("*.ckpt"))
        assert ckpts
        for path in ckpts:
            path.write_bytes(path.read_bytes()[:50])

        longer = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=2_000,
            warmup_instructions=WARMUP,
        )
        engine = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        outcome = engine.run([longer], isolate=False)[0]
        assert outcome.resumed_from is None
        assert engine.stats.jobs_resumed == 0

        cold = Simulation(
            "art",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=2_000,
                warmup_instructions=WARMUP,
            ),
        ).run()
        assert json.dumps(outcome.result.to_dict()) == json.dumps(
            cold.to_dict()
        )


class _Node:
    """A hand-built graph vertex (module level, so it pickles)."""

    def __init__(self, label, **fields):
        self.label = label
        self.__dict__.update(fields)


def _distinct(text: str) -> str:
    """An equal string that is not the same object as ``text``."""
    copy = "".join(list(text))
    assert copy == text and copy is not text
    return copy


class TestCanonicalSerializer:
    """Invariants of the snapshot pickler, on graphs built by hand."""

    def test_equal_strings_with_distinct_identity_give_equal_bytes(self):
        name = "delinquent-load"
        shared = [name, name, {name: name}]
        distinct = [_distinct(name), _distinct(name), {_distinct(name): name}]
        assert canonical_dumps(shared) == canonical_dumps(distinct)

    def test_set_insertion_history_does_not_reach_the_bytes(self):
        # Multiples of a large power of two collide in the hash table,
        # so these equal sets iterate in their insertion orders.
        pcs = [pc * 4096 for pc in range(300)]
        forward, backward = set(pcs), set(reversed(pcs))
        assert forward == backward and list(forward) != list(backward)
        small = [pc * 1024 for pc in range(5)]
        small_forward, small_backward = set(small), set(reversed(small))
        assert list(small_forward) != list(small_backward)

        def graph(big, little):
            return {"sets": [big, frozenset(big)], "small": little}

        assert canonical_dumps(graph(forward, small_forward)) == (
            canonical_dumps(graph(backward, small_backward))
        )

    def test_aliased_containers_restore_shared(self):
        pcs = {7, 3, 5}
        words = list(range(1_000))  # packed through array
        trail = [1, 2, 3]  # generic path
        restored = canonical_loads(
            canonical_dumps(
                _Node("root", a=pcs, b=pcs, c=words, d=words, e=trail,
                      f=trail, g=(words, pcs))
            )
        )
        assert restored.a is restored.b
        assert restored.c is restored.d
        assert restored.e is restored.f
        assert restored.g[0] is restored.c and restored.g[1] is restored.a
        assert restored.a == {3, 5, 7} and restored.c == words

    @pytest.mark.parametrize("outlier", [True, 2 ** 70, 1.5])
    def test_packable_containers_with_outliers_keep_exact_types(
        self, outlier
    ):
        values = {8 * i: i for i in range(300)}
        values[8 * 150] = outlier
        items = list(range(300))
        items[150] = outlier
        keys = {i: 1.0 for i in range(300)}
        keys[2 ** 70] = 1.0
        restored_values, restored_items, restored_keys = canonical_loads(
            canonical_dumps((values, items, keys))
        )
        for original, restored in (
            (values, restored_values),
            (keys, restored_keys),
        ):
            assert list(restored.items()) == list(original.items())
            assert [type(k) for k in restored] == [type(k) for k in original]
            assert [type(v) for v in restored.values()] == [
                type(v) for v in original.values()
            ]
        assert restored_items == items
        assert [type(v) for v in restored_items] == [type(v) for v in items]

    def test_capture_restore_capture_is_byte_equal(self):
        pcs = {40, 12, 33}
        words = {8 * i: i * i for i in range(512)}
        head = _Node("head", pcs=pcs, words=words, scale=[0.5] * 300)
        tail = _Node("tail", pcs=pcs, prev=head, tags=frozenset({"a", "b"}))
        head.next = tail
        graph = {"nodes": [head, tail], "by_pc": {pc: head for pc in pcs}}
        first = canonical_dumps(graph)
        restored = canonical_loads(first)
        assert canonical_dumps(restored) == first
        assert restored["nodes"][0].next is restored["nodes"][1]
        assert restored["nodes"][1].pcs is restored["nodes"][0].pcs
        assert list(restored["nodes"][0].words.items()) == list(words.items())


def _payload_with_pid(pid) -> bytes:
    """A compressed pickle of ``[_Node]`` whose node is the persistent id
    ``pid`` — a payload no capture ever writes."""

    class Forger(pickle.Pickler):
        def persistent_id(self, obj):
            return pid if isinstance(obj, _Node) else None

    buffer = io.BytesIO()
    Forger(buffer, protocol=4).dump([_Node("forged")])
    return zlib.compress(buffer.getvalue())


#: Persistent ids the snapshot format never writes.
BAD_PIDS = [
    ("bogus", b""),
    ("set",),
    ("idict", b"\x00" * 8),
    ("memory", '["wupwise", null, null, 1]'),
    (),
    42,
]


class TestPersistentIdErrors:
    @pytest.fixture(scope="class")
    def frame(self):
        return capture(_run_sim("art", PrefetchPolicy.SELF_REPAIRING))

    @pytest.mark.parametrize("pid", BAD_PIDS, ids=repr)
    def test_bad_persistent_id_refuses_restore(self, frame, pid):
        payload = _payload_with_pid(pid)
        tampered = Snapshot(
            header=dict(frame.header, payload_bytes=len(payload)),
            payload=payload,
        )
        parsed = Snapshot.from_bytes(tampered.to_bytes())
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            restore(parsed)

    def test_version_one_frames_are_unsupported(self, frame):
        """Format 1 (pure-Python pickler) and format 2 (whole memory
        images) frames are both refused by this reader."""
        assert FORMAT_VERSION == 3
        for version in (1, 2):
            old = Snapshot(header=dict(frame.header, format=version),
                           payload=frame.payload)
            with pytest.raises(
                CheckpointError,
                match=f"unsupported checkpoint format {version}",
            ):
                Snapshot.from_bytes(old.to_bytes())

    def test_engine_runs_cold_off_unknown_persistent_ids(self, tmp_path):
        """A stored snapshot whose payload holds an unknown tag parses,
        fails to restore, and the engine runs the cell cold instead."""
        job = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=1_000,
            warmup_instructions=WARMUP,
        )
        ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        ).run([job], isolate=False)
        ckpts = list((tmp_path / "checkpoints").rglob("*.ckpt"))
        assert ckpts
        payload = _payload_with_pid(("bogus", b""))
        for path in ckpts:
            frame = Snapshot.from_bytes(path.read_bytes())
            path.write_bytes(
                Snapshot(
                    header=dict(frame.header, payload_bytes=len(payload)),
                    payload=payload,
                ).to_bytes()
            )

        longer = make_job(
            "art",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=2_000,
            warmup_instructions=WARMUP,
        )
        engine = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        outcome = engine.run([longer], isolate=False)[0]
        assert outcome.resumed_from is None
        assert engine.stats.jobs_resumed == 0
        cold = ExperimentEngine(cache=None, checkpoints=None).run(
            [longer], isolate=False
        )[0]
        assert json.dumps(outcome.result.to_dict()) == json.dumps(
            cold.result.to_dict()
        )


#: Programs that store into their data memory, with a (B1, B2) pair at
#: which they already have: vis only writes after ~16k instructions.
STORING = {
    "vis": (16_000, 18_000),
    "wupwise": (BUDGET, 3_000),
    "fma3d": (BUDGET, 3_000),
    "mgrid": (BUDGET, 3_000),
}


def _fresh_base(name: str, seed: int = 1):
    """A never-written memory image built the way the engine builds."""
    return runner.build_workload(name, seed).memory


def _captured_at(name, b1):
    """Run ``name`` to ``b1`` and return (sim, its end-of-run snapshot)."""
    captured = []
    sim = Simulation(
        name,
        SimulationConfig(
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=b1,
            warmup_instructions=WARMUP,
        ),
    )
    sim.checkpoint_sink = lambda s: bool(captured.append(capture(s))) or True
    sim.run()
    return sim, captured[-1]


def _cold_dict(name, budget) -> dict:
    return Simulation(
        name,
        SimulationConfig(
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget,
            warmup_instructions=WARMUP,
        ),
    ).run().to_dict()


class TestMemoryByOrigin:
    """A snapshot holds the memory's origin plus its written words, and
    restore replays them onto a fresh build of that origin."""

    def test_memory_image_stays_out_of_the_payload(self):
        # mcf lays out 960k words and writes none of them; the parent
        # format packed the whole image (about 2 MB at this budget).
        sim = Simulation(
            "mcf",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=8_000,
                warmup_instructions=4_000,
            ),
        )
        sim.run()
        snapshot = capture(sim)
        assert len(sim.workload.memory) > 900_000
        assert len(snapshot.payload) < 100_000
        assert snapshot.header["origin"] == ["mcf", None, None, 1]

    @pytest.mark.parametrize("with_base", [True, False],
                             ids=["base", "rebuild"])
    @pytest.mark.parametrize("name", sorted(STORING))
    def test_resume_equals_cold(self, name, with_base):
        b1, b2 = STORING[name]
        sim, snapshot = _captured_at(name, b1)
        assert sim.workload.memory.written, "program must store by B1"
        base = _fresh_base(name) if with_base else None
        restored = restore(snapshot, base)
        if with_base:
            assert restored.workload.memory is base
        assert capture(restored).to_bytes() == snapshot.to_bytes()
        assert restored.workload.memory.words() == sim.workload.memory.words()
        assert restored.resume(b2).to_dict() == _cold_dict(name, b2)

    @pytest.mark.parametrize("with_base", [True, False],
                             ids=["base", "rebuild"])
    def test_overwrites_and_fresh_addresses_survive(self, with_base):
        sim = _run_sim("dot", PrefetchPolicy.SELF_REPAIRING)
        memory = sim.workload.memory
        words = memory.words()
        built = next(iter(words))
        absent = max(words) + 8 * 1_000
        memory.write(built, -7)
        memory.write(absent, 2.5)
        memory.read(absent + 8)  # an unmapped read is state too
        snapshot = capture(sim)
        restored = restore(snapshot, _fresh_base("dot") if with_base else None)
        words = restored.workload.memory.words()
        assert words[built] == -7 and words[absent] == 2.5
        assert words == memory.words()
        assert restored.workload.memory.written == {built, absent}
        assert restored.workload.memory.unmapped_reads == (
            memory.unmapped_reads
        )
        assert capture(restored).to_bytes() == snapshot.to_bytes()

    def test_mismatched_or_written_base_is_refused_untouched(self):
        _, snapshot = _captured_at("wupwise", BUDGET)
        other = _fresh_base("wupwise", seed=2)
        written = _fresh_base("wupwise")
        written.write(0x1_0000, 1)
        for base in (other, written, _fresh_base("mgrid")):
            words, marks = base.words(), set(base.written)
            with pytest.raises(CheckpointError, match="restore base"):
                restore(snapshot, base)
            assert base.words() == words and base.written == marks

    def test_failed_restore_leaves_the_base_untouched(self):
        _, snapshot = _captured_at("wupwise", BUDGET)
        payload = zlib.decompress(snapshot.payload)
        cut = zlib.compress(payload[: len(payload) - 40])
        broken = Snapshot(
            header=dict(snapshot.header, payload_bytes=len(cut)),
            payload=cut,
        )
        base = _fresh_base("wupwise")
        words = base.words()
        with pytest.raises(CheckpointError):
            restore(broken, base)
        assert base.words() == words and not base.written

    def test_unbuildable_origin_refuses_restore(self):
        _, snapshot = _captured_at("wupwise", BUDGET)
        payload = _payload_with_pid(
            ("memory", '["no-such-program", null, null, 1]', [], [], 0)
        )
        forged = Snapshot(
            header=dict(snapshot.header, payload_bytes=len(payload)),
            payload=payload,
        )
        with pytest.raises(CheckpointError, match="cannot rebuild"):
            restore(forged)

    def test_originless_memory_is_not_captured(self, tmp_path):
        workload = runner.build_workload("wupwise", 1)
        workload.memory.origin = None
        config = SimulationConfig(
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=BUDGET,
            warmup_instructions=WARMUP,
        )
        sim = Simulation(workload, config)
        store = CheckpointStore(tmp_path)
        sim.checkpoint_sink = lambda s: store.save("ab" * 32, s)
        result = sim.run()
        with pytest.raises(CheckpointError, match="no build origin"):
            capture(sim)
        assert store.committed_counts("ab" * 32) == []
        assert store.stores == 0
        assert result.to_dict() == _cold_dict("wupwise", BUDGET)


class TestEngineRefusalsRunCold:
    """Every restore refusal inside the engine ends in a cold run with
    the cold run's exact result."""

    B1, B2 = 1_000, 2_000

    def _job(self, budget):
        return make_job(
            "dot",
            policy=PrefetchPolicy.SELF_REPAIRING,
            max_instructions=budget,
            warmup_instructions=WARMUP,
        )

    def _seed_store(self, tmp_path):
        ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        ).run([self._job(self.B1)], isolate=False)
        ckpts = list((tmp_path / "checkpoints").rglob("*.ckpt"))
        assert ckpts
        return ckpts

    def _assert_runs_cold(self, tmp_path):
        engine = ExperimentEngine(
            cache=None, checkpoints=CheckpointStore(tmp_path)
        )
        outcome = engine.run([self._job(self.B2)], isolate=False)[0]
        assert outcome.resumed_from is None
        assert engine.stats.jobs_resumed == 0
        assert outcome.result.to_dict() == _cold_dict("dot", self.B2)

    def test_snapshot_of_another_origin(self, tmp_path):
        ckpts = self._seed_store(tmp_path)
        # A snapshot whose memory came from another seed's build, filed
        # under this job's prefix.
        sim = _run_sim("dot", PrefetchPolicy.SELF_REPAIRING,
                       max_instructions=self.B1)
        memory = sim.workload.memory
        memory.origin = _fresh_base("dot", seed=2).origin
        foreign = capture(sim)
        for path in ckpts:
            path.write_bytes(foreign.to_bytes())
        self._assert_runs_cold(tmp_path)

    def test_already_written_base(self, tmp_path, monkeypatch):
        self._seed_store(tmp_path)
        real_take = engine_module._WorkloadMemo.take

        def take_written(memo, job):
            workload = real_take(memo, job)
            memory = workload.memory
            # Rewrites a built word with its own value: the memory counts
            # as written, yet the cold run that follows still starts
            # from the built image.
            addr, value = next(iter(memory.words().items()))
            memory.write(addr, value)
            return workload

        monkeypatch.setattr(
            engine_module._WorkloadMemo, "take", take_written
        )
        self._assert_runs_cold(tmp_path)


def _fake_snapshot(committed: int) -> Snapshot:
    payload = zlib.compress(committed.to_bytes(8, "big") * 16)
    return Snapshot(
        header={
            "format": FORMAT_VERSION,
            "committed": committed,
            "cycles": committed * 2.0,
            "payload_bytes": len(payload),
        },
        payload=payload,
    )


class TestStore:
    def test_put_best_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for committed in (300, 100, 200):
            assert store.put("ab" * 32, _fake_snapshot(committed))
        assert store.committed_counts("ab" * 32) == [100, 200, 300]
        assert store.best("ab" * 32, 250).committed == 200
        assert store.best("ab" * 32, 99) is None
        assert store.best("ab" * 32, 10_000).committed == 300

    def test_put_skips_existing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.put("cd" * 32, _fake_snapshot(100))
        assert not store.put("cd" * 32, _fake_snapshot(100))
        assert store.stores == 1

    def test_best_skips_corrupt_candidate(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("ef" * 32, _fake_snapshot(100))
        store.put("ef" * 32, _fake_snapshot(200))
        store.path_for("ef" * 32, 200).write_bytes(b"garbage")
        assert store.best("ef" * 32, 10_000).committed == 100

    def test_prefix_key_ignores_budget_and_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path)

        def key(**overrides):
            return store.prefix_key(
                make_job("art", warmup_instructions=WARMUP, **overrides).spec()
            )

        base = key(max_instructions=1_000)
        assert key(max_instructions=50_000) == base
        assert key(max_instructions=1_000, checkpoint_every=500) == base
        assert key(max_instructions=1_000, seed=7) != base
        assert key(max_instructions=1_000, fast=False) != base

    def test_prune_oldest_first_and_scan(self, tmp_path):
        import os

        store = CheckpointStore(tmp_path)
        for index, committed in enumerate((100, 200, 300)):
            store.put("12" * 32, _fake_snapshot(committed))
            path = store.path_for("12" * 32, committed)
            os.utime(path, (1_000 + index, 1_000 + index))
        usage = scan_usage(tmp_path)
        assert usage["checkpoints"]["entries"] == 3
        total = usage["checkpoints"]["bytes"]
        per_file = total // 3
        deleted, freed = prune(tmp_path, total - per_file)
        assert deleted == 1
        assert freed > 0
        # Oldest mtime went first: the first-written snapshot is gone.
        assert store.committed_counts("12" * 32) == [200, 300]


class TestCadence:
    def test_checkpoint_every_marks_and_end_capture(self):
        sim = Simulation(
            "art",
            SimulationConfig(
                policy=PrefetchPolicy.SELF_REPAIRING,
                max_instructions=2_000,
                warmup_instructions=400,
                checkpoint_every=600,
            ),
        )
        committed_at = []
        def sink(s):
            committed_at.append(s.core.stats.committed)
            return True
        sim.checkpoint_sink = sink
        sim.run()
        assert committed_at == [600, 1_200, 1_800, 2_400]
        assert sim.checkpoints_captured == len(committed_at)

    def test_snapshot_normalises_capture_schedule(self):
        """Snapshots taken under different cadences are byte-identical:
        the sink and schedule are per-run-segment, not state."""
        def bytes_with(every):
            sim = Simulation(
                "art",
                SimulationConfig(
                    policy=PrefetchPolicy.SELF_REPAIRING,
                    max_instructions=1_200,
                    warmup_instructions=400,
                    checkpoint_every=every,
                ),
            )
            captured = []
            sim.checkpoint_sink = lambda s: bool(
                captured.append(capture(s))
            ) or True
            sim.run()
            return captured[-1].to_bytes()

        assert bytes_with(None) == bytes_with(700)
