"""Workload-generator DSL: access-pattern primitives composed into
parameterized scenarios.

The paper's evaluation is 14 fixed synthetic programs.  A
:class:`ScenarioSpec` opens that space: it composes *access-pattern
primitives* — strided streams, pointer chases over the three allocator
layouts, same-object field groups, irregular hash walks, footprint
ramps — into phases, and compiles the composition to a real
:class:`~repro.workloads.base.Workload` through the same assembler and
heap builders the built-in benchmarks use.  A compiled scenario is a
first-class workload: it runs under either interpreter, snapshots and
resumes, lands in the content-addressed result cache (the spec dict is
part of the job spec), and renders in every figure.

Specs are plain data.  ``to_dict``/``from_dict`` round-trip exactly
(the property suite holds them to that), validation raises
:class:`~repro.errors.ConfigError` at the surface, and a spec's name
may never collide with a built-in benchmark — the registry owns those
names.

Grammar (JSON form)::

    {"version": 1, "name": "ramp-chase", "repeats": 100000,
     "phases": [
       {"repeats": 4, "primitives": [
         {"kind": "stride", "iters": 256, "stride": 8, "loads": 1},
         {"kind": "pointer_chase", "iters": 128, "nodes": 2048,
          "node_words": 8, "layout": "scramble", "field_loads": 1},
       ]},
     ]}

Phases execute in order inside one outer loop, so a multi-phase spec
*is* a phase-changing workload; ``footprint_ramp`` grows its working
set across steps inside a phase.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigError
from ..isa.assembler import Assembler
from ..workloads.base import (
    Workload,
    counted_loop,
    new_parts,
    source_key,
)
from ..workloads.data import build_array, build_linked_list
from ..workloads.registry import BENCHMARK_NAMES

#: Spec schema version (part of the serialised form and the job spec).
SPEC_VERSION = 1

#: Scenario names: short kebab/snake identifiers.  The pattern excludes
#: ``:`` so a scenario can never masquerade as a ``trace:...`` workload.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]{0,63}$")

#: Multiplicative hash constant (Knuth), as the gap workload uses.
_HASH_MULT = 2654435761

_LAYOUTS = ("seq", "segment", "scramble")

#: Per-primitive parameter schema: name -> (default, lo, hi) for ints,
#: or a tuple of allowed strings.  Validation is table-driven so the
#: fuzzer's generator and ``from_dict`` can never disagree.
PRIMITIVE_PARAMS: Dict[str, Dict[str, tuple]] = {
    "stride": {
        "iters": (256, 1, 65536),
        "stride": (8, 1, 64),        # words between consecutive loads
        "loads": (1, 1, 3),          # loads per iteration (offsets 0,8,16)
    },
    "pointer_chase": {
        "iters": (256, 1, 65536),
        "nodes": (2048, 8, 65536),
        "node_words": (8, 2, 16),
        "layout": _LAYOUTS,
        "field_loads": (1, 0, 2),
    },
    "same_object": {
        "iters": (256, 1, 65536),
        "nodes": (2048, 8, 65536),
        "node_words": (8, 4, 16),
        "layout": _LAYOUTS,
    },
    "hash_walk": {
        "iters": (256, 1, 65536),
        "table_words": (65536, 1024, 1 << 21),  # must be a power of two
    },
    "footprint_ramp": {
        "steps": (4, 1, 6),          # footprint doubles each step
        "start_words": (512, 64, 8192),
        "stride": (8, 1, 16),
        "iters": (128, 1, 8192),     # iterations per step
    },
}

#: Cursor/state registers handed to primitive instances round-robin.
_CURSOR_REGS = tuple(f"r{i}" for i in range(1, 9))
#: Accumulators shared by every primitive body (never reset).
_ACC_REGS = ("r11", "r12")
#: Scratch registers for address arithmetic inside one body.
_TMP_REGS = ("r17", "r18", "r19")
#: Loop counters: outer scenario loop, phase loop, primitive loop.
_OUTER_REG, _PHASE_REG, _PRIM_REG = "r27", "r26", "r25"


def _check_int(kind: str, name: str, value, lo: int, hi: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(
            f"scenario primitive {kind!r}: {name} must be an int, "
            f"got {value!r}"
        )
    if not lo <= value <= hi:
        raise ConfigError(
            f"scenario primitive {kind!r}: {name}={value} out of range "
            f"[{lo}, {hi}]"
        )
    return value


@dataclass
class Primitive:
    """One access-pattern building block (validated against its schema)."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        schema = PRIMITIVE_PARAMS.get(self.kind)
        if schema is None:
            known = ", ".join(sorted(PRIMITIVE_PARAMS))
            raise ConfigError(
                f"unknown scenario primitive {self.kind!r}; known: {known}"
            )
        unknown = set(self.params) - set(schema)
        if unknown:
            raise ConfigError(
                f"scenario primitive {self.kind!r}: unknown parameter(s) "
                f"{sorted(unknown)}"
            )
        full: Dict[str, object] = {}
        for name, spec in schema.items():
            value = self.params.get(name, None)
            if all(isinstance(choice, str) for choice in spec):
                value = spec[0] if value is None else value
                if value not in spec:
                    raise ConfigError(
                        f"scenario primitive {self.kind!r}: {name} must be "
                        f"one of {spec}, got {value!r}"
                    )
            else:
                default, lo, hi = spec
                value = default if value is None else value
                value = _check_int(self.kind, name, value, lo, hi)
            full[name] = value
        if self.kind == "hash_walk":
            words = full["table_words"]
            if words & (words - 1):
                raise ConfigError(
                    "scenario primitive 'hash_walk': table_words must be "
                    f"a power of two, got {words}"
                )
        self.params = full

    def to_dict(self) -> Dict:
        payload: Dict[str, object] = {"kind": self.kind}
        payload.update(self.params)
        return payload

    @staticmethod
    def from_dict(raw: Dict) -> "Primitive":
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError(
                f"scenario primitive must be a dict with a 'kind', "
                f"got {raw!r}"
            )
        params = {k: v for k, v in raw.items() if k != "kind"}
        return Primitive(kind=raw["kind"], params=params)


@dataclass
class Phase:
    """An ordered group of primitives repeated ``repeats`` times."""

    primitives: List[Primitive]
    repeats: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.repeats, int) or isinstance(self.repeats, bool):
            raise ConfigError(
                f"scenario phase: repeats must be an int, got {self.repeats!r}"
            )
        if not 1 <= self.repeats <= 1 << 20:
            raise ConfigError(
                f"scenario phase: repeats={self.repeats} out of range "
                f"[1, {1 << 20}]"
            )
        if not self.primitives:
            raise ConfigError("scenario phase needs at least one primitive")
        if len(self.primitives) > 4:
            raise ConfigError(
                f"scenario phase holds {len(self.primitives)} primitives; "
                "the limit is 4"
            )

    def to_dict(self) -> Dict:
        return {
            "repeats": self.repeats,
            "primitives": [p.to_dict() for p in self.primitives],
        }

    @staticmethod
    def from_dict(raw: Dict) -> "Phase":
        if not isinstance(raw, dict) or "primitives" not in raw:
            raise ConfigError(
                f"scenario phase must be a dict with 'primitives', got {raw!r}"
            )
        return Phase(
            primitives=[
                Primitive.from_dict(p) for p in raw["primitives"]
            ],
            repeats=raw.get("repeats", 1),
        )


@dataclass
class ScenarioSpec:
    """A full scenario: named, validated, serialisable, compilable."""

    name: str
    phases: List[Phase]
    repeats: int = 100_000
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ConfigError(
                f"scenario name {self.name!r} is invalid: must match "
                f"{_NAME_RE.pattern}"
            )
        if self.name in BENCHMARK_NAMES:
            raise ConfigError(
                f"scenario name {self.name!r} collides with a built-in "
                "benchmark workload; pick another name"
            )
        if not isinstance(self.repeats, int) or isinstance(self.repeats, bool):
            raise ConfigError(
                f"scenario repeats must be an int, got {self.repeats!r}"
            )
        if not 1 <= self.repeats <= 1 << 20:
            raise ConfigError(
                f"scenario repeats={self.repeats} out of range [1, {1 << 20}]"
            )
        if not self.phases:
            raise ConfigError("scenario needs at least one phase")
        if len(self.phases) > 4:
            raise ConfigError(
                f"scenario holds {len(self.phases)} phases; the limit is 4"
            )
        if not isinstance(self.description, str):
            raise ConfigError(
                f"scenario description must be a string, "
                f"got {self.description!r}"
            )

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        payload: Dict[str, object] = {
            "version": SPEC_VERSION,
            "name": self.name,
            "repeats": self.repeats,
            "phases": [phase.to_dict() for phase in self.phases],
        }
        if self.description:
            payload["description"] = self.description
        return payload

    @staticmethod
    def from_dict(raw: Dict) -> "ScenarioSpec":
        if not isinstance(raw, dict):
            raise ConfigError(f"scenario spec must be a dict, got {raw!r}")
        version = raw.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"unsupported scenario spec version {version!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        unknown = set(raw) - {
            "version", "name", "repeats", "phases", "description"
        }
        if unknown:
            raise ConfigError(
                f"scenario spec has unknown key(s) {sorted(unknown)}"
            )
        if "name" not in raw or "phases" not in raw:
            raise ConfigError(
                "scenario spec needs 'name' and 'phases' keys"
            )
        if not isinstance(raw["phases"], list):
            raise ConfigError(
                f"scenario phases must be a list, got {raw['phases']!r}"
            )
        return ScenarioSpec(
            name=raw["name"],
            phases=[Phase.from_dict(p) for p in raw["phases"]],
            repeats=raw.get("repeats", 100_000),
            description=raw.get("description", ""),
        )

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ScenarioSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}")
        except ValueError as exc:
            raise ConfigError(
                f"scenario file {path} is not valid JSON: {exc}"
            )
        return ScenarioSpec.from_dict(raw)

    # ------------------------------------------------------------------
    # Compilation to a Workload.
    # ------------------------------------------------------------------
    def build(self, seed: int = 1) -> Workload:
        """Compile to a runnable workload.

        Deterministic for a given (spec, seed): the layout RNG is seeded
        from the seed *and* the canonical spec JSON, so two distinct
        specs never alias layouts and the same spec always rebuilds the
        same program and memory image — the property the result cache,
        checkpoint prefixes, and golden fixtures all rest on.
        """
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
        parts = new_parts(self.name, seed ^ int(digest[:12], 16))
        asm = parts.asm
        emitters = []
        for phase_idx, phase in enumerate(self.phases):
            for prim_idx, prim in enumerate(phase.primitives):
                emitters.append(_make_emitter(
                    prim,
                    parts,
                    tag=f"p{phase_idx}_{prim_idx}",
                    cursor=_CURSOR_REGS[
                        len(emitters) % len(_CURSOR_REGS)
                    ],
                ))
        close_outer = counted_loop(asm, _OUTER_REG, self.repeats, "scenario")
        cursor_iter = iter(emitters)
        for phase_idx, phase in enumerate(self.phases):
            close_phase = counted_loop(
                asm, _PHASE_REG, phase.repeats, f"phase{phase_idx}"
            )
            for _ in phase.primitives:
                next(cursor_iter)(asm)
            close_phase()
        close_outer()
        asm.halt()
        parts.memory.mark_built(
            source_key(self.name, self.to_dict(), None, seed)
        )
        return Workload(
            name=self.name,
            program=asm.build(),
            memory=parts.memory,
            description=self.description or (
                f"DSL scenario: {len(self.phases)} phase(s), "
                f"{sum(len(p.primitives) for p in self.phases)} primitive(s)"
            ),
            kind="scenario",
            paper_notes="generated by repro.scenarios.dsl",
        )


# ----------------------------------------------------------------------
# Primitive code emitters.  Each returns a closure emitting the
# primitive's inner loop; data structures are allocated eagerly (before
# any code runs) so layout order is independent of phase structure.
# ----------------------------------------------------------------------
def _make_emitter(prim: Primitive, parts, tag: str, cursor: str):
    p = prim.params
    asm_alloc, rng = parts.alloc, parts.rng
    t0, t1, _t2 = _TMP_REGS
    acc0, acc1 = _ACC_REGS

    if prim.kind == "stride":
        words = p["iters"] * p["stride"] + 3
        base = build_array(asm_alloc, words)
        stride_bytes = p["stride"] * 8

        def emit(asm: Assembler) -> None:
            asm.li(cursor, base)
            close = counted_loop(asm, _PRIM_REG, p["iters"], f"{tag}_stride")
            for slot in range(p["loads"]):
                asm.ldq(t0, cursor, slot * 8)
                asm.addq(acc0, acc0, rb=t0)
            asm.lda(cursor, cursor, stride_bytes)
            close()

        return emit

    if prim.kind in ("pointer_chase", "same_object"):
        layout = p["layout"]
        head, _nodes = build_linked_list(
            asm_alloc,
            node_words=p["node_words"],
            count=p["nodes"],
            rng=rng,
            scramble=(layout == "scramble"),
            segment=(64 if layout == "segment" else None),
        )
        if prim.kind == "same_object":
            field_loads = min(3, p["node_words"] - 1)
        else:
            field_loads = min(p["field_loads"], p["node_words"] - 1)

        def emit(asm: Assembler) -> None:
            asm.li(cursor, head)
            close = counted_loop(asm, _PRIM_REG, p["iters"], f"{tag}_chase")
            for slot in range(field_loads):
                asm.ldq(t0, cursor, (slot + 1) * 8)
                asm.addq(acc0, acc0, rb=t0)
            asm.ldq(cursor, cursor, 0)
            close()

        return emit

    if prim.kind == "hash_walk":
        table_words = p["table_words"]
        base = build_array(asm_alloc, table_words)
        mask = (table_words * 8 - 1) & ~63

        def emit(asm: Assembler) -> None:
            asm.li(cursor, 88172645463325252 & 0xFFFF)
            close = counted_loop(asm, _PRIM_REG, p["iters"], f"{tag}_hash")
            asm.mulq(cursor, cursor, imm=_HASH_MULT)
            asm.addq(cursor, cursor, imm=12345)
            asm.and_(t0, cursor, imm=mask)
            asm.addq(t0, t0, imm=base)
            asm.ldq(t1, t0, 0)
            asm.addq(acc1, acc1, rb=t1)
            close()

        return emit

    if prim.kind == "footprint_ramp":
        max_words = p["start_words"] << (p["steps"] - 1)
        base = build_array(asm_alloc, max_words + p["stride"] * 2)
        stride_bytes = p["stride"] * 8

        def emit(asm: Assembler) -> None:
            for step in range(p["steps"]):
                footprint = p["start_words"] << step
                span = max(1, footprint // p["stride"])
                iters = min(p["iters"], span)
                asm.li(cursor, base)
                close = counted_loop(
                    asm, _PRIM_REG, iters, f"{tag}_ramp{step}"
                )
                asm.ldq(t0, cursor, 0)
                asm.addq(acc0, acc0, rb=t0)
                asm.lda(cursor, cursor, stride_bytes)
                close()

        return emit

    raise ConfigError(f"unknown scenario primitive {prim.kind!r}")


# ----------------------------------------------------------------------
# Seeded random scenario generation (the fuzzer's and the CLI's source).
# ----------------------------------------------------------------------
def generate_scenario(
    seed: int, name: str | None = None, budget_hint: int = 50_000
) -> ScenarioSpec:
    """Deterministically generate a random-but-valid scenario.

    ``budget_hint`` loosely caps per-phase work so tiny-budget fuzz runs
    still cross phase boundaries.  Identical seeds yield identical
    specs in every process (the RNG is ``random.Random(seed)``, no
    ambient state).
    """
    import random

    rng = random.Random(seed)
    phases: List[Phase] = []
    iters_cap = max(8, min(2048, budget_hint // 10))
    for _ in range(rng.randint(1, 3)):
        primitives: List[Primitive] = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(sorted(PRIMITIVE_PARAMS))
            params: Dict[str, object] = {}
            if kind == "stride":
                params = {
                    "iters": rng.randint(8, iters_cap),
                    "stride": rng.choice((1, 2, 4, 8, 16, 32)),
                    "loads": rng.randint(1, 3),
                }
            elif kind == "pointer_chase":
                params = {
                    "iters": rng.randint(8, iters_cap),
                    "nodes": rng.randint(64, 4096),
                    "node_words": rng.choice((2, 4, 8, 16)),
                    "layout": rng.choice(_LAYOUTS),
                    "field_loads": rng.randint(0, 2),
                }
            elif kind == "same_object":
                params = {
                    "iters": rng.randint(8, iters_cap),
                    "nodes": rng.randint(64, 4096),
                    "node_words": rng.choice((4, 8, 16)),
                    "layout": rng.choice(_LAYOUTS),
                }
            elif kind == "hash_walk":
                params = {
                    "iters": rng.randint(8, iters_cap),
                    "table_words": 1 << rng.randint(10, 18),
                }
            elif kind == "footprint_ramp":
                params = {
                    "steps": rng.randint(1, 5),
                    "start_words": rng.choice((64, 256, 1024, 4096)),
                    "stride": rng.choice((1, 2, 4, 8, 16)),
                    "iters": rng.randint(8, max(8, iters_cap // 4)),
                }
            primitives.append(Primitive(kind, params))
        phases.append(Phase(primitives, repeats=rng.randint(1, 4)))
    return ScenarioSpec(
        name=name or f"gen-{seed & 0xFFFFFFFF:08x}",
        phases=phases,
        repeats=100_000,
        description=f"generated scenario (seed {seed})",
    )
