"""Scenario DSL: validation, serialisation, compilation, job identity.

The DSL is the repo's first externally-fed workload source, so its
contracts are load-bearing: a spec must reject bad input with
:class:`ConfigError` at the surface (never an assert deep in the
assembler), round-trip its serialised form exactly, compile
deterministically, and produce stable engine job identity (cache key /
journal key) — otherwise the result cache could serve a stale result
for an edited scenario or recompute an unchanged one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.harness.engine import SimJob, make_job
from repro.harness.journal import job_key
from repro.scenarios import (
    CATALOG,
    Phase,
    Primitive,
    ScenarioSpec,
    generate_scenario,
    materialize_workload,
    resolve_job_source,
)
from repro.workloads.registry import BENCHMARK_NAMES

# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _stride(iters=16, **kw):
    return Primitive("stride", {"iters": iters, **kw})


class TestValidation:
    def test_unknown_primitive_kind(self):
        with pytest.raises(ConfigError, match="unknown scenario primitive"):
            Primitive("teleport", {})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            Primitive("stride", {"itres": 16})

    def test_out_of_range_parameter(self):
        with pytest.raises(ConfigError, match="out of range"):
            Primitive("stride", {"iters": 0})
        with pytest.raises(ConfigError, match="out of range"):
            Primitive("stride", {"stride": 1000})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="must be an int"):
            Primitive("stride", {"iters": True})

    def test_enum_parameter(self):
        with pytest.raises(ConfigError, match="must be one of"):
            Primitive("pointer_chase", {"layout": "spiral"})

    def test_hash_walk_table_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            Primitive("hash_walk", {"table_words": 3000})

    def test_defaults_fill_in(self):
        prim = Primitive("stride", {})
        assert prim.params["iters"] == 256
        assert prim.params["stride"] == 8

    def test_phase_needs_primitives(self):
        with pytest.raises(ConfigError, match="at least one primitive"):
            Phase([])

    def test_spec_needs_phases(self):
        with pytest.raises(ConfigError, match="at least one phase"):
            ScenarioSpec(name="empty", phases=[])

    def test_bad_names_rejected(self):
        for bad in ("", "Has-Caps", "0starts-digit", "a b", "x" * 80,
                    "colon:name"):
            with pytest.raises(ConfigError, match="invalid"):
                ScenarioSpec(
                    name=bad, phases=[Phase([_stride()])]
                )

    @pytest.mark.parametrize("taken", BENCHMARK_NAMES[:3] + ["mcf"])
    def test_builtin_name_collision_rejected(self, taken):
        """A scenario may never shadow a registry benchmark: the name is
        the figure row / cache group identity."""
        with pytest.raises(ConfigError, match="collides with a built-in"):
            ScenarioSpec(name=taken, phases=[Phase([_stride()])])

    def test_from_dict_rejects_unknown_keys(self):
        raw = CATALOG["stride-flip"].to_dict()
        raw["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(raw)

    def test_from_dict_rejects_future_version(self):
        raw = CATALOG["stride-flip"].to_dict()
        raw["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            ScenarioSpec.from_dict(raw)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ScenarioSpec.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ScenarioSpec.load(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# Serialisation and compilation.
# ---------------------------------------------------------------------------


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_round_trip(self, name):
        spec = CATALOG[name]
        raw = spec.to_dict()
        again = ScenarioSpec.from_dict(json.loads(json.dumps(raw)))
        assert again.to_dict() == raw

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_builds_deterministically(self, name):
        a = CATALOG[name].build(seed=1)
        b = CATALOG[name].build(seed=1)
        assert a.program.instructions == b.program.instructions
        assert a.memory.words() == b.memory.words()
        assert a.kind == "scenario"

    def test_save_load(self, tmp_path):
        spec = CATALOG["hash-churn"]
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path).to_dict() == spec.to_dict()


class TestResolution:
    def test_catalog_reference(self):
        name, scenario, trace = resolve_job_source("scenario:ramp-chase")
        assert name == "ramp-chase"
        assert scenario == CATALOG["ramp-chase"].to_dict()
        assert trace is None

    def test_file_reference(self, tmp_path):
        path = tmp_path / "mine.json"
        generate_scenario(5, name="mine").save(path)
        name, scenario, trace = resolve_job_source(f"scenario:{path}")
        assert name == "mine"
        assert trace is None

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            resolve_job_source("scenario:no-such-thing")

    def test_builtin_passthrough(self):
        assert resolve_job_source("mcf") == ("mcf", None, None)

    def test_spec_object(self):
        spec = CATALOG["object-walk"]
        assert resolve_job_source(spec) == (
            spec.name, spec.to_dict(), None
        )

    def test_materialize_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            materialize_workload(None, None)


# ---------------------------------------------------------------------------
# Engine identity: the satellite property test.
# ---------------------------------------------------------------------------

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestJobIdentity:
    @given(seed=_seeds)
    @settings(max_examples=60, deadline=None)
    def test_generated_scenarios_round_trip(self, seed):
        """Every generated scenario round-trips to_dict/from_dict byte-
        exactly (including through a JSON encode/decode cycle)."""
        spec = generate_scenario(seed)
        raw = spec.to_dict()
        again = ScenarioSpec.from_dict(json.loads(json.dumps(raw)))
        assert again.to_dict() == raw
        assert again.canonical_json() == spec.canonical_json()

    @given(seed=_seeds)
    @settings(max_examples=60, deadline=None)
    def test_generated_scenarios_have_stable_job_key(self, seed):
        """make_job on a spec and on its serialised twin produce the
        same cache/journal identity, and builtin jobs' spec layout is
        untouched (no scenario/trace keys)."""
        spec = generate_scenario(seed)
        job = make_job(spec, max_instructions=2_000)
        twin = make_job(
            ScenarioSpec.from_dict(spec.to_dict()), max_instructions=2_000
        )
        assert job.spec() == twin.spec()
        assert job_key(job.spec()) == job_key(twin.spec())
        # and through the journal's to_dict/from_dict rebuild:
        rebuilt = SimJob.from_dict(job.to_dict())
        assert job_key(rebuilt.spec()) == job_key(job.spec())
        assert rebuilt.scenario == job.scenario

    @given(seed=_seeds)
    @settings(max_examples=30, deadline=None)
    def test_generation_is_deterministic(self, seed):
        assert (
            generate_scenario(seed).to_dict()
            == generate_scenario(seed).to_dict()
        )

    def test_builtin_spec_layout_unchanged(self):
        """Adding the scenario/trace fields must not move any existing
        journal or cache key: builtin specs carry no new keys."""
        spec = make_job("mcf", max_instructions=2_000).spec()
        assert "scenario" not in spec
        assert "trace" not in spec

    def test_distinct_specs_distinct_keys(self):
        a = make_job(CATALOG["stride-flip"], max_instructions=2_000)
        b = make_job(CATALOG["hash-churn"], max_instructions=2_000)
        assert job_key(a.spec()) != job_key(b.spec())

    def test_group_carries_the_reference(self):
        job = make_job("scenario:stride-flip", max_instructions=2_000)
        assert job.workload == "stride-flip"
        assert job.group == "scenario:stride-flip"
        assert job.source == "scenario"
