"""The config schema: one rule per field, one decoder, one validate().

Properties over configs drawn from the schema itself
(:mod:`config_strategies`), then the entry points that must reject a
bad config before it is keyed or run: the library API, ``.sbt`` replay
and the ``REPRO_RECORDS`` default of the CLI verbs.
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing

import pytest
from hypothesis import HealthCheck, given, settings

from config_strategies import config_st
from repro import run_workload
from repro.cli import main
from repro.config import SimConfig, scaled_config, schema
from repro.scenarios.tracefile import read_tracefile, write_tracefile

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: Fewer draws per case where every field or section is its own case.
PER_FIELD = settings(SETTINGS, max_examples=5)


def _leaves(cls=SimConfig, prefix=""):
    """``(dotted path, FieldSpec)`` of every leaf field."""
    for spec in schema(cls).fields:
        if spec.section is not None:
            yield from _leaves(spec.section, f"{prefix}{spec.name}.")
        else:
            yield prefix + spec.name, spec


def _sections(cls=SimConfig, prefix=""):
    """Dotted path of every section, the top level as ``""``."""
    yield prefix
    for spec in schema(cls).fields:
        if spec.section is not None:
            yield from _sections(spec.section, f"{prefix}{spec.name}.")


def _nested(path: str, value: object) -> dict:
    """``{"a": {"b": value}}`` for ``"a.b"``."""
    *sections, leaf = path.split(".")
    change: dict = {leaf: value}
    for name in reversed(sections):
        change = {name: change}
    return change


def _outside(kind, rule):
    """Values just outside ``rule`` (or of the wrong kind) for a leaf."""
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        if args[-1] is Ellipsis:
            return [(bad,) for bad in _outside(args[0], rule)]
        return [tuple(bad for _ in args) for bad in _outside(args[0], rule)]
    if kind is bool:
        return [1, "yes"]
    if kind is str:
        return [7] + ([rule.choices[0] + "_x"] if rule and rule.choices else [])
    values = ["1"]
    if kind is float:
        values += [math.nan, math.inf]
    else:
        values += [1.5, True]
    if rule is None:
        return values
    if rule.minimum is not None:
        values.append(rule.minimum - 1 if kind is int
                      else math.nextafter(rule.minimum, -math.inf))
    if rule.above is not None:
        values.append(rule.above)
    if rule.maximum is not None:
        values.append(rule.maximum + 1 if kind is int
                      else math.nextafter(rule.maximum, math.inf))
    return values


LEAVES = dict(_leaves())
SECTIONS = list(_sections())


# -- properties ----------------------------------------------------------------


@SETTINGS
@given(config_st())
def test_every_drawn_config_is_valid(config):
    assert config.validate() is config


@pytest.mark.parametrize("path", sorted(LEAVES))
@PER_FIELD
@given(config_st())
def test_a_value_outside_its_rule_is_rejected_naming_the_field(path, config):
    spec = LEAVES[path]
    for bad in _outside(spec.type, spec.rule):
        with pytest.raises(ValueError) as info:
            config.replace(**_nested(path, bad)).validate()
        assert str(info.value).startswith(path), (bad, str(info.value))


@pytest.mark.parametrize("section", SECTIONS)
@PER_FIELD
@given(config_st())
def test_an_unknown_key_at_any_depth_is_rejected_naming_it(section, config):
    path = section + "bogus"
    data = config.to_dict()
    node = data
    for name in section.split(".")[:-1]:
        node = node.setdefault(name, {})
    node["bogus"] = 1
    with pytest.raises(ValueError, match=f"^{path} is not a config field"):
        SimConfig.from_dict(data)
    with pytest.raises(ValueError, match=f"^{path} is not a config field"):
        config.replace(**_nested(path, 1))


def test_a_field_without_a_default_must_be_given():
    data = scaled_config().to_dict()
    del data["ssd"]["timing"]["read_ns"]
    with pytest.raises(ValueError, match=r"^ssd\.timing\.read_ns is missing"):
        SimConfig.from_dict(data)


def test_a_section_may_not_have_post_init():
    @dataclasses.dataclass(frozen=True)
    class Checked:
        x: int = 0

        def __post_init__(self):
            pass

    with pytest.raises(TypeError, match="__post_init__"):
        schema(Checked)


def test_replace_lays_a_mapping_over_a_section():
    config = scaled_config()
    changed = config.replace(ssd={"dram_bytes": 1 << 20,
                                  "geometry": {"channels": 4}})
    assert changed.ssd.dram_bytes == 1 << 20
    assert changed.ssd.geometry.channels == 4
    assert changed.ssd.geometry.pages_per_block == (
        config.ssd.geometry.pages_per_block)
    assert changed.ssd.write_log_bytes == config.ssd.write_log_bytes


@pytest.mark.parametrize("change, path", [
    ({"ssd": {"write_log_bytes": 1 << 30}}, "ssd.write_log_bytes"),
    ({"ssd": {"overprovision": 1e12}}, "ssd.overprovision"),
    ({"qos": {"partitions": ((0, 8), (8, 8)), "weights": (1.0,)}},
     "qos.weights"),
    ({"qos": {"partitions": ((0, 8),), "priorities": (1, 2)}},
     "qos.priorities"),
    ({"qos": {"partitions": ((0, 8),), "tenant_of_thread": (0, 1)}},
     "qos.tenant_of_thread[1]"),
    ({"qos": {"partitions": ((0, 8), (4, 8))}}, "qos.partitions"),
])
def test_cross_field_rules_name_the_field(change, path):
    with pytest.raises(ValueError, match="^" + re.escape(path)):
        scaled_config().replace(**change).validate()


@pytest.mark.parametrize("kind", ["flat", "deep"])
def test_overprovision_below_the_gc_floor_is_rejected(kind):
    config = scaled_config().replace(device_model={"kind": kind})
    floor = config.overprovision_floor()
    assert 0.0 < floor < config.ssd.overprovision  # the default has room
    below = config.replace(ssd={"overprovision": math.nextafter(floor, 0.0)})
    with pytest.raises(ValueError, match=(
            rf"^ssd\.overprovision must leave the {config.gc_spare_blocks()} "
            rf"spare block\(s\) .* at least {re.escape(repr(floor))}, not")):
        below.validate()
    config.replace(ssd={"overprovision": floor}).validate()


@pytest.mark.parametrize("kind", ["flat", "deep"])
@pytest.mark.parametrize("workload", ["bc", "tpcc"])
def test_the_smallest_accepted_overprovision_runs(kind, workload):
    floor = scaled_config().replace(
        device_model={"kind": kind}).overprovision_floor()
    result = run_workload(workload, "SkyByte-Full", records_per_thread=300,
                          ssd_overrides={"overprovision": floor},
                          device_model=kind)
    assert result.stats.execution_ns > 0


# -- entry points ----------------------------------------------------------------


BAD_CELLS = [
    ({"dram_bytes": -1}, "ssd.dram_bytes"),
    ({"write_log_bytes": 0}, "ssd.write_log_bytes"),
    ({"warmup_fraction": 2.0}, "warmup_fraction"),
    ({"ssd_overrides": {"gc_threshold": 1.5}}, "ssd.gc_threshold"),
    ({"ssd_overrides": {"nope": 1}}, "ssd.nope"),
    ({"max_ns": 0}, "max_ns"),
    ({"max_ns": -5.0}, "max_ns"),
    ({"max_ns": math.inf}, "max_ns"),
    ({"max_ns": math.nan}, "max_ns"),
    # a run cut before its threads finish measures no execution time
    ({"max_ns": 1}, "max_ns"),
    # too little spare flash for GC: OutOfSpaceError mid-run, unchecked
    ({"ssd_overrides": {"overprovision": 0.01}}, "ssd.overprovision"),
    ({"ssd_overrides": {"overprovision": 0.0}}, "ssd.overprovision"),
]


@pytest.mark.parametrize("kwargs, path", BAD_CELLS)
def test_run_workload_rejects_a_bad_cell_naming_the_field(kwargs, path):
    with pytest.raises(ValueError, match=f"^{path} "):
        run_workload("bc", "SkyByte-Full", records_per_thread=300, **kwargs)


def _laid_over(data: dict, change: dict) -> dict:
    """A copy of the JSON ``data`` with ``change`` merged in at depth."""
    merged = dict(data)
    for key, value in change.items():
        merged[key] = (_laid_over(data.get(key, {}), value)
                       if isinstance(value, dict) else value)
    return merged


@pytest.fixture(scope="module")
def good_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("sbt") / "good.sbt"
    assert main(["trace", "gen", "web-tier", "--threads", "1",
                 "--records", "20", "-o", str(path)]) == 0
    return read_tracefile(path)


@pytest.mark.parametrize("change, path", [
    ({"ssd": {"dram_bytes": -1}}, "ssd.dram_bytes"),
    ({"ssd": {"write_log_bytes": 0}}, "ssd.write_log_bytes"),
    ({"warmup_fraction": 2.0}, "warmup_fraction"),
    ({"ssd": {"gc_threshold": 1.5}}, "ssd.gc_threshold"),
    ({"ssd": {"bogus": 1}}, "ssd.bogus"),
    ({"ssd": {"geometry": {"nope": 1}}}, "ssd.geometry.nope"),
])
def test_trace_replay_of_a_bad_embedded_config_exits_2(
        good_trace, tmp_path, capsys, change, path):
    meta, traces = good_trace
    bad = tmp_path / "bad.sbt"
    write_tracefile(bad, traces,
                    {**meta, "config": _laid_over(meta["config"], change)})
    capsys.readouterr()
    assert main(["trace", "replay", str(bad), "--no-cache"]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "bc", "Base-CSSD", "--no-cache"],
    ["profile", "bc", "Base-CSSD"],
    ["sweep", "--workloads", "bc", "--variants", "Base-CSSD", "--no-cache"],
], ids=["run", "profile", "sweep"])
@pytest.mark.parametrize("raw", ["0", "abc"])
def test_a_bad_repro_records_exits_2_naming_it(monkeypatch, tmp_path, capsys,
                                               argv, raw):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_RECORDS", raw)
    assert main(argv) == 2
    assert "REPRO_RECORDS" in capsys.readouterr().err
