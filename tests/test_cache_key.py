"""Property-style tests for cache-key determinism and config serialization.

The result cache's correctness rests on three properties of
:meth:`SweepJob.key` and the config serialization it hashes:

* two spellings of the same resolved configuration share one key
  (otherwise identical cells re-simulate);
* perturbing any single field -- including nested SSD fields and fields
  left at their defaults -- changes the key (otherwise a config change
  could serve stale results);
* ``SimConfig.to_dict``/``from_dict`` round-trips are lossless for
  every field (otherwise workers and the cache would silently drop
  configuration).
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from config_strategies import config_st
from repro.config import FLASH_TIMINGS, T_POLICIES as POLICIES, SimConfig, scaled_config
from repro.experiments.orchestrator import SweepJob

TIMINGS = sorted(FLASH_TIMINGS)

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ssd_overrides_st = st.fixed_dictionaries(
    {},
    optional={
        "prefetch_depth": st.integers(0, 4),
        "promotion_threshold": st.integers(1, 512),
        "gc_threshold": st.floats(0.5, 0.95),
        "dirty_flush_interval_ns": st.floats(0.0, 1e6),
        "cache_ways": st.sampled_from([4, 8, 16]),
    },
)

#: run_workload keyword arguments a SweepJob can carry.  ``key()``
#: resolves the config but never simulates, so these stay cheap.
job_params_st = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(0, 2**31 - 1),
        "records_per_thread": st.integers(1, 10_000),
        "threads": st.integers(1, 48),
        "timing": st.sampled_from(TIMINGS),
        "scale": st.sampled_from([256, 512, 1024]),
        "cs_threshold_ns": st.floats(100.0, 1e6),
        "t_policy": st.sampled_from(POLICIES),
        "warmup_fraction": st.floats(0.0, 0.5),
        "ssd_overrides": ssd_overrides_st,
    },
)


def _job(params, workload="bc", variant="Base-CSSD"):
    return SweepJob.make(workload, variant, **params)


# ---------------------------------------------------------------------------
# Equal resolved configs hash equal
# ---------------------------------------------------------------------------


@COMMON_SETTINGS
@given(job_params_st)
def test_key_deterministic_across_spellings(params):
    """Same cell, different spellings: param order, name aliases, and a
    rebuilt job must all produce the identical key."""
    job = _job(params)
    reordered = dict(reversed(list(params.items())))
    assert _job(reordered) == job
    assert _job(reordered).key() == job.key()
    assert _job(copy.deepcopy(params)).key() == job.key()


@COMMON_SETTINGS
@given(job_params_st)
def test_key_ignores_workload_name_alias(params):
    params = dict(params)
    a = SweepJob.make("ycsb-b", "skybyte-full", **params)
    b = SweepJob.make("YCSB", "SkyByte-Full", **params)
    assert a.key() == b.key()


# ---------------------------------------------------------------------------
# Any single-field perturbation changes the key
# ---------------------------------------------------------------------------


def _perturb_ssd(field, bump):
    def apply(params):
        overrides = dict(params.get("ssd_overrides", {}))
        current = overrides.get(field)
        overrides[field] = bump(current)
        return {**params, "ssd_overrides": overrides}

    return apply


def _next_in(cycle, default):
    def bump(params, key):
        current = params.get(key, default)
        return cycle[(cycle.index(current) + 1) % len(cycle)]

    return bump


PERTURBATIONS = {
    "seed": lambda p: {**p, "seed": p.get("seed", 42) + 1},
    "records_per_thread": lambda p: {
        **p, "records_per_thread": p.get("records_per_thread", 3000) + 1
    },
    "threads": lambda p: {**p, "threads": p.get("threads", 8) + 13},
    "timing": lambda p: {**p, "timing": _next_in(TIMINGS, "ULL")(p, "timing")},
    "scale": lambda p: {**p, "scale": p.get("scale", 512) * 2},
    "cs_threshold_ns": lambda p: {
        **p, "cs_threshold_ns": p.get("cs_threshold_ns", 2000.0) + 1.0
    },
    "t_policy": lambda p: {
        **p, "t_policy": _next_in(POLICIES, "FAIRNESS")(p, "t_policy")
    },
    "warmup_fraction": lambda p: {
        **p, "warmup_fraction": p.get("warmup_fraction", 0.1) + 0.05
    },
    "write_log_bytes": lambda p: {
        **p, "write_log_bytes": p.get("write_log_bytes", 0) + 8192
    },
    "dram_bytes": lambda p: {**p, "dram_bytes": p.get("dram_bytes", 0) + 65536},
    "host_budget_bytes": lambda p: {
        **p, "host_budget_bytes": p.get("host_budget_bytes", 0) + 65536
    },
    "max_ns": lambda p: {**p, "max_ns": p.get("max_ns", 0.0) + 1e6},
    # Nested SSD fields, including ones usually left at their defaults.
    "ssd.prefetch_depth": _perturb_ssd(
        "prefetch_depth", lambda v: (v if v is not None else 1) + 1
    ),
    "ssd.promotion_threshold": _perturb_ssd(
        "promotion_threshold", lambda v: (v if v is not None else 24) + 1
    ),
    "ssd.gc_threshold": _perturb_ssd(
        "gc_threshold", lambda v: (v if v is not None else 0.80) / 2.0
    ),
    "ssd.dirty_flush_interval_ns": _perturb_ssd(
        "dirty_flush_interval_ns", lambda v: (v if v is not None else 1e5) + 7.0
    ),
    "ssd.cache_ways": _perturb_ssd(
        "cache_ways", lambda v: (v if v is not None else 16) * 2
    ),
}


@COMMON_SETTINGS
@given(job_params_st, st.sampled_from(sorted(PERTURBATIONS)))
def test_single_field_perturbation_changes_key(params, field):
    base = _job(params)
    perturbed = _job(PERTURBATIONS[field](params))
    assert perturbed.key() != base.key(), field


def test_workload_and_variant_change_key():
    base = SweepJob.make("bc", "Base-CSSD", records_per_thread=50)
    assert SweepJob.make("ycsb", "Base-CSSD",
                         records_per_thread=50).key() != base.key()
    assert SweepJob.make("bc", "SkyByte-Full",
                         records_per_thread=50).key() != base.key()


# ---------------------------------------------------------------------------
# to_dict / from_dict round-trips are lossless
# ---------------------------------------------------------------------------

@COMMON_SETTINGS
@given(config_st())
def test_simconfig_round_trip_lossless(config):
    data = json.loads(json.dumps(config.to_dict()))
    rebuilt = SimConfig.from_dict(data)
    assert rebuilt == config
    # And canonical JSON is a fixed point (byte-identical re-serialization).
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
        config.to_dict(), sort_keys=True
    )


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    else:
        yield prefix, node


def _set_path(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _perturb_leaf(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.5
    if isinstance(value, str):
        return value + "_x"
    raise AssertionError(f"unexpected leaf type {type(value)!r}")


def test_every_config_leaf_survives_round_trip():
    """Perturb each leaf of the serialized config independently and check
    from_dict preserves it -- catches from_dict silently dropping or
    defaulting any (possibly nested) field."""
    base = scaled_config().to_dict()
    leaves = list(_leaf_paths(base))
    assert len(leaves) > 40  # the whole Table II surface, not a stub
    for path, value in leaves:
        perturbed = copy.deepcopy(base)
        _set_path(perturbed, path, _perturb_leaf(value))
        rebuilt = SimConfig.from_dict(perturbed).to_dict()
        assert rebuilt == perturbed, f"field {'.'.join(path)} not preserved"
        assert rebuilt != base
