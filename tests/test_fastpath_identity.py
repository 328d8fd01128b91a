"""The vectorized hot path must be an *exact* optimization.

Every fast path behind :mod:`repro.sim.fastpath` — same-epoch event
coalescing, window-plan precomputation with cursor rewind, the batched
DRAM-only and CXL-SSD window loops, lazy MSHR retirement, and the
trace / precondition memos — claims bit-identical results to the scalar
reference.  This suite pins that claim: each Table I scenario simulates
under both forced modes and the canonical ``RunResult.to_dict()`` JSON
must match byte for byte, for every device variant, both device models,
and colocated (per-tenant attributed, optionally QoS-isolated) runs.

The vector output is also checked against a frozen SHA-256 per cell
(``tests/golden/identity_digests.json``), so the suite still pins exact
results once the scalar reference path is gone.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.colocation import run_colocation
from repro.experiments.runner import run_workload
from repro.scenarios import scenario_names
from repro.scenarios.colocate import Tenant
from repro.sim import fastpath

TAB1 = sorted(n for n in scenario_names() if n.startswith("tab1-"))
RECORDS = 300

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                       "identity_digests.json")
with open(_GOLDEN, encoding="utf-8") as _fh:
    FROZEN = json.load(_fh)["digests"]


def _assert_frozen(key, canonical):
    got = hashlib.sha256(canonical.encode()).hexdigest()
    assert got == FROZEN[key], f"{key}: result moved from its frozen digest"


def _canonical(workload, variant, **kwargs):
    result = run_workload(workload, variant, records_per_thread=RECORDS,
                          seed=42, **kwargs)
    return json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def _both_modes(workload, variant, **kwargs):
    with fastpath.forced_mode("scalar"):
        scalar = _canonical(workload, variant, **kwargs)
    with fastpath.forced_mode("vector"):
        vector = _canonical(workload, variant, **kwargs)
    device_model = kwargs.get("device_model", "flat")
    _assert_frozen(f"{workload}|{variant}|{device_model}", vector)
    return scalar, vector


def test_all_seven_table1_scenarios_present():
    assert len(TAB1) == 7, TAB1


@pytest.mark.parametrize("scenario", TAB1)
def test_vectorized_identity_base_cssd(scenario):
    scalar, vector = _both_modes(scenario, "Base-CSSD")
    assert scalar == vector, f"{scenario}: vectorized run diverged"


@pytest.mark.parametrize("scenario", TAB1)
def test_vectorized_identity_dram_only(scenario):
    """DRAM-Only exercises the batched window inner loop."""
    scalar, vector = _both_modes(scenario, "DRAM-Only")
    assert scalar == vector, f"{scenario}: vectorized run diverged"


@pytest.mark.parametrize("scenario", ["tab1-ycsb", "tab1-srad"])
def test_vectorized_identity_skybyte_full(scenario):
    """SkyByte-Full exercises the device trigger, write log, and lazy
    MSHR retirement on top of the batched window loop."""
    scalar, vector = _both_modes(scenario, "SkyByte-Full")
    assert scalar == vector, f"{scenario}: vectorized run diverged"


@pytest.mark.parametrize("variant", [
    # Delay hints on the Base controller: context switches with no
    # write log.
    "SkyByte-C",
    # Promotion plus switching: promoted host-DRAM hits interleave with
    # hinted CXL accesses inside one window.
    "SkyByte-CP",
    # Write log and promotion, no switching.
    "SkyByte-WP",
    # Stays on per-access memory_access (its controller owns the link).
    "AstriFlash-CXL",
])
@pytest.mark.parametrize("scenario", ["tab1-ycsb", "tab1-srad"])
def test_vectorized_identity_device_variants(scenario, variant):
    scalar, vector = _both_modes(scenario, variant)
    assert scalar == vector, f"{scenario} x {variant}: vectorized run diverged"


@pytest.mark.parametrize("scenario", ["tab1-bc", "tab1-ycsb"])
def test_vectorized_identity_deep_device_model(scenario):
    """The deep device model (geometry routing, plane queues, background
    GC) must stay bit-identical under vectorization too -- its flash
    completions feed the same event stream both modes coalesce."""
    scalar, vector = _both_modes(scenario, "SkyByte-Full",
                                 device_model="deep")
    assert scalar == vector, f"{scenario}: deep-model vectorized run diverged"


@pytest.mark.parametrize("scenario", ["tab1-bc", "tab1-ycsb"])
def test_vectorized_identity_deep_base_cssd(scenario):
    scalar, vector = _both_modes(scenario, "Base-CSSD", device_model="deep")
    assert scalar == vector, f"{scenario}: deep-model vectorized run diverged"


def _colocated(isolation):
    """Canonical global and per-tenant stats of a 2-tenant colocation."""
    tenants = [
        Tenant(name="web", scenario="web-tier", threads=2, seed=7),
        Tenant(name="ingest", scenario="log-ingest", threads=2, seed=8),
    ]
    # Unequal priorities, or "priority" isolation would rank no tenant.
    priorities = (1, 0) if isolation == "priority" else None
    system = run_colocation(tenants, variant="SkyByte-Full",
                            records_per_thread=RECORDS, isolation=isolation,
                            priorities=priorities)
    return json.dumps(
        [system.stats.to_dict()] + [s.to_dict() for s in system.tenant_stats]
        + [system.tenant_end_ns],
        sort_keys=True, separators=(",", ":"),
    )


@pytest.mark.parametrize("isolation", [
    "none", "wfq", "priority",
    # The controller read path routes through the per-tenant write-log
    # shares and data-cache quotas.
    "log-partition", "cache-quota",
])
def test_vectorized_identity_colocation(isolation):
    """Per-tenant attribution (the window loop's access mirror), QoS host
    scheduling and the partitioned SSD DRAM must match the per-access
    scalar path."""
    with fastpath.forced_mode("scalar"):
        scalar = _colocated(isolation)
    with fastpath.forced_mode("vector"):
        vector = _colocated(isolation)
    assert scalar == vector, f"colocation ({isolation}) diverged"
    _assert_frozen(f"colocation|{isolation}", vector)
