"""Every simulator result is pinned to a frozen digest.

``tests/golden/identity_digests.json`` holds the SHA-256 of the
canonical ``RunResult.to_dict()`` JSON of all 154 Table I cells (7
scenarios x 11 design variants x {flat, deep} device model) and of five
colocated (per-tenant attributed, optionally QoS-isolated) runs.  The
digests were recorded while a per-access scalar reference path still ran
next to the window path and agreed with it (the file's ``about`` names
the two cells where they did not, and why), so a change to the one hot
path that moves any result fails here.

The named tests below are the cells pinned first; ``test_frozen_digest``
covers every other Table I cell.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.colocation import run_colocation
from repro.experiments.runner import run_workload
from repro.scenarios import scenario_names
from repro.scenarios.colocate import Tenant
from repro.variants import VARIANTS

TAB1 = sorted(n for n in scenario_names() if n.startswith("tab1-"))
RECORDS = 300

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                       "identity_digests.json")
with open(_GOLDEN, encoding="utf-8") as _fh:
    FROZEN = json.load(_fh)["digests"]

#: Table I cells with a named test below.
_NAMED = (
    {f"{s}|{v}|flat" for s in TAB1 for v in ("Base-CSSD", "DRAM-Only")}
    | {f"{s}|{v}|flat" for s in ("tab1-ycsb", "tab1-srad")
       for v in ("SkyByte-Full", "SkyByte-C", "SkyByte-CP", "SkyByte-WP",
                 "AstriFlash-CXL")}
    | {f"{s}|{v}|deep" for s in ("tab1-bc", "tab1-ycsb")
       for v in ("SkyByte-Full", "Base-CSSD")}
)
_OTHER = sorted(
    f"{s}|{v}|{m}" for s in TAB1 for v in VARIANTS for m in ("flat", "deep")
    if f"{s}|{v}|{m}" not in _NAMED
)


def _assert_frozen(key, canonical):
    got = hashlib.sha256(canonical.encode()).hexdigest()
    assert got == FROZEN[key], f"{key}: result moved from its frozen digest"


def _check(workload, variant, device_model="flat"):
    result = run_workload(workload, variant, records_per_thread=RECORDS,
                          seed=42, device_model=device_model)
    canonical = json.dumps(result.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    _assert_frozen(f"{workload}|{variant}|{device_model}", canonical)


def test_all_seven_table1_scenarios_present():
    assert len(TAB1) == 7, TAB1
    assert len(_NAMED) + len(_OTHER) == 154
    assert set(_NAMED) | set(_OTHER) == {
        k for k in FROZEN if not k.startswith("colocation|")
    }


@pytest.mark.parametrize("key", _OTHER)
def test_frozen_digest(key):
    _check(*key.split("|"))


@pytest.mark.parametrize("scenario", TAB1)
def test_vectorized_identity_base_cssd(scenario):
    _check(scenario, "Base-CSSD")


@pytest.mark.parametrize("scenario", TAB1)
def test_vectorized_identity_dram_only(scenario):
    """DRAM-Only runs the host-DRAM window loop."""
    _check(scenario, "DRAM-Only")


@pytest.mark.parametrize("scenario", ["tab1-ycsb", "tab1-srad"])
def test_vectorized_identity_skybyte_full(scenario):
    """SkyByte-Full exercises the device trigger, the write log and the
    controller's in-flight fetch table on the window loop."""
    _check(scenario, "SkyByte-Full")


@pytest.mark.parametrize("variant", [
    # Delay hints on the Base controller: context switches with no
    # write log.
    "SkyByte-C",
    # Promotion plus switching: promoted host-DRAM hits interleave with
    # hinted CXL accesses inside one window.
    "SkyByte-CP",
    # Write log and promotion, no switching.
    "SkyByte-WP",
    # Its controller owns the link and the host-DRAM page cache.
    "AstriFlash-CXL",
])
@pytest.mark.parametrize("scenario", ["tab1-ycsb", "tab1-srad"])
def test_vectorized_identity_device_variants(scenario, variant):
    _check(scenario, variant)


@pytest.mark.parametrize("scenario", ["tab1-bc", "tab1-ycsb"])
def test_vectorized_identity_deep_device_model(scenario):
    """The deep device model: geometry routing, plane queues and
    background GC feed the same event stream."""
    _check(scenario, "SkyByte-Full", "deep")


@pytest.mark.parametrize("scenario", ["tab1-bc", "tab1-ycsb"])
def test_vectorized_identity_deep_base_cssd(scenario):
    _check(scenario, "Base-CSSD", "deep")


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
    scheduling and the partitioned SSD DRAM."""
    _assert_frozen(f"colocation|{isolation}", _colocated(isolation))
