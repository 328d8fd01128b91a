"""Design-variant registry (§VI-A and §VI-H).

Each paper design is a combination of three SkyByte mechanisms plus the
migration-policy and host-organisation alternatives of §VI-H:

========================  =========  =========  ==========  ============
name                      write log  promotion  ctx switch  notes
========================  =========  =========  ==========  ============
Base-CSSD                 no         no         no          baseline
SkyByte-P                 no         yes        no
SkyByte-C                 no         no         yes
SkyByte-W                 yes        no         no
SkyByte-CP                no         yes        yes
SkyByte-WP                yes        yes        no
SkyByte-Full              yes        yes        yes         the paper's SkyByte
DRAM-Only                 --         --         --          infinite host DRAM ideal
SkyByte-CT                no         yes (TPP)  yes         §VI-H
SkyByte-WCT               yes        yes (TPP)  yes         §VI-H
AstriFlash-CXL            no         host cache user-level   §VI-H
========================  =========  =========  ==========  ============

These map one-to-one onto the artifact's configuration knobs
(``write_log_enable``, ``promotion_enable``, ``device_triggered_ctx_swt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import SimConfig


@dataclass(frozen=True)
class DesignVariant:
    """One evaluated system design."""

    name: str
    write_log: bool = False
    promotion: bool = False
    ctx_switch: bool = False
    migration_mechanism: str = "skybyte"  # "skybyte" | "tpp" | "none"
    astriflash: bool = False
    dram_only: bool = False
    #: Flash device-model kind to force ("deep"); "" keeps whatever the
    #: config already selects (so the flat default stays untouched).
    device_model: str = ""

    def apply(self, config: SimConfig) -> SimConfig:
        """Return ``config`` with this variant's knobs set."""
        mechanism = self.migration_mechanism if self.promotion else "none"
        config = config.replace(dram_only=self.dram_only, skybyte={
            "write_log_enable": self.write_log,
            "promotion_enable": self.promotion,
            "device_triggered_ctx_swt": self.ctx_switch,
            "migration_mechanism": mechanism,
            "astriflash": self.astriflash,
        })
        if self.device_model:
            config = config.replace(device_model={"kind": self.device_model})
        return config

    def default_threads(self, cores: int) -> int:
        """The paper runs 24 threads on 8 cores when context switching is
        enabled (so switches have somewhere to go) and threads == cores
        otherwise ("more threads will not improve the performance")."""
        if self.ctx_switch or self.astriflash:
            return cores * 3
        return cores


VARIANTS: Dict[str, DesignVariant] = {
    "Base-CSSD": DesignVariant("Base-CSSD"),
    "SkyByte-P": DesignVariant("SkyByte-P", promotion=True),
    "SkyByte-C": DesignVariant("SkyByte-C", ctx_switch=True),
    "SkyByte-W": DesignVariant("SkyByte-W", write_log=True),
    "SkyByte-CP": DesignVariant("SkyByte-CP", promotion=True, ctx_switch=True),
    "SkyByte-WP": DesignVariant("SkyByte-WP", write_log=True, promotion=True),
    "SkyByte-Full": DesignVariant(
        "SkyByte-Full", write_log=True, promotion=True, ctx_switch=True
    ),
    "DRAM-Only": DesignVariant("DRAM-Only", dram_only=True),
    "SkyByte-CT": DesignVariant(
        "SkyByte-CT", promotion=True, ctx_switch=True, migration_mechanism="tpp"
    ),
    "SkyByte-WCT": DesignVariant(
        "SkyByte-WCT",
        write_log=True,
        promotion=True,
        ctx_switch=True,
        migration_mechanism="tpp",
    ),
    "AstriFlash-CXL": DesignVariant("AstriFlash-CXL", astriflash=True),
}

#: Fig. 14's plotting order.
MAIN_VARIANTS: List[str] = [
    "Base-CSSD",
    "SkyByte-P",
    "SkyByte-C",
    "SkyByte-W",
    "SkyByte-CP",
    "SkyByte-WP",
    "SkyByte-Full",
    "DRAM-Only",
]

#: Fig. 23's plotting order.
MIGRATION_VARIANTS: List[str] = [
    "SkyByte-C",
    "AstriFlash-CXL",
    "SkyByte-CT",
    "SkyByte-CP",
    "SkyByte-WCT",
    "SkyByte-Full",
]


#: Lowercased lookup so CLI spellings like ``skybyte-full`` resolve.
_VARIANTS_FOLDED: Dict[str, DesignVariant] = {
    name.lower(): variant for name, variant in VARIANTS.items()
}


def canonical_variant(name: str) -> str:
    """Map a variant name (case-insensitive) to its registry key."""
    return get_variant(name).name


def get_variant(name: str) -> DesignVariant:
    try:
        return _VARIANTS_FOLDED[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown design variant {name!r}; available: {sorted(VARIANTS)}"
        ) from None
