"""Hypothesis strategies for :class:`~repro.config.SimConfig`, built from
the config schema.

Every leaf is drawn from its annotated type and its
:class:`~repro.config.Rule` (range, choices), so a field added to
``repro.config`` with a rule is covered without touching this file.
:func:`config_st` then redraws the few fields that cross-field rules tie
together (the write log inside SSD DRAM, enough over-provisioning for
GC's spare blocks and at least one logical page, a consistent QoS
block), so every config it draws is valid.
"""

from __future__ import annotations

import math
import typing

from hypothesis import strategies as st

from repro.config import CACHELINE_SIZE, QoSConfig, SimConfig, schema

#: Draw range above a lower bound for fields with no maximum: wide
#: enough for every real config, small enough to keep draws quick.
SPAN = 1 << 30
#: Longest tuple drawn for a ``Tuple[X, ...]`` field.
MAX_ITEMS = 4


def leaf_st(kind, rule) -> st.SearchStrategy:
    """Values of one leaf: annotated ``kind`` obeying ``rule``."""
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        if args[-1] is Ellipsis:
            return st.lists(leaf_st(args[0], rule),
                            max_size=MAX_ITEMS).map(tuple)
        return st.tuples(*(leaf_st(arg, rule) for arg in args))
    if kind is bool:
        return st.booleans()
    if kind is str:
        if rule is not None and rule.choices:
            return st.sampled_from(rule.choices)
        return st.text(max_size=8)
    lo = hi = None
    exclusive = False
    if rule is not None:
        lo, hi = rule.minimum, rule.maximum
        if rule.above is not None:
            lo, exclusive = rule.above, True
    if kind is int:
        lo = -SPAN if lo is None else lo + exclusive
        return st.integers(lo, lo + SPAN if hi is None else hi)
    lo = -float(SPAN) if lo is None else lo
    return st.floats(lo, lo + SPAN if hi is None else hi,
                     exclude_min=exclusive, allow_nan=False,
                     allow_infinity=False)


def section_st(cls) -> st.SearchStrategy:
    """Instances of a config section, every field drawn from its rule."""
    return st.builds(cls, **{
        f.name: section_st(f.section) if f.section else leaf_st(f.type, f.rule)
        for f in schema(cls).fields
    })


def _qos_field(name: str, tenants: int) -> st.SearchStrategy:
    """A per-tenant QoS tuple: empty (the default) or one per tenant."""
    spec = schema(QoSConfig).by_name[name]
    item = leaf_st(typing.get_args(spec.type)[0], spec.rule)
    per_tenant = st.lists(item, min_size=tenants, max_size=tenants)
    return st.one_of(st.just(()), per_tenant.map(tuple))


@st.composite
def config_st(draw) -> SimConfig:
    """A :class:`SimConfig` that :meth:`SimConfig.validate` accepts."""
    config = draw(section_st(SimConfig))
    dram = draw(st.integers(CACHELINE_SIZE, SPAN))
    log = draw(st.integers(CACHELINE_SIZE, dram))
    if config.overprovision_floor() == math.inf:
        # GC needs more spare blocks per channel than a channel has:
        # give it at least 8 blocks per channel and campaigns of at most
        # half of them, which always leaves room.
        config = config.replace(ssd={
            "gc_free_fraction": draw(st.floats(0.0, 0.5, exclude_min=True)),
            "geometry": {"blocks_per_plane": draw(st.integers(8, 1 << 10))},
        })
    floor = config.overprovision_floor()
    overprovision = draw(st.floats(
        floor, min(floor + 4.0, config.ssd.geometry.total_pages - 1)))
    tenants = draw(st.integers(0, 3))
    partitions, base = [], 0
    for gap, pages in draw(st.lists(st.tuples(st.integers(0, 64),
                                              st.integers(0, 64)),
                                    min_size=tenants, max_size=tenants)):
        partitions.append((base + gap, pages))
        base += gap + pages
    owners = st.lists(st.integers(0, tenants - 1), max_size=MAX_ITEMS) \
        if tenants else st.just([])
    qos = {
        "partitions": tuple(partitions),
        "tenant_of_thread": tuple(draw(owners)),
        "weights": draw(_qos_field("weights", tenants)),
        "priorities": draw(_qos_field("priorities", tenants)),
    }
    return config.replace(
        ssd={"dram_bytes": dram, "write_log_bytes": log,
             "overprovision": overprovision},
        qos=qos)
