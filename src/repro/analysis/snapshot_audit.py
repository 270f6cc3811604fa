"""Snapshot-completeness audit (check 5 of the static verifier).

PR 7's persistent-serving invariant is *"anything the snapshot misses
breaks serving"*: :meth:`~repro.sim.cosim.CosimFabric.snapshot` /
``restore`` must round-trip **every** mutable field of the fabric object
graph, or a resident fabric diverges bitwise from a fresh elaboration
after the first request.  That completeness used to be enforced only by
the resident==fresh differential oracle; this module turns it into a
checkable structural property.

The audit walks the live fabric object graph by reflection and checks
every instance attribute it finds against a per-class **coverage
manifest** that classifies each attribute as one of:

* ``covered`` -- captured by ``snapshot()`` and rewound by ``restore()``;
* ``reset`` -- transient run state that ``restore()`` reinitialises to a
  constant (so a snapshot need not carry it);
* ``config`` -- elaboration-time state that never mutates during a run
  (rules, schedules, generated modules, layouts, platform parameters);
* ``cache`` -- memoisation that is semantically transparent (rebuilding it
  yields the same values, e.g. the fabric's owner-store resolution);
* ``children`` -- owned sub-objects the audit recurses into.

An attribute present on a live object but absent from its class manifest
is exactly the failure mode the differential oracle catches too late: a
new mutable field somebody forgot to add to ``snapshot()``.  The audit
reports it as ``REPRO-E008`` *by name*, before any simulation runs.  As a
second guard, classes whose manifest pins a snapshot arity are checked
against the live ``snapshot()`` tuple (``REPRO-E009``) -- the positional
restore protocol silently mis-zips if the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

from repro.analysis.diagnostics import Diagnostic
from repro.core.scheduler import RuleWakeup, WakingStore
from repro.core.types import RawStruct
from repro.platform.channel import (
    ChannelDirection,
    ChannelStats,
    DuplexChannel,
    Link,
    MessagePool,
    Topology,
)
from repro.platform.libdn import VirtualChannel, VirtualChannelStats, VirtualChannelTable
from repro.sim.cosim import CosimFabric, Cosimulator, _GroupFabric
from repro.sim.hwsim import HwEngine
from repro.sim.swsim import SwEngine


@dataclass(frozen=True)
class CoverageSpec:
    """The audited classification of one class's instance attributes."""

    covered: FrozenSet[str] = frozenset()
    reset: FrozenSet[str] = frozenset()
    config: FrozenSet[str] = frozenset()
    cache: FrozenSet[str] = frozenset()
    children: FrozenSet[str] = frozenset()
    #: Expected ``len(obj.snapshot())``, or ``None`` when the class has no
    #: snapshot method of its own (its state rides a parent's snapshot).
    snapshot_arity: Optional[int] = None

    def known(self) -> FrozenSet[str]:
        return self.covered | self.reset | self.config | self.cache | self.children


def _spec(**kwargs) -> CoverageSpec:
    for key in ("covered", "reset", "config", "cache", "children"):
        if key in kwargs:
            kwargs[key] = frozenset(kwargs[key])
    return CoverageSpec(**kwargs)


#: class -> coverage spec.  Subclasses merge every spec on their MRO, so a
#: wrapper like :class:`Cosimulator` only declares its own extra fields.
MANIFEST: Dict[Type, CoverageSpec] = {
    CosimFabric: _spec(
        covered={"now", "_initial_values", "_last_observed"},
        reset={"_active_group", "_observing", "_read_overrides"},
        config={
            "design",
            "platform",
            "config",
            "burst",
            "backend",
            "partitioning",
            "engine_kinds",
            "domains",
            "_routes",
            "_delivery_routes",
            "_delivery_dsts",
            "_pump_fns",
            "_deliver_fns",
            "_default_store",
            "_group_index",
            "_store_group",
            "_vc_keys",
            "_builder_spec",
        },
        cache={"_owner_store"},
        children={"engines", "topology", "vcs", "_groups"},
        snapshot_arity=7,
    ),
    Cosimulator: _spec(
        config={"hw_domain", "sw_domain", "hw", "sw", "store_hw", "store_sw"},
        children={"channel"},
    ),
    _GroupFabric: _spec(
        covered={"now"},  # the per-group clock rides the fabric snapshot
        config={
            "fabric",
            "index",
            "domains",
            "hw_engines",
            "sw_engines",
            "routes",
            "pump_fns",
            "delivery_routes",
            "deliver_fns",
            "directions",
            "_pools",
            "vcs",
            # Source backend: the generated event loop.  It pre-binds only
            # identity-stable objects and keeps the clock in a local it
            # writes back to ``now``, so restore() needs nothing from it.
            "_loop_gen",
        },
    ),
    SwEngine: _spec(
        covered={
            "busy_until",
            "_pending_updates",
            "_pending_deliveries",
            "_last_fired",
            "_last_fail_cost",
            "fire_counts",
            "total_firings",
            "cpu_cycles_useful",
            "cpu_cycles_wasted",
            "cpu_cycles_driver",
            "guard_failures",
            "busy_fpga_cycles",
        },
        config={
            "rules",
            "schedule",
            "platform",
            "config",
            "evaluator",
            "backend",
            "name",
            "compiled",
            # Source backend: the generated attempt units (one per rule)
            # and the fused superstep installed as an instance attribute.
            # Both pre-bind only identity-stable containers, so restore()
            # keeps them truthful without re-generation.
            "_gen",
            "_step_gen",
            "step",
        },
        children={"store", "_wakeup"},
        snapshot_arity=15,
    ),
    HwEngine: _spec(
        covered={
            "busy",
            "_locked_count",
            "_next_finish",
            "_pending_deliveries",
            "fire_counts",
            "cycles_active",
            "total_firings",
            "last_cycle_stepped",
        },
        config={
            "rules",
            "schedule",
            "evaluator",
            "backend",
            "name",
            "_read_sets",
            "_write_sets",
            # Source backend: generated rule units (one per rule) and the
            # fused step_cycle installed as an instance attribute (pre-binds
            # identity-stable state only; see sim/hwsim.py).
            "_gen",
            "_step_gen",
            "step_cycle",
        },
        children={"store", "_wakeup"},
        snapshot_arity=11,
    ),
    WakingStore: _spec(
        # Contents ride the owning engine's snapshot (``dict(self.store)``).
        config={"wake"},
    ),
    RuleWakeup: _spec(
        # sleeping/n_sleeping ride the owning engine's snapshot.
        covered={"sleeping", "n_sleeping"},
        config={"rules", "wakers", "index_of"},
    ),
    Topology: _spec(
        config={"_links"},
        children={"_directions"},
    ),
    Link: _spec(
        config={"src", "dst", "params", "burst"},
    ),
    DuplexChannel: _spec(
        config={"params"},
        children={"to_hw", "to_sw"},
    ),
    ChannelDirection: _spec(
        covered={"busy_until"},
        config={"params", "name", "burst"},
        children={"pool", "stats"},
        snapshot_arity=3,
    ),
    MessagePool: _spec(
        covered={"words", "vc_ids", "bounds", "due", "head", "word_head"},
        snapshot_arity=6,
    ),
    ChannelStats: _spec(
        covered={"messages", "words", "busy_cycles", "per_vc_messages"},
        snapshot_arity=4,
    ),
    VirtualChannelTable: _spec(
        config={"_by_id"},
        children={"channels"},
    ),
    VirtualChannel: _spec(
        covered={"credits", "in_flight"},
        config={
            "sync",
            "vc_id",
            "word_bits",
            "layout",
            "words_per_element",
            "encode_batch",
            "decode",
            "decode_run",
        },
        children={"stats"},
        snapshot_arity=6,
    ),
    VirtualChannelStats: _spec(
        covered={
            "messages_sent",
            "messages_delivered",
            "words_sent",
            "stalled_on_credit",
        },
    ),
    # A register value a plain-dict store surfaces: immutable (it refuses
    # attribute writes), so it rides the store's snapshot as it is.
    RawStruct: _spec(config={"ty", "raws"}),
}


def _merged_spec(cls: Type) -> Optional[CoverageSpec]:
    """Merge the manifest specs along a class's MRO (most-derived wins none;
    the union is what matters)."""
    specs = [MANIFEST[base] for base in cls.__mro__ if base in MANIFEST]
    if not specs:
        return None
    return CoverageSpec(
        covered=frozenset().union(*(s.covered for s in specs)),
        reset=frozenset().union(*(s.reset for s in specs)),
        config=frozenset().union(*(s.config for s in specs)),
        cache=frozenset().union(*(s.cache for s in specs)),
        children=frozenset().union(*(s.children for s in specs)),
        snapshot_arity=next(
            (s.snapshot_arity for s in specs if s.snapshot_arity is not None), None
        ),
    )


def _expand(value: Any) -> Iterable[Any]:
    """One level of container expansion for ``children`` attributes.

    Manifested classes are always visited as objects, even when they
    subclass a container (``WakingStore`` is a dict of register values --
    its *contents* ride the engine snapshot, its *attributes* are what
    the audit must classify)."""
    if value is None:
        return ()
    if _merged_spec(type(value)) is not None:
        return (value,)
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return (value,)


def audit_fabric(fabric: CosimFabric) -> List[Diagnostic]:
    """Walk a live fabric's object graph and diff it against the manifest.

    Returns ``REPRO-E008`` for every attribute (or reachable class) the
    manifest does not classify -- i.e. state ``snapshot()`` may silently
    miss -- and ``REPRO-E009`` when a pinned snapshot arity drifted.
    """
    diags: List[Diagnostic] = []
    seen: Set[int] = set()
    queue: List[Tuple[Any, str]] = [(fabric, type(fabric).__name__)]
    reported: Set[str] = set()

    while queue:
        obj, path = queue.pop(0)
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        spec = _merged_spec(cls)
        if spec is None:
            key = f"class {cls.__name__}"
            if key not in reported:
                reported.add(key)
                diags.append(
                    Diagnostic(
                        code="REPRO-E008",
                        location=f"{cls.__name__} (at {path})",
                        message="reachable class has no snapshot-coverage "
                        "manifest; its mutable state is invisible to the audit",
                        hint="classify the class's attributes in "
                        "repro.analysis.snapshot_audit.MANIFEST and make "
                        "snapshot()/restore() carry its mutable fields",
                    )
                )
            continue

        attrs: Dict[str, Any] = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
        for base in cls.__mro__:
            for slot in getattr(base, "__slots__", ()):
                if hasattr(obj, slot):
                    attrs[slot] = getattr(obj, slot)
        known = spec.known()
        for attr in sorted(attrs):
            if attr in known:
                continue
            key = f"{cls.__name__}.{attr}"
            if key in reported:
                continue
            reported.add(key)
            diags.append(
                Diagnostic(
                    code="REPRO-E008",
                    location=f"{key} (at {path})",
                    message="attribute is not classified by the snapshot "
                    "coverage manifest, so snapshot()/restore() may miss it "
                    "and a resident fabric would diverge from a fresh one",
                    hint="capture it in snapshot() and restore(), then add it "
                    "to the 'covered' set (or classify it as "
                    "reset/config/cache if it is not run state)",
                )
            )

        if spec.snapshot_arity is not None:
            snap = obj.snapshot()
            if len(snap) != spec.snapshot_arity:
                key = f"{cls.__name__}.snapshot-arity"
                if key not in reported:
                    reported.add(key)
                    diags.append(
                        Diagnostic(
                            code="REPRO-E009",
                            location=f"{cls.__name__}.snapshot() (at {path})",
                            message=f"snapshot tuple has {len(snap)} fields but "
                            f"the audited manifest pins {spec.snapshot_arity}; "
                            "the positional restore protocol would mis-zip",
                            hint="update snapshot()/restore() and the manifest "
                            "arity together",
                        )
                    )

        for attr in sorted(spec.children):
            if attr not in attrs and not hasattr(obj, attr):
                continue
            for child in _expand(getattr(obj, attr)):
                # Only recurse into objects this codebase defines: expanding
                # a container child (an engine map, a plain-dict store) can
                # surface data payloads -- ints, tuples, arrays -- which ride
                # their owner's snapshot and are not auditable classes.
                if getattr(type(child), "__module__", "").startswith("repro."):
                    queue.append((child, f"{path}.{attr}"))

    return sorted(diags)
