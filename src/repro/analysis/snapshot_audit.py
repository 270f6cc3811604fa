"""Snapshot-completeness audit (check 5 of the static verifier).

PR 7's persistent-serving invariant is *"anything the snapshot misses
breaks serving"*: :meth:`~repro.sim.cosim.CosimFabric.snapshot` /
``restore`` must round-trip **every** mutable field of the fabric object
graph, or a resident fabric diverges bitwise from a fresh elaboration
after the first request.  That completeness used to be enforced only by
the resident==fresh differential oracle; this module turns it into a
checkable structural property.

The audit walks the live fabric object graph by reflection and checks
every instance attribute it finds against what its class declares:

* the class's ``RUN_STATE`` table (:mod:`repro.core.runstate`), whose
  attributes ``snapshot()`` captures and ``restore()`` rewinds -- or, for
  transient ones, resets -- and whose children the audit recurses into;
* this module's :data:`MANIFEST`, which classifies the rest as
  ``config`` -- elaboration-time state that never mutates during a run
  (rules, schedules, generated modules, layouts, platform parameters) --
  or ``cache`` -- memoisation that is semantically transparent
  (rebuilding it yields the same values, e.g. the fabric's owner-store
  resolution).

An attribute present on a live object but named by neither is exactly
the failure mode the differential oracle catches too late: a new mutable
field somebody forgot to declare.  The audit reports it as ``REPRO-E008``
*by name*, before any simulation runs.  Snapshot and restore are both
built from the table, so they cannot disagree on its layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

from repro.analysis.diagnostics import Diagnostic
from repro.core.runstate import CHILD, CHILDREN, DICT
from repro.core.scheduler import RuleWakeup, WakingStore
from repro.core.types import RawStruct
from repro.platform.channel import ChannelDirection, Topology
from repro.platform.libdn import VirtualChannel, VirtualChannelTable
from repro.sim.cosim import CosimFabric, Cosimulator, _GroupFabric
from repro.sim.hwsim import HwEngine
from repro.sim.swsim import SwEngine


@dataclass(frozen=True)
class CoverageSpec:
    """The audited classification of one class's attributes that are not
    run state (run state is the class's ``RUN_STATE`` table)."""

    config: FrozenSet[str] = frozenset()
    cache: FrozenSet[str] = frozenset()


def _spec(config=(), cache=()) -> CoverageSpec:
    return CoverageSpec(frozenset(config), frozenset(cache))


#: class -> coverage spec.  Subclasses merge every spec on their MRO, so a
#: wrapper like :class:`Cosimulator` only declares its own extra fields.
MANIFEST: Dict[Type, CoverageSpec] = {
    CosimFabric: _spec(
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
        },
        cache={"_owner_store"},
    ),
    Cosimulator: _spec(
        config={"hw_domain", "sw_domain", "hw", "sw"},
    ),
    _GroupFabric: _spec(
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
    ),
    HwEngine: _spec(
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
    ),
    WakingStore: _spec(
        # Contents ride the owning engine's snapshot (its ``store`` entry).
        config={"wake"},
    ),
    RuleWakeup: _spec(config={"rules", "wakers", "index_of"}),
    Topology: _spec(config={"_links"}),
    ChannelDirection: _spec(config={"params", "name", "burst"}),
    VirtualChannelTable: _spec(config={"_by_id"}),
    VirtualChannel: _spec(
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
    ),
    # A register value a plain-dict store surfaces: immutable (it refuses
    # attribute writes), so it rides the store's snapshot as it is.
    RawStruct: _spec(config={"ty", "raws"}),
}

#: Kinds whose values the audit walks: children, and in-place dicts -- an
#: engine's store is a ``WakingStore`` or a plain dict of register values.
_WALKED = (CHILD, CHILDREN, DICT)


def _coverage(cls: Type) -> Optional[Tuple[FrozenSet[str], List[str]]]:
    """The attributes ``cls`` declares (its run-state table plus the
    manifest specs along its MRO) and the ones the audit walks, or
    ``None`` when the class declares nothing."""
    table = getattr(cls, "RUN_STATE", None)
    specs = [MANIFEST[base] for base in cls.__mro__ if base in MANIFEST]
    if table is None and not specs:
        return None
    table = table or ()
    known = frozenset(attr for attr, _ in table).union(
        *(spec.config | spec.cache for spec in specs)
    )
    return known, [attr for attr, kind in table if kind in _WALKED]


def _expand(value: Any) -> Iterable[Any]:
    """One level of container expansion for walked attributes.

    Declared classes are always visited as objects, even when they
    subclass a container (``WakingStore`` is a dict of register values --
    its *contents* ride the engine snapshot, its *attributes* are what
    the audit must classify)."""
    if value is None:
        return ()
    if _coverage(type(value)) is not None:
        return (value,)
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return (value,)


def audit_fabric(fabric: CosimFabric) -> List[Diagnostic]:
    """Walk a live fabric's object graph and diff it against the
    run-state tables and the manifest.

    Returns ``REPRO-E008`` for every attribute (or reachable class) that
    neither declares -- i.e. state ``snapshot()`` may silently miss.
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
        coverage = _coverage(cls)
        if coverage is None:
            key = f"class {cls.__name__}"
            if key not in reported:
                reported.add(key)
                diags.append(
                    Diagnostic(
                        code="REPRO-E008",
                        location=f"{cls.__name__} (at {path})",
                        message="reachable class declares no run state and "
                        "has no snapshot-coverage manifest; its mutable state "
                        "is invisible to the audit",
                        hint="declare its mutable fields in a RUN_STATE table "
                        "(repro.core.runstate) and classify the rest in "
                        "repro.analysis.snapshot_audit.MANIFEST",
                    )
                )
            continue

        attrs: Dict[str, Any] = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
        for base in cls.__mro__:
            for slot in getattr(base, "__slots__", ()):
                if hasattr(obj, slot):
                    attrs[slot] = getattr(obj, slot)
        known, walked = coverage
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
                    message="attribute is neither declared run state nor "
                    "classified by the snapshot coverage manifest, so "
                    "snapshot()/restore() may miss it and a resident fabric "
                    "would diverge from a fresh one",
                    hint="declare it in its class's RUN_STATE table (or "
                    "classify it as config/cache in the manifest if it is "
                    "not run state)",
                )
            )

        for attr in walked:
            for child in _expand(getattr(obj, attr, None)):
                # Only recurse into objects this codebase defines: expanding
                # a container child (an engine map, a plain-dict store) can
                # surface data payloads -- ints, tuples, arrays -- which ride
                # their owner's snapshot and are not auditable classes.
                if getattr(type(child), "__module__", "").startswith("repro."):
                    queue.append((child, f"{path}.{attr}"))

    return sorted(diags)
