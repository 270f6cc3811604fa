"""Co-simulation of a partitioned design over a routed channel topology.

This is the executable counterpart of the full compiler flow in Figure 6,
generalised from the paper's fixed HW/SW split to an arbitrary set of
*domain partitions*: the design is split by domain
(:mod:`repro.core.partition`), each partition runs on its own engine (the
cycle-level :class:`~repro.sim.hwsim.HwEngine` or the cost-modelled
sequential :class:`~repro.sim.swsim.SwEngine`), and every cross-domain
synchronizer is mapped onto a virtual channel of the point-to-point link
its (producer domain, consumer domain) route uses in the
:class:`~repro.platform.channel.Topology`.  Synchronizer placement -- not a
fixed two-way split -- defines the partitioning, which is the paper's whole
point; :class:`CosimFabric` is the N-domain event loop and
:class:`Cosimulator` the two-partition view the original API exposed,
kept bitwise-compatible (same `CosimResult`, same cycle accounting).

Time is measured in FPGA cycles.  The event loop advances one cycle at a
time while anything is happening and skips directly to the next scheduled
event (a link delivery, the end of a software rule, a multi-cycle hardware
kernel completing) whenever the system is otherwise idle, so designs that
spend most of their time waiting on the bus (e.g. the ray tracer's
partition B) simulate in time proportional to their event count, not their
cycle count.

A fabric is a composition of **group sub-fabrics**: domain partitions that
share no synchronizer (transitively) are fully independent by the paper's
semantics, so each connected component of the cut graph
(:meth:`~repro.core.partition.Partitioning.independent_groups`) gets its
own :class:`_GroupFabric` -- its own clock, delivery routes and transport
routes.  :meth:`CosimFabric.run` runs the groups serially, each with its
own idle-skip (a group stalled on the bus never drags the others through
empty cycles); :func:`repro.sim.pool.run_grouped` fans the same group
sub-fabrics out across worker processes.  Per-group results combine under
the documented deterministic rules of :meth:`CosimResult.merge`, and on
single-group designs (every two-partition workload) the group loop *is*
the historical loop, bitwise identical to the pre-decomposition fabric.

The transport follows the rule backend.  Under ``backend="interp"`` it is
the per-synchronizer reference bookkeeping (the oracle) and each group runs
the interpreted event loop.  Under ``backend="source"`` every route lowers
at elaboration to generated flat Python with its constants pre-bound
(:func:`~repro.core.pycodegen.generate_transport_pump` /
:func:`~repro.core.pycodegen.generate_transport_delivery`: pre-resolved
endpoint stores, pre-computed credit arithmetic, batch FIFO draining), and
each group's event loop is generated too
(:func:`~repro.core.pycodegen.generate_group_loop`); both are
observationally identical to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.domains import HW, SW, Domain, effective_module_domain
from repro.core.pycodegen import (
    generate_group_loop,
    generate_transport_delivery,
    generate_transport_pump,
    resolve_backend,
)
from repro.core.errors import SimulationError
from repro.core.module import Design, Register
from repro.core.optimize import OptimizationConfig
from repro.core.partition import Partitioning, default_engine_kind, partition_design
from repro.core.runstate import CHILD, CHILDREN, COPY, RESET, SCALAR, run_state
from repro.core.semantics import Store
from repro.core.synchronizers import SyncFifo
from repro.platform.channel import Topology
from repro.platform.libdn import VirtualChannelTable
from repro.platform.marshal import demarshal_message, marshal_message
from repro.platform.platform import Platform
from repro.sim.hwsim import HwEngine
from repro.sim.swsim import SwEngine

#: Engine kinds a domain can be mapped onto.
ENGINE_KINDS = ("hw", "sw")


def default_engine_kinds(domains) -> Dict[str, str]:
    """The default domain-name -> engine-kind mapping.

    Delegates per domain to
    :func:`repro.core.partition.default_engine_kind` -- the single source of
    the "names starting with ``HW`` are hardware" convention shared with the
    interface generator and the sweep examples.  The multi-domain workloads
    (e.g. ``HW_IMDCT``/``HW_WIN``) follow it; anything else should pass
    ``engine_kinds`` explicitly.
    """
    return {d.name: default_engine_kind(d) for d in domains}


@dataclass
class CosimResult:
    """Outcome of one co-simulation run (all times in FPGA cycles).

    The ``sw_*``/``hw_*`` fields aggregate over every software/hardware
    engine in the fabric (in the two-partition case there is exactly one of
    each, so they read as before); ``domain_stats`` holds the per-domain
    breakdown.
    """

    design_name: str
    fpga_cycles: float
    completed: bool
    sw_busy_fpga_cycles: float
    sw_cpu_cycles: float
    sw_cpu_cycles_wasted: float
    sw_cpu_cycles_driver: float
    sw_firings: int
    sw_guard_failures: int
    hw_firings: int
    hw_active_cycles: int
    channel_messages: int
    channel_words: int
    channel_busy_cycles: float
    fire_counts: Dict[str, int] = field(default_factory=dict)
    vc_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    domain_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __repr__(self) -> str:
        status = "ok" if self.completed else "INCOMPLETE"
        return (
            f"CosimResult({self.design_name}: {self.fpga_cycles:.0f} FPGA cycles [{status}], "
            f"sw_busy={self.sw_busy_fpga_cycles:.0f}, hw_active={self.hw_active_cycles}, "
            f"channel_msgs={self.channel_messages})"
        )

    #: Scalar fields merged as ordered sums (floats accumulate strictly in
    #: argument order so merged totals are reproducible bit for bit).
    _SUM_FIELDS = (
        "sw_busy_fpga_cycles",
        "sw_cpu_cycles",
        "sw_cpu_cycles_wasted",
        "sw_cpu_cycles_driver",
        "sw_firings",
        "sw_guard_failures",
        "hw_firings",
        "hw_active_cycles",
        "channel_messages",
        "channel_words",
        "channel_busy_cycles",
    )

    @classmethod
    def merge(cls, results) -> "CosimResult":
        """Merge the per-group results of one design into one ``CosimResult``.

        The merge rules are deterministic and documented here once, for
        every caller (a fabric merging its group sub-fabrics' results, and
        the process-parallel group runners merging worker reports):

        * ``fpga_cycles`` -- the **max** over the parts: independently
          clocked groups overlap in simulated time, so the design finishes
          when its slowest group does.
        * counters and cost totals (:data:`_SUM_FIELDS`) -- **ordered
          sums**, accumulated strictly in the order ``results`` are given
          (group index order for a fabric), so floating-point totals are
          bit-reproducible.
        * ``fire_counts`` / ``vc_stats`` / ``domain_stats`` -- **disjoint
          union** in argument order: each rule, channel and domain belongs
          to exactly one group, so a key collision raises
          :class:`SimulationError`.
        * ``completed`` -- ``all()`` over the parts; ``design_name`` -- the
          common name (results of different designs raise).
        """
        results = list(results)
        if not results:
            raise ValueError("CosimResult.merge needs at least one result")
        names = sorted({r.design_name for r in results})
        if len(names) > 1:
            raise SimulationError(
                f"refusing to merge results of different designs: {names}"
            )
        sums = {f: sum(getattr(r, f) for r in results) for f in cls._SUM_FIELDS}

        def union(field: str):
            merged: Dict[str, Any] = {}
            for r in results:
                for key, value in getattr(r, field).items():
                    if key in merged:
                        raise SimulationError(
                            f"merge collision on {field}[{key!r}]: groups of one "
                            "design must be disjoint"
                        )
                    merged[key] = dict(value) if isinstance(value, dict) else value
            return merged

        return cls(
            design_name=names[0],
            fpga_cycles=max(r.fpga_cycles for r in results),
            completed=all(r.completed for r in results),
            fire_counts=union("fire_counts"),
            vc_stats=union("vc_stats"),
            domain_stats=union("domain_stats"),
            **sums,
        )


class ThresholdDone:
    """Done predicate: every register has reached its minimum (``>=``).

    The shape of :attr:`repro.sim.serve.Request.done_min`.  It reads every
    register on every evaluation (no short-circuit), the static-read-set
    contract that lets the reset-state probe attribute the predicate to
    groups.  A generated group loop recognises it and compares the
    thresholds inline instead of calling it (:meth:`CosimFabric._threshold_checks`).
    """

    __slots__ = ("thresholds",)

    def __init__(self, thresholds):
        #: ``(register, minimum)`` pairs.
        self.thresholds: Tuple[Tuple[Register, Any], ...] = tuple(thresholds)

    def __call__(self, cosim: "CosimFabric") -> bool:
        ok = True
        for reg, minimum in self.thresholds:
            if not cosim.read(reg) >= minimum:
                ok = False
        return ok


def _pump_routes_interp(routes, now: float, occupancy_of=None) -> bool:
    """Reference (interpreted) transport pump over a route list.

    Per-synchronizer bookkeeping, marshaling and draining one element at a
    time through the plain marshal functions (the semantic oracle the
    generated routes' layout-compiled encoders are tested against).
    Shared by the per-group sub-fabrics, which pass their projected route
    subsets, the whole-fabric :meth:`CosimFabric._pump_transport`, and a
    distributed member's one-route pumps.  ``occupancy_of``, when given,
    is read for the consumer occupancy instead of the consumer endpoint,
    as in :func:`~repro.core.pycodegen.generate_transport_pump`: a member
    passes it for a route whose consumer lives in another process.
    """
    progress = False
    for sync, vc, producer_engine, producer_store, consumer_store, direction, sw_producer in routes:
        if not producer_store[sync.data]:
            continue
        if sync.data in producer_engine.locked_registers():
            # An in-flight rule will commit a deferred update to this
            # endpoint; draining it now would be clobbered by that commit.
            continue
        while producer_store[sync.data]:
            if occupancy_of is None:
                consumer_occupancy = len(consumer_store[sync.data])
            else:
                consumer_occupancy = occupancy_of()
            if consumer_occupancy + vc.in_flight >= sync.depth:
                vc.note_credit_stall()
                break
            vc.credits = sync.depth - consumer_occupancy - vc.in_flight
            item = producer_store[sync.data][0]
            producer_store[sync.data] = tuple(producer_store[sync.data][1:])
            words = marshal_message(vc.vc_id, sync.ty, item, vc.word_bits)
            direction.send_words(vc.vc_id, words, now)
            vc.on_send()
            if sw_producer:
                # The processor spends time marshaling and driving the DMA.
                producer_engine.charge_driver(vc.words_per_element, now)
            progress = True
    return progress


def _deliver_routes_interp(delivery_routes, by_id, now: float) -> bool:
    """Reference (interpreted) delivery sweep over a delivery-route list."""
    progress = False
    for direction, target, sw_target in delivery_routes:
        pool = direction.pool
        if not pool.pending:
            continue
        while True:
            slot = pool.pop_due(now)
            if slot is None:
                break
            slot_vc_id, words, _due = slot
            vc = by_id(slot_vc_id)
            # Unframe and decode the wire words through the plain marshal
            # functions, validating the header as a real demarshaler would.
            header_vc_id, value = demarshal_message(vc.sync.ty, words, vc.word_bits)
            if header_vc_id != slot_vc_id:
                raise SimulationError(
                    f"link {direction.name}: message header names vc "
                    f"{header_vc_id} but the transport launched it on vc {slot_vc_id}"
                )
            target.deliver(vc.sync.data, value, now)
            vc.on_deliver()
            if sw_target:
                # Demarshaling / copy out of the DMA buffer costs CPU time.
                target.charge_driver(vc.words_per_element, now)
            progress = True
    return progress


@run_state
class _GroupFabric:
    """One independently clocked group of a fabric: engines, links, a clock.

    A group sub-fabric owns the projection of its parent fabric onto one
    independent domain group: the group's engines (hardware first, then
    software, in the fabric's global order), the transport routes whose
    synchronizers are internal to the group, the delivery sweeps and link
    directions whose traffic terminates in it, and the group's virtual
    channels -- plus its **own simulated clock** (:attr:`now`).  Groups
    share no state by construction (no synchronizer crosses a group
    boundary), so each advances with its own event-skipping loop: a group
    stalled on a bus response no longer drags the other groups through its
    empty cycles, and a group may equally run in a different process.

    :meth:`run` is the fabric's historical event loop verbatim, restricted
    to the group's subsets -- on a single-group design it is *the* loop,
    bitwise identical to the pre-decomposition fabric.  Under
    ``backend="source"`` the loop is generated at elaboration instead
    (:func:`~repro.core.pycodegen.generate_group_loop`): the same phases
    and arithmetic, unrolled over the group, skipping only calls that would
    do nothing (it counts a credit-stalled pump's stall itself); the
    interpreted loop stays the reference.
    """

    RUN_STATE = (("now", SCALAR),)

    def __init__(self, fabric: "CosimFabric", index: int):
        self.fabric = fabric
        self.index = index
        gidx = fabric._group_index
        self.domains: List[Domain] = [
            d for d in fabric.domains if gidx[d.name] == index
        ]
        names = {d.name for d in self.domains}
        self.hw_engines: List[HwEngine] = [
            fabric.engines[d]
            for d in self.domains
            if fabric.engine_kinds[d.name] == "hw"
        ]
        self.sw_engines: List[SwEngine] = [
            fabric.engines[d]
            for d in self.domains
            if fabric.engine_kinds[d.name] == "sw"
        ]
        # Producer-side routes in cut order (both endpoints of a route lie
        # in one group by construction), plus their generated pumps.
        picks = [
            j
            for j, route in enumerate(fabric._routes)
            if route[0].domain_enq.name in names
        ]
        self.routes = [fabric._routes[j] for j in picks]
        self.pump_fns = (
            [fabric._pump_fns[j] for j in picks]
            if fabric._pump_fns is not None
            else None
        )
        dpicks = [
            j for j, dst in enumerate(fabric._delivery_dsts) if dst in names
        ]
        self.delivery_routes = [fabric._delivery_routes[j] for j in dpicks]
        self.deliver_fns = (
            [fabric._deliver_fns[j] for j in dpicks]
            if fabric._deliver_fns is not None
            else None
        )
        # Every topology link is attributed to exactly one group (its
        # destination's, else its source's, else group 0) so per-group
        # channel statistics sum to the fabric totals, in registration order.
        self.directions = []
        for link in fabric.topology.links:
            owner = gidx.get(link.dst, gidx.get(link.src, 0))
            if owner == index:
                self.directions.append(fabric.topology.direction(link.src, link.dst))
        self._pools = [d.pool for d in self.directions]
        self.vcs = [vc for vc in fabric.vcs if vc.sync.domain_enq.name in names]
        self.now: float = 0.0
        self._loop_gen = (
            generate_group_loop(self, f"{fabric.design.name}.group{index}")
            if fabric.backend == "source"
            else None
        )

    def _label(self) -> str:
        if len(self.fabric._groups) == 1:
            return ""
        return f" (group {self.index}: {'+'.join(d.name for d in self.domains)})"

    def budget_error(self, done, now: float, iterations: int) -> SimulationError:
        """The exhausted-budget error of this group's loop.

        Every loop that runs the group -- interpreted, generated and the
        distributed member loop -- raises this one error, so its text is
        identical whichever path ran.
        """
        hint = ""
        if done is not None and len(self.fabric._groups) > 1:
            hint = (
                "; a group must quiesce on its own, because other groups' "
                "registers read their reset values while it runs"
            )
        return SimulationError(
            f"co-simulation of {self.fabric.design.name}{self._label()} exceeded "
            f"its cycle/iteration budget (now={now}, iterations={iterations})"
            f"{hint}"
        )

    # -- the interpreted loop's idle skip -----------------------------------

    def _next_delivery_time(self) -> Optional[float]:
        best: Optional[float] = None
        for pool in self._pools:
            head = pool.head
            due = pool.due
            if head < len(due) and (best is None or due[head] < best):
                best = due[head]
        return best

    # -- the event loop ------------------------------------------------------

    def run(
        self,
        done: Optional[Callable[["CosimFabric"], bool]],
        max_cycles: float,
        max_iterations: int,
    ) -> CosimResult:
        """Advance this group until ``done`` (or quiescence) under its own clock.

        ``done=None`` means the group owns nothing the fabric's termination
        predicate observes: it runs to quiescence, which *is* its
        completion.  Otherwise the loop is the historical fabric loop:
        check the predicate, deliver due messages, step hardware engines,
        step software engines, pump the transport, and skip straight to the
        next scheduled event when a cycle made no progress.  A generated
        loop checks a :class:`ThresholdDone` predicate inline.
        """
        fabric = self.fabric
        if self._loop_gen is not None:
            checks = (
                fabric._threshold_checks(done.thresholds)
                if isinstance(done, ThresholdDone)
                else None
            )
            run = self._loop_gen.namespace["run"]
            return self.result(run(done, checks, max_cycles, max_iterations))
        completed = False
        iterations = 0
        hw_engines = self.hw_engines
        sw_engines = self.sw_engines
        by_id = fabric.vcs.by_id
        while self.now <= max_cycles and iterations < max_iterations:
            iterations += 1
            if done is not None and done(fabric):
                completed = True
                break

            progress = False
            progress |= _deliver_routes_interp(self.delivery_routes, by_id, self.now)
            for engine in hw_engines:
                progress |= engine.step_cycle(self.now)
            for engine in sw_engines:
                progress |= engine.step(self.now)
            progress |= _pump_routes_interp(self.routes, self.now)

            if progress:
                self.now += 1.0
                continue

            next_times = [
                t
                for t in (
                    self._next_delivery_time(),
                    *(engine.next_completion_time() for engine in hw_engines),
                    *(engine.next_event_time(self.now) for engine in sw_engines),
                )
                if t is not None
            ]
            if not next_times:
                # Quiescent: either finished (checked at loop top) or deadlocked.
                completed = True if done is None else done(fabric)
                break
            self.now = max(self.now + 1.0, min(next_times))
        else:
            raise self.budget_error(done, self.now, iterations)

        if not completed and done is not None:
            completed = done(fabric)
        return self.result(completed)

    # -- result assembly -----------------------------------------------------

    def result(self, completed: bool) -> CosimResult:
        """This group's ``CosimResult`` (the fabric result on single-group designs).

        Assembly order mirrors the historical whole-fabric assembly exactly
        -- fire counts from hardware engines then software engines, virtual
        channels in cut order, domains in engine order, link statistics in
        topology registration order -- restricted to this group, so merging
        the groups reproduces the monolithic orderings.
        """
        fabric = self.fabric
        fire_counts: Dict[str, int] = {}
        for engine in self.hw_engines:
            fire_counts.update(engine.fire_counts)
        for engine in self.sw_engines:
            fire_counts.update(engine.fire_counts)
        vc_stats = {
            fabric._vc_keys[vc]: {
                "messages": vc.stats.messages_sent,
                "words": vc.stats.words_sent,
                "credit_stalls": vc.stats.stalled_on_credit,
            }
            for vc in self.vcs
        }
        domain_stats: Dict[str, Dict[str, Any]] = {}
        for dom in self.domains:
            engine = fabric.engines[dom]
            if isinstance(engine, HwEngine):
                domain_stats[dom.name] = {
                    "kind": "hw",
                    "firings": engine.total_firings,
                    "active_cycles": engine.cycles_active,
                }
            else:
                domain_stats[dom.name] = {
                    "kind": "sw",
                    "firings": engine.total_firings,
                    "busy_fpga_cycles": engine.busy_fpga_cycles,
                    "cpu_cycles": engine.cpu_cycles_total,
                    "guard_failures": engine.guard_failures,
                }
        sw = self.sw_engines
        hw = self.hw_engines
        return CosimResult(
            design_name=fabric.design.name,
            fpga_cycles=self.now,
            completed=completed,
            sw_busy_fpga_cycles=sum(e.busy_fpga_cycles for e in sw),
            sw_cpu_cycles=sum(e.cpu_cycles_total for e in sw),
            sw_cpu_cycles_wasted=sum(e.cpu_cycles_wasted for e in sw),
            sw_cpu_cycles_driver=sum(e.cpu_cycles_driver for e in sw),
            sw_firings=sum(e.total_firings for e in sw),
            sw_guard_failures=sum(e.guard_failures for e in sw),
            hw_firings=sum(e.total_firings for e in hw),
            hw_active_cycles=sum(e.cycles_active for e in hw),
            channel_messages=sum(d.stats.messages for d in self.directions),
            channel_words=sum(d.stats.words for d in self.directions),
            channel_busy_cycles=sum(d.stats.busy_cycles for d in self.directions),
            fire_counts=fire_counts,
            vc_stats=vc_stats,
            domain_stats=domain_stats,
        )


@run_state
class CosimFabric:
    """N-domain co-simulation: a topology of engines joined by routed links.

    Builds one engine per domain partition of ``design``, a point-to-point
    link per (producer, consumer) domain route on the synchronizer cut, and
    runs the whole fabric under one event loop.  ``engine_kinds`` maps
    domain (or domain name) to ``"hw"``/``"sw"``; unmapped domains follow
    :func:`default_engine_kinds`.  A prebuilt ``topology`` may be supplied
    (e.g. with asymmetric per-link parameters); otherwise one link per used
    route is created from the platform's channel parameters
    (``link_params`` overrides individual routes).

    :meth:`snapshot` captures the complete run state as plain data and
    :meth:`restore` rewinds to it in O(state), without re-elaborating and
    keeping every object the generated routes and loops pre-bind: the
    basis of persistent serving, where a snapshot taken at reset makes
    every post-restore run's ``CosimResult`` a per-request delta.
    """

    RUN_STATE = (
        ("engines", CHILDREN),
        ("topology", CHILD),
        ("vcs", CHILD),
        ("_groups", CHILDREN),
        ("now", SCALAR),
        ("_initial_values", COPY),
        ("_last_observed", COPY),
        ("_active_group", RESET),
        ("_observing", RESET),
        ("_read_overrides", RESET),
    )

    def __init__(
        self,
        design: Design,
        platform: Optional[Platform] = None,
        config: Optional[OptimizationConfig] = None,
        engine_kinds: Optional[Dict[Union[Domain, str], str]] = None,
        default_domain: Optional[Domain] = None,
        burst: bool = True,
        max_loop_iterations: int = 1_000_000,
        backend: Optional[str] = None,
        topology: Optional[Topology] = None,
        link_params=None,
        required_domains: Optional[List[Domain]] = None,
        verify: bool = False,
    ):
        backend = resolve_backend(backend)
        self.design = design
        self.platform = platform or Platform.ml507()
        self.config = config or OptimizationConfig.all()
        self.burst = burst
        self.backend = backend

        self.partitioning: Partitioning = partition_design(
            design, default_domain if default_domain is not None else SW
        )

        # -- engines: one per domain, hardware engines stepped first --------
        domains: Dict[str, Domain] = {d.name: d for d in self.partitioning.programs}
        for dom in required_domains or ():
            domains.setdefault(dom.name, dom)
        kinds = default_engine_kinds(domains.values())
        for key, kind in (engine_kinds or {}).items():
            if kind not in ENGINE_KINDS:
                raise ValueError(f"unknown engine kind {kind!r} (expected 'hw'/'sw')")
            name = key.name if isinstance(key, Domain) else key
            if name not in domains:
                raise ValueError(
                    f"engine_kinds names domain {name!r} but the design partitions "
                    f"into {sorted(domains)}"
                )
            kinds[name] = kind
        self.engine_kinds: Dict[str, str] = {name: kinds[name] for name in domains}
        ordered = sorted(
            domains.values(), key=lambda d: (self.engine_kinds[d.name] != "hw", d.name)
        )
        self.domains: List[Domain] = ordered
        self.engines: Dict[Domain, Any] = {}
        programs = self.partitioning.programs
        for dom in ordered:
            rules = programs[dom].rules if dom in programs else []
            if self.engine_kinds[dom.name] == "hw":
                engine = HwEngine(
                    rules, design.initial_store(), name=dom.name, backend=backend
                )
            else:
                engine = SwEngine(
                    rules,
                    design.initial_store(),
                    self.platform,
                    self.config,
                    design.all_registers(),
                    name=dom.name,
                    max_loop_iterations=max_loop_iterations,
                    backend=backend,
                )
            # The engines wrap their stores for dirty-set write tracking;
            # always address the wrapped store (``engine.store``) so
            # transport-layer writes wake the rules they affect.
            self.engines[dom] = engine

        # -- topology: one serialised link per used route -------------------
        if topology is None:
            topology = self.platform.topology_for(
                self.partitioning.route_pairs(), burst=burst, link_params=link_params
            )
        self.topology = topology

        cut = self.partitioning.cut
        word_bits_by_sync = {
            sync: topology.link(sync.domain_enq.name, sync.domain_deq.name).params.word_bits
            for sync in cut
        }
        self.vcs = VirtualChannelTable(
            cut,
            word_bits=self.platform.channel.word_bits,
            word_bits_by_sync=word_bits_by_sync,
        )
        # Statistics keys for the virtual channels: the synchronizer's bare
        # name (the historical, golden-pinned key) unless several cut syncs
        # share one -- multi-group designs instantiate whole pipelines more
        # than once -- in which case the colliding ones use their full
        # hierarchical names.
        bare_counts: Dict[str, int] = {}
        for sync in cut:
            bare_counts[sync.name] = bare_counts.get(sync.name, 0) + 1
        self._vc_keys: Dict[Any, str] = {
            vc: (vc.sync.name if bare_counts[vc.sync.name] == 1 else vc.sync.full_name)
            for vc in self.vcs
        }

        # -- transport dataplane --------------------------------------------
        # Producer-side routes (the engines, stores and link for a sync
        # never change during a run) and consumer-side delivery sweeps, in
        # deterministic order: routes in cut order, deliveries in topology
        # registration order.
        self._routes: List[tuple] = []
        for sync in cut:
            vc = self.vcs.channel_for(sync)
            producer_engine = self.engines[domains[sync.domain_enq.name]]
            consumer_engine = self.engines[domains[sync.domain_deq.name]]
            direction = topology.direction(sync.domain_enq.name, sync.domain_deq.name)
            self._routes.append(
                (
                    sync,
                    vc,
                    producer_engine,
                    producer_engine.store,
                    consumer_engine.store,
                    direction,
                    isinstance(producer_engine, SwEngine),
                )
            )
        self._delivery_routes: List[tuple] = []
        #: Destination domain name per delivery route (parallel list; used to
        #: project delivery sweeps onto group sub-fabrics).
        self._delivery_dsts: List[str] = []
        for link in topology.links:
            dst = domains.get(link.dst)
            if dst is None:
                continue
            target = self.engines[dst]
            self._delivery_routes.append(
                (
                    topology.direction(link.src, link.dst),
                    target,
                    isinstance(target, SwEngine),
                )
            )
            self._delivery_dsts.append(link.dst)

        if backend == "source":
            self._pump_fns = [
                generate_transport_pump(
                    sync.data,
                    sync.depth,
                    producer_engine,
                    consumer_store,
                    vc,
                    direction,
                    sw_producer,
                    name=f"{design.name}.route{i}",
                )
                for i, (sync, vc, producer_engine, _, consumer_store, direction, sw_producer) in enumerate(self._routes)
            ]
            vc_by_id = self.vcs.id_table
            self._deliver_fns = [
                generate_transport_delivery(
                    direction,
                    vc_by_id,
                    target,
                    sw_target,
                    name=f"{design.name}.delivery{i}",
                )
                for i, (direction, target, sw_target) in enumerate(self._delivery_routes)
            ]
        else:
            self._pump_fns = None
            self._deliver_fns = None

        # -- register ownership ---------------------------------------------
        # register -> authoritative store, resolved from the partitioning
        # (not a binary "hw else sw" guess): a partition's state lives in its
        # own engine's store; a synchronizer's consumer side is
        # authoritative for reads performed by tests (its contents are what
        # the consumer still has to process).
        owner: Dict[Register, Store] = {}
        for dom, prog in programs.items():
            store = self.engines[dom].store
            for reg in prog.registers:
                owner[reg] = store
        for sync in cut:
            store = self.engines[domains[sync.domain_deq.name]].store
            for reg in sync.registers:
                owner[reg] = store
        self._owner_store = owner
        # Reads no partition owns go to the first software engine's store,
        # else the first engine's.
        first = next(
            (d for d in ordered if self.engine_kinds[d.name] == "sw"),
            ordered[0] if ordered else None,
        )
        self._default_store: Store = (
            self.engines[first].store if first is not None else {}
        )

        self.now: float = 0.0

        # -- group decomposition --------------------------------------------
        # The fabric is a composition of independently clocked *group
        # sub-fabrics*: one per connected component of the domain graph the
        # cut induces (plus one singleton per required-but-unpartitioned
        # domain, e.g. the empty hardware side of an all-software
        # two-partition design).  Group indices follow
        # ``Partitioning.independent_groups`` order, then extra domains in
        # name order -- deterministically reproducible in any process that
        # elaborates the same design.
        group_index: Dict[str, int] = dict(self.partitioning._group_index())
        for name in sorted(n for n in domains if n not in group_index):
            group_index[name] = len(set(group_index.values())) if group_index else 0
        self._group_index = group_index
        self._store_group: Dict[int, int] = {
            id(self.engines[d].store): group_index[d.name] for d in ordered
        }
        #: Reset values, served for reads that escape the active group's
        #: scope (deterministic in-process and across processes: a group
        #: sub-fabric never observes another group's progress).
        self._initial_values: Dict[Register, Any] = design.initial_store()
        self._active_group: Optional[int] = None
        self._observing: Optional[set] = None
        self._read_overrides: Optional[Dict[str, Any]] = None
        self._last_observed: set = set()
        n_groups = (max(group_index.values()) + 1) if group_index else 1
        self._groups: List[_GroupFabric] = [
            _GroupFabric(self, i) for i in range(n_groups)
        ]

        if verify:
            # Strict mode: statically lint the design and audit this fabric's
            # snapshot coverage before the first cycle runs.  Imported lazily
            # -- the analysis package depends on this module.
            from repro.analysis import audit_fabric, require_clean, verify_design

            diags = verify_design(
                design,
                default_domain=default_domain if default_domain is not None else SW,
                link_params=link_params,
                config=self.config,
            )
            diags += audit_fabric(self)
            require_clean(diags, context=f"CosimFabric({design.name!r})")

    # -- store access helpers ----------------------------------------------

    def engine(self, domain: Union[Domain, str]) -> Any:
        """The engine simulating ``domain``'s partition."""
        name = domain.name if isinstance(domain, Domain) else domain
        for dom, engine in self.engines.items():
            if dom.name == name:
                return engine
        raise KeyError(f"fabric has no engine for domain {name!r}")

    def _resolve_owner(self, reg: Register) -> Store:
        """The store holding ``reg``'s authoritative value, memoised in
        ``_owner_store``."""
        store = self._owner_store.get(reg)
        if store is not None:
            return store
        parent = reg.parent
        if isinstance(parent, SyncFifo):
            dom = parent.domain_deq
        else:
            dom = effective_module_domain(parent)
        store = self._default_store
        if dom is not None and not dom.is_variable:
            for d, engine in self.engines.items():
                if d == dom:
                    store = engine.store
                    break
        self._owner_store[reg] = store
        return store

    def read(self, reg: Register) -> Any:
        """Read a register from whichever partition owns it.

        Three run-scoped behaviours compose on top of the owner-resolved
        read (all inactive outside group-decomposed execution):

        * while a done predicate is being *probed*, the registers it reads
          are recorded, attributing the predicate to owning groups;
        * while one group sub-fabric runs, reads of *another* group's state
          resolve to the design's reset values, so a group's execution (and
          its done evaluations) never depend on which other groups happen
          to have run already -- the property that makes serial and
          process-parallel group execution bitwise equal;
        * :meth:`evaluate_done` may override observed registers by full
          name with finals reported from worker processes.
        """
        if self._observing is not None:
            self._observing.add(reg)
        overrides = self._read_overrides
        if overrides is not None and reg.full_name in overrides:
            return overrides[reg.full_name]
        store = self._owner_store.get(reg)
        if store is None or self._active_group is not None:
            return self._read_source(reg)[reg]
        return store[reg]

    def _read_source(self, reg: Register) -> Dict[Register, Any]:
        """The mapping :meth:`read` answers ``reg`` from under the current
        group scoping: the owning store, or the reset values while another
        group runs."""
        store = self._resolve_owner(reg)
        active = self._active_group
        if active is not None and self._store_group.get(id(store), active) != active:
            if reg in self._initial_values:
                return self._initial_values
        return store

    def _threshold_checks(self, thresholds) -> Tuple[Tuple[Dict, Register, Any], ...]:
        """``(mapping, register, minimum)`` per threshold, resolved once per
        group run: a generated loop tests ``mapping[register] >= minimum``
        inline, reading exactly what :meth:`read` would."""
        return tuple((self._read_source(reg), reg, minimum) for reg, minimum in thresholds)

    def write(self, reg: Register, value: Any) -> None:
        """Write a request input into every engine's copy of ``reg``.

        Each engine holds a full copy of the design's store, so a request
        input must land in all of them (through the live stores' regular
        ``__setitem__``, waking any rule that reads the register) *and* in
        :attr:`_initial_values` -- the reset values served for out-of-group
        reads -- so grouped execution sees the same input a fresh
        elaboration with that initial value would.  This is the single
        input-application path of the serving layer: the resident
        :class:`~repro.sim.serve.FabricServer` and its fresh-elaboration
        oracle both apply requests through it.
        """
        if reg not in self._initial_values:
            raise KeyError(
                f"design {self.design.name} has no register {reg.full_name}"
            )
        seen = set()
        for dom in self.domains:
            store = self.engines[dom].store
            if id(store) in seen:
                continue
            seen.add(id(store))
            store[reg] = value
        self._initial_values[reg] = value

    # -- group views ---------------------------------------------------------

    @property
    def group_count(self) -> int:
        """How many independently clocked group sub-fabrics this fabric runs."""
        return len(self._groups)

    def group_domains(self, index: int) -> List[Domain]:
        """The domains simulated by one group sub-fabric, in engine order."""
        return list(self._groups[index].domains)

    def group_of_register(self, reg: Register) -> Optional[int]:
        """The group whose sub-fabric owns a register's authoritative store."""
        return self._store_group.get(id(self._resolve_owner(reg)))

    def probe_done(
        self,
        done: Callable[["CosimFabric"], bool],
        finals: Optional[Dict[str, Any]] = None,
    ):
        """Evaluate ``done`` once, recording the registers it reads.

        Returns ``(result, observed_registers)``.  The observed set is
        what attributes the predicate to group sub-fabrics: a group owning
        none of the observed registers runs to quiescence instead of
        re-evaluating a predicate it cannot influence.  The recorded set is
        kept (:attr:`_last_observed`) so group workers can report the
        observed finals their group owns.  ``finals`` applies the same
        full-name overrides as :meth:`evaluate_done` -- a recording final
        evaluation, which is how :func:`repro.sim.pool.run_grouped`
        detects predicates whose read set changed between probe and
        completion (the data-dependent predicates its merge cannot serve).
        """
        if finals is not None:
            self._read_overrides = dict(finals)
        self._observing = set()
        try:
            result = bool(done(self))
        finally:
            observed = self._observing
            self._observing = None
            if finals is not None:
                self._read_overrides = None
        self._last_observed = observed
        return result, observed

    def evaluate_done(
        self,
        done: Callable[["CosimFabric"], bool],
        finals: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Evaluate ``done`` against merged final state.

        With ``finals`` (a ``register full name -> value`` mapping, as
        reported by :meth:`observations_for_domains` from worker
        processes), reads of those registers are answered from the mapping
        and every other read falls through to this fabric's stores --
        which, on a fabric that dispatched its groups to workers, still
        hold reset values.
        The contract for process-parallel group runs is therefore that the
        predicate's read set is static (our workloads' counters are); a
        serial in-process run needs no overrides at all.
        """
        if finals is None:
            return bool(done(self))
        self._read_overrides = dict(finals)
        try:
            return bool(done(self))
        finally:
            self._read_overrides = None

    def observations_for_domains(self, domain_names) -> Dict[str, Any]:
        """Final values of the last-probed predicate's registers owned by a
        set of domains: a group's (a per-group worker's report) or some of
        them (a distributed lockstep member's, which publishes them into
        its group's shared control block).

        Keeps exactly the observed registers whose authoritative store
        belongs to one of the domains, keyed by register full name (plain
        data, picklable for typical counter registers) and sorted, so a
        parent process can merge observations from workers and re-evaluate
        the full done predicate.
        """
        wanted = set(domain_names)
        stores = {
            id(self.engines[d].store) for d in self.domains if d.name in wanted
        }
        return {
            reg.full_name: self.read(reg)
            for reg in sorted(self._last_observed, key=lambda r: r.full_name)
            if id(self._resolve_owner(reg)) in stores
        }

    def group_layout(self, index: int) -> Dict[str, Any]:
        """One group sub-fabric's shape as plain data (the distributed export).

        Everything a parent process needs to plan a distributed placement of
        the group and to reassemble its ``CosimResult`` bitwise from member
        reports, without shipping any elaborated object:

        * ``domains`` -- ``(name, engine_kind)`` in the group's engine order
          (hardware engines first; result assembly iterates this order);
        * ``routes`` -- the group's producer-side transport routes in cut
          order, each with its cut index, endpoint domains, FIFO depth,
          framed words per element and vc-statistics key;
        * ``links`` -- ``(src, dst)`` of the topology links attributed to
          the group, in registration order (channel statistics sum in this
          order).

        Elaboration is deterministic, so a worker that rebuilds the design
        from the same builder spec computes an identical layout -- the
        contract that lets parent and members agree on shared-ring and
        control-slot assignments without negotiation.
        """
        group = self._groups[index]
        names = {d.name for d in group.domains}
        routes: List[Dict[str, Any]] = []
        for j, route in enumerate(self._routes):
            sync, vc = route[0], route[1]
            if sync.domain_enq.name not in names:
                continue
            routes.append(
                {
                    "cut_index": j,
                    "src": sync.domain_enq.name,
                    "dst": sync.domain_deq.name,
                    "depth": sync.depth,
                    "words_per_element": vc.words_per_element,
                    "key": self._vc_keys[vc],
                }
            )
        gidx = self._group_index
        links = [
            (link.src, link.dst)
            for link in self.topology.links
            if gidx.get(link.dst, gidx.get(link.src, 0)) == index
        ]
        return {
            "index": index,
            "design": self.design.name,
            "domains": [(d.name, self.engine_kinds[d.name]) for d in group.domains],
            "routes": routes,
            "links": links,
        }

    # -- transport ----------------------------------------------------------

    def _pump_transport(self, now: float) -> bool:
        """Launch transfers from producer-side endpoints whenever credits allow."""
        pumps = self._pump_fns
        if pumps is not None:
            progress = False
            for pump in pumps:
                progress |= pump(now)
            return progress
        return _pump_routes_interp(self._routes, now)

    def _deliver_due(self, now: float) -> bool:
        delivers = self._deliver_fns
        if delivers is not None:
            progress = False
            for deliver_due in delivers:
                progress |= deliver_due(now)
            return progress
        return _deliver_routes_interp(self._delivery_routes, self.vcs.by_id, now)

    # -- main loop ------------------------------------------------------------

    def run(
        self,
        done: Callable[["CosimFabric"], bool],
        max_cycles: float = 100_000_000.0,
        max_iterations: int = 5_000_000,
        scheduler: str = "grouped",
    ) -> CosimResult:
        """Run until ``done(self)`` or until no further progress is possible.

        Each independent group sub-fabric runs to completion under its own
        clock, serially in group order, with per-group idle-skip (a stalled
        group never drags the others through empty cycles).  On a
        single-group design this *is* the historical event loop, bitwise
        identical to the pre-decomposition fabric.  On a multi-group design
        the per-group results are combined by :meth:`CosimResult.merge` and
        ``completed`` is the done predicate evaluated against the merged
        final state.  ``scheduler`` accepts only ``"grouped"``; the same
        semantics run across processes through
        :func:`repro.sim.pool.run_grouped` and
        :func:`repro.sim.distrib.run_distributed`.

        Grouped-execution contract: while one group runs, ``done``'s reads
        of *other* groups' registers resolve to reset values, so a group
        whose part of a cross-group predicate can only become true through
        another group's progress must reach quiescence on its own (every
        pipeline-shaped workload does).  A group that free-runs forever
        and terminates only via such a predicate exhausts its budget, and
        the error names the group.
        """
        if scheduler != "grouped":
            raise ValueError(
                f"unknown scheduler {scheduler!r} (expected 'grouped')"
            )
        groups = self._groups
        if len(groups) == 1:
            result = groups[0].run(done, max_cycles, max_iterations)
            self.now = groups[0].now
            return result

        already, observed = self.probe_done(done)
        owners = {self.group_of_register(reg) for reg in observed}
        results = []
        for group in groups:
            if already:
                results.append(group.result(True))
                continue
            done_g = done if group.index in owners else None
            results.append(
                self._run_one_group(group, done_g, max_cycles, max_iterations)
            )
        merged = CosimResult.merge(results)
        merged.completed = True if already else self.evaluate_done(done)
        self.now = max(group.now for group in groups)
        return merged

    def _run_one_group(
        self,
        group: _GroupFabric,
        done: Optional[Callable[["CosimFabric"], bool]],
        max_cycles: float,
        max_iterations: int,
    ) -> CosimResult:
        """Run one group sub-fabric with the fabric's reads scoped to it."""
        self._active_group = group.index
        try:
            return group.run(done, max_cycles, max_iterations)
        finally:
            self._active_group = None

    def run_group(
        self,
        index: int,
        done: Optional[Callable[["CosimFabric"], bool]] = None,
        max_cycles: float = 100_000_000.0,
        max_iterations: int = 5_000_000,
    ) -> CosimResult:
        """Run a single group sub-fabric to completion (the group-worker entry).

        ``done`` is the *full-design* predicate (or ``None`` to run the
        group to quiescence): it is probed once, and applied to the group's
        loop only if the group owns at least one register the predicate
        observes -- with reads of other groups' state scoped to reset
        values, so the outcome is identical whether the other groups run
        before, after, or in different processes.
        """
        group = self._groups[index]
        if done is None:
            return self._run_one_group(group, None, max_cycles, max_iterations)
        already, observed = self.probe_done(done)
        if already:
            return group.result(True)
        owners = {self.group_of_register(reg) for reg in observed}
        done_g = done if index in owners else None
        return self._run_one_group(group, done_g, max_cycles, max_iterations)


class Cosimulator(CosimFabric):
    """The classic two-partition HW/SW co-simulation view.

    A thin compatibility wrapper over :class:`CosimFabric`: exactly one
    hardware and one software engine, joined by a full-duplex channel whose
    two directions are the fabric links ``sw -> hw`` (``to_hw``) and
    ``hw -> sw`` (``to_sw``).  Results are bitwise identical to the
    pre-fabric two-partition implementation (pinned by
    ``tests/golden/fig13_cosim.json``).
    """

    def __init__(
        self,
        design: Design,
        platform: Optional[Platform] = None,
        config: Optional[OptimizationConfig] = None,
        hw_domain: Domain = HW,
        sw_domain: Domain = SW,
        default_domain: Optional[Domain] = None,
        burst: bool = True,
        max_loop_iterations: int = 1_000_000,
        backend: Optional[str] = None,
        verify: bool = False,
    ):
        platform = platform or Platform.ml507()
        # Both directions always exist (the physical channel is full duplex
        # whether or not traffic uses both senses), registered to_hw first --
        # delivery sweeps visit them in that order.
        topology = Topology()
        topology.add_link(sw_domain.name, hw_domain.name, platform.channel, burst, name="to_hw")
        topology.add_link(hw_domain.name, sw_domain.name, platform.channel, burst, name="to_sw")
        super().__init__(
            design,
            platform=platform,
            config=config,
            engine_kinds={hw_domain.name: "hw", sw_domain.name: "sw"},
            default_domain=default_domain if default_domain is not None else sw_domain,
            burst=burst,
            max_loop_iterations=max_loop_iterations,
            backend=backend,
            topology=topology,
            required_domains=[hw_domain, sw_domain],
            verify=verify,
        )
        self.hw_domain = hw_domain
        self.sw_domain = sw_domain
        self.hw: HwEngine = self.engine(hw_domain)
        self.sw: SwEngine = self.engine(sw_domain)

    def read_sw(self, reg: Register) -> Any:
        """Read a register as seen by the software partition."""
        return self.sw.store[reg]
