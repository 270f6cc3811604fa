"""Distributed co-simulation: domains in processes, links as framed wire words.

The fabric's group decomposition (:class:`repro.sim.cosim.CosimFabric`)
already proves that independently clocked groups share no state.  This
module goes one step further and splits a group itself across processes:

* **Placement.**  Every multi-domain group splits into one *member*
  process per domain, and the members advance in an iteration-lockstep
  protocol equivalent to the serial group loop.  A single-domain group
  runs whole as one *solo* member; solo members are packed round-robin
  onto at most ``processes`` workers.  (Running whole groups in worker
  processes is :func:`repro.sim.pool.run_grouped`.)

* **Data plane.**  A cut link whose producer and consumer land in
  different member processes is carried as the *actual framed wire words*
  the generated transactors speak: the producer's transport pump runs
  unmodified (its credit window reads the consumer's published occupancy
  instead of the in-process endpoint -- see the ``occupancy_of`` of
  :func:`repro.core.pycodegen.generate_transport_pump` and of the
  reference pump :func:`repro.sim.cosim._pump_routes_interp`),
  its link replica's :class:`~repro.platform.channel.MessagePool` fills
  with ``MessageLayout``-packed words, and one fixed-size SPSC word ring
  per crossing link in a single ``multiprocessing.shared_memory`` arena
  moves each framed record -- ``(due, header word, payload words)`` --
  into the consumer process's replica pool, where the unmodified delivery
  sweep demarshals it.  The producer's tail write is the doorbell, the
  consumer's head write returns the space.  Nothing but those raw
  integers (plus the simulated delivery time) crosses the boundary: no
  pickled values, no Python objects.  Credit/occupancy counters and the
  lockstep barriers live in the same arena.

* **Equivalence.**  Workers re-elaborate the design from a picklable
  builder spec (elaboration is deterministic; an elaborated fabric cannot
  cross a process boundary), the lockstep protocol replays the serial group
  loop's phase order cycle for cycle, and the parent reassembles each
  group's :class:`~repro.sim.cosim.CosimResult` in the serial orderings --
  so the merged result is **bitwise identical** to
  ``scheduler="grouped"`` on a fresh fabric, for both backends.

The protocol notes (ring word-frame layout, doorbell/credit slots, the
barrier schedule and why it is race-free) are documented in ROADMAP.md
under "Distributed co-simulation".
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.pycodegen import generate_transport_pump, resolve_backend
from repro.platform.marshal import unframe_header
from repro.sim.cosim import (
    CosimFabric,
    CosimResult,
    ThresholdDone,
    _deliver_routes_interp,
    _pump_routes_interp,
    require_thresholds,
)
from repro.sim.pool import _POOL_STALL_SECONDS, _picklable_error

__all__ = [
    "DistributedReport",
    "MemberOutcome",
    "run_distributed",
]

_NAN = float("nan")

#: Leader decisions broadcast through the control block each iteration.
_CONTINUE, _STOP, _BUDGET = 1, 2, 3

#: Ring header slots (head, tail) preceding the data area.
_RING_DATA = 2

#: Seconds a lockstep member waits at a barrier before it gives up.
_BARRIER_TIMEOUT = 300.0


# ---------------------------------------------------------------------------
# shared-memory arena and rings
# ---------------------------------------------------------------------------


class _ShmArena:
    """One shared-memory segment carved into 64-bit slots.

    Holds every lockstep group's control block (barriers, credit cells,
    threshold-register cells) and every crossing link's word ring.  Slot
    assignment is computed once in the parent and shipped in the
    (fork-inherited) plans; views over the buffer are built lazily *per
    process*, never pre-fork, so each process releases exactly the views it
    created.

    Three typed views alias the same slots: ``u`` (uint64: barriers,
    counters, wire words), ``f`` (float64: simulated times, bit-punned into
    their slots) and ``q`` (int64: threshold register values).
    """

    def __init__(self, slots: int):
        from multiprocessing import shared_memory

        self._shm = shared_memory.SharedMemory(create=True, size=max(8, slots * 8))
        self._views: List[memoryview] = []
        self._u = self._f = self._q = None

    def _view(self, fmt: str) -> memoryview:
        view = self._shm.buf.cast(fmt)
        self._views.append(view)
        return view

    @property
    def u(self) -> memoryview:
        if self._u is None:
            self._u = self._view("Q")
        return self._u

    @property
    def f(self) -> memoryview:
        if self._f is None:
            self._f = self._view("d")
        return self._f

    @property
    def q(self) -> memoryview:
        if self._q is None:
            self._q = self._view("q")
        return self._q

    def close(self) -> None:
        for view in self._views:
            view.release()
        self._views.clear()
        self._u = self._f = self._q = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - view left alive by a caller
            pass

    def unlink(self) -> None:
        self.close()
        self._shm.unlink()


class _ShmRing:
    """SPSC ring of 64-bit slots carrying one link's framed wire records.

    Layout at ``base`` (slot units): ``[head, tail, data[capacity]]``.
    ``head`` and ``tail`` are monotonically increasing *word* cursors taken
    modulo ``capacity`` per slot: the producer writes a record then
    advances ``tail`` (the doorbell -- the single producer-side store the
    consumer polls), the consumer reads a record then advances ``head``
    (the credit return -- freed space the producer polls).  One record is
    ``[due (float64, bit-punned), n_words, framed words...]``; records may
    wrap the data area.  Exactly one process pushes and exactly one pops,
    and the lockstep barrier schedule keeps push and pop phases of any
    iteration pair disjoint, so the monotone cursors are the only
    synchronisation needed.
    """

    __slots__ = (
        "u",
        "f",
        "base",
        "capacity",
        "records_out",
        "words_out",
        "records_in",
        "words_in",
        "full_retries",
    )

    def __init__(self, arena: _ShmArena, base: int, capacity: int):
        self.u = arena.u
        self.f = arena.f
        self.base = base
        self.capacity = capacity
        self.records_out = 0
        self.words_out = 0
        self.records_in = 0
        self.words_in = 0
        self.full_retries = 0

    def can_ship(self, n_words: int) -> bool:
        u = self.u
        return self.capacity - (u[self.base + 1] - u[self.base]) >= n_words + 2

    def ship(self, due: float, words: List[int]) -> None:
        u = self.u
        base = self.base + _RING_DATA
        cap = self.capacity
        tail = u[self.base + 1]
        self.f[base + tail % cap] = due
        u[base + (tail + 1) % cap] = len(words)
        for k, word in enumerate(words):
            u[base + (tail + 2 + k) % cap] = word
        # Publish: the tail store is the doorbell (written strictly after
        # the record body on x86's total store order).
        u[self.base + 1] = tail + 2 + len(words)
        self.records_out += 1
        self.words_out += len(words)

    def pop_record(self) -> Optional[Tuple[float, List[int]]]:
        u = self.u
        head = u[self.base]
        if head == u[self.base + 1]:
            return None
        base = self.base + _RING_DATA
        cap = self.capacity
        due = self.f[base + head % cap]
        n = u[base + (head + 1) % cap]
        words = [u[base + (head + 2 + k) % cap] for k in range(n)]
        # Return the space: the head store is the credit.
        u[self.base] = head + 2 + n
        self.records_in += 1
        self.words_in += n
        return due, words


# ---------------------------------------------------------------------------
# plans: what the parent computes once and every member agrees on
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RemoteLink:
    """One cut link that crosses a member boundary, with its ring."""

    src: str
    dst: str
    ring_base: int
    capacity: int


@dataclass(frozen=True)
class _GroupPlan:
    """Shared-arena layout of one lockstep (multi-member) group.

    The control block at ``control_base`` holds, in 64-bit slots:

    * per member ``m``: ``arrive_a[m]``, ``arrive_b[m]`` (barrier
      generation counters), ``progress[m]`` and ``next_time[m]`` (the
      member's published per-iteration loop inputs);
    * the leader's broadcast: ``release`` (generation), ``decision``
      (CONTINUE/STOP/BUDGET), ``decision_now`` (the new clock) and the
      group's ``completed`` flag;
    * per remote route ``r`` (cut order): ``delivered[r]`` and
      ``occupancy[r]`` -- the consumer-published credit state the
      producer's unmodified pump window reads;
    * per threshold register of ``cosim_done`` the group owns (sorted full
      names): its value as int64, so the leader compares the minima with
      live cross-member state.
    """

    group_index: int
    members: Tuple[Tuple[str, ...], ...]
    control_base: int
    observed: Tuple[str, ...]
    remote_route_cuts: Tuple[int, ...]
    remote_links: Tuple[_RemoteLink, ...]

    # -- slot addressing ----------------------------------------------------

    def arrive_a_slot(self, m: int) -> int:
        return self.control_base + 4 * m

    def arrive_b_slot(self, m: int) -> int:
        return self.control_base + 4 * m + 1

    def progress_slot(self, m: int) -> int:
        return self.control_base + 4 * m + 2

    def next_time_slot(self, m: int) -> int:
        return self.control_base + 4 * m + 3

    @property
    def _broadcast_base(self) -> int:
        return self.control_base + 4 * len(self.members)

    @property
    def release_slot(self) -> int:
        return self._broadcast_base

    @property
    def decision_slot(self) -> int:
        return self._broadcast_base + 1

    @property
    def decision_now_slot(self) -> int:
        return self._broadcast_base + 2

    @property
    def completed_slot(self) -> int:
        return self._broadcast_base + 3

    def delivered_slot(self, r: int) -> int:
        return self._broadcast_base + 4 + 2 * r

    def occupancy_slot(self, r: int) -> int:
        return self._broadcast_base + 4 + 2 * r + 1

    def observed_slot(self, o: int) -> int:
        return self._broadcast_base + 4 + 2 * len(self.remote_route_cuts) + o

    @property
    def slots(self) -> int:
        return (
            4 * len(self.members)
            + 4
            + 2 * len(self.remote_route_cuts)
            + len(self.observed)
        )


@dataclass(frozen=True)
class _MemberSpec:
    """One unit of placed work: a worker runs one or more of these."""

    global_index: int
    group_index: int
    member_index: int
    mode: str  # "solo" | "lockstep"
    domain_names: Tuple[str, ...]
    label: str


@dataclass
class _WorkerAssignment:
    """Everything one worker process needs (inherited via fork, never pickled)."""

    builder: Callable[..., Any]
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    backend: str
    members: List[_MemberSpec]
    plans: Dict[int, _GroupPlan]
    arena: Optional[_ShmArena]
    max_cycles: float
    max_iterations: int


@dataclass
class MemberOutcome:
    """Per-member accounting of one distributed run."""

    label: str
    group_index: int
    member_index: int
    mode: str
    domains: Tuple[str, ...]
    pid: int
    wall_seconds: float
    #: Ring counters: records/words shipped and received by this member,
    #: plus ring-full retries (backpressure events).
    carrier: Dict[str, int] = field(default_factory=dict)


@dataclass
class DistributedReport:
    """What :func:`run_distributed` hands back.

    ``result`` is bitwise identical to ``scheduler="grouped"`` on a fresh
    fabric; the rest is accounting: per-member outcomes, wall-clock time
    and the aggregate data plane (``records``/``words`` that physically
    crossed process boundaries as framed wire words, and ``full_retries``
    -- ring backpressure events).  ``fallback=True`` marks a platform
    without ``fork``, where the run degraded to the in-process grouped
    scheduler.
    """

    result: CosimResult
    outcomes: List[MemberOutcome]
    wall_seconds: float
    processes: int
    data_plane: Dict[str, int]
    fallback: bool = False

    def table(self) -> str:
        """Human-readable per-member summary."""
        lines = [
            f"{'member':<40} {'mode':<9} {'pid':>7} {'wall(s)':>8} "
            f"{'recs':>6} {'words':>8} {'full':>5}"
        ]
        for o in self.outcomes:
            c = o.carrier
            lines.append(
                f"{o.label:<40} {o.mode:<9} {o.pid:>7} {o.wall_seconds:>8.3f} "
                f"{c.get('records_out', 0):>6} {c.get('words_out', 0):>8} "
                f"{c.get('full_retries', 0):>5}"
            )
        d = self.data_plane
        lines.append(
            f"{self.processes} processes: {d['records']} records / {d['words']} "
            f"wire words crossed process boundaries, {d['full_retries']} "
            f"ring-full retries, {self.wall_seconds:.3f}s wall"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _carrier_stats(endpoints) -> Dict[str, int]:
    stats = {
        "records_out": 0,
        "words_out": 0,
        "records_in": 0,
        "words_in": 0,
        "full_retries": 0,
    }
    for ep in endpoints:
        stats["records_out"] += ep.records_out
        stats["words_out"] += ep.words_out
        stats["records_in"] += ep.records_in
        stats["words_in"] += ep.words_in
        stats["full_retries"] += ep.full_retries
    return stats


def _run_solo_member(
    fabric: CosimFabric, done, spec: _MemberSpec, a: _WorkerAssignment
) -> dict:
    """Run a whole group in this process: the group loop, unmodified."""
    t0 = time.perf_counter()
    result = fabric.run_group(
        spec.group_index,
        done,
        max_cycles=a.max_cycles,
        max_iterations=a.max_iterations,
    )
    return {
        "kind": "solo",
        "result": result,
        "observations": fabric.observations_for_domains(done, spec.domain_names),
        "pid": os.getpid(),
        "wall_seconds": time.perf_counter() - t0,
        "carrier": _carrier_stats(()),
    }


def _run_lockstep_member(
    fabric: CosimFabric, done, spec: _MemberSpec, a: _WorkerAssignment
) -> dict:
    """Advance one member (a subset of a group's domains) in lockstep.

    Replays the serial group loop's phase order per iteration -- deliver
    due messages, step hardware engines, step software engines, pump the
    transport -- over this member's engines and routes, with two barriers
    per iteration:

    * **A** after the member publishes its consumer-side credit state
      (delivered counts and endpoint occupancies), so every producer pumps
      against exactly the occupancy the serial pump phase would read;
    * **B** after the member publishes its progress bit, next event time
      and threshold-register values, after which the leader (member 0)
      replays the serial end-of-iteration decision -- quiescence check,
      budget check, done check -- and broadcasts CONTINUE (with the new
      clock), STOP or BUDGET.

    Freshly pumped records leave on the carriers between A and B of
    iteration ``i`` and are drained into the consumer's replica pool
    before the deliver phase of iteration ``i + 1`` -- the same pool state
    the serial loop would see, because a record pumped at ``i`` is never
    deliverable before ``i + 1``.
    """
    plan = a.plans[spec.group_index]
    g = spec.group_index
    my = spec.member_index
    group = fabric._groups[g]
    member_names = set(spec.domain_names)
    u, f, q = a.arena.u, a.arena.f, a.arena.q
    t0 = time.perf_counter()

    # The group runs with the predicate only if it owns one of its
    # registers, exactly as run_group does for solo members.
    done_g = done if g in fabric._threshold_groups(done) else None
    own_names = set(fabric.observations_for_domains(done, spec.domain_names))
    by_name = {reg.full_name: reg for reg, _ in done.thresholds}
    own_obs = [
        (o, by_name[nm]) for o, nm in enumerate(plan.observed) if nm in own_names
    ]
    # The leader's done check: this group's thresholds compare the cells
    # its members publish, other groups' read their reset values through
    # the active-group scope -- together exactly the serial evaluation.
    cell_of = {nm: plan.observed_slot(o) for o, nm in enumerate(plan.observed)}
    checks = [
        (cell_of.get(reg.full_name), reg, minimum) for reg, minimum in done.thresholds
    ]

    # -- engines: the group's engine order restricted to this member --------
    doms = [d for d in group.domains if d.name in member_names]
    hw_engines = [
        fabric.engines[d] for d in doms if fabric.engine_kinds[d.name] == "hw"
    ]
    sw_engines = [
        fabric.engines[d] for d in doms if fabric.engine_kinds[d.name] == "sw"
    ]

    # -- rings over the member-crossing links ---------------------------------
    endpoints: Dict[Tuple[str, str], _ShmRing] = {}
    for rl in plan.remote_links:
        if rl.src in member_names or rl.dst in member_names:
            endpoints[(rl.src, rl.dst)] = _ShmRing(a.arena, rl.ring_base, rl.capacity)

    gidx = fabric._group_index
    in_carriers: List[Tuple[Any, Any]] = []
    out_carriers: List[Tuple[Any, Any]] = []
    scan_pools: List[Any] = []
    for link in fabric.topology.links:
        if gidx.get(link.dst, gidx.get(link.src, 0)) != g:
            continue
        key = (link.src, link.dst)
        if link.dst in member_names:
            pool = fabric.topology.direction(link.src, link.dst).pool
            scan_pools.append(pool)
            if key in endpoints:
                in_carriers.append((endpoints[key], pool))
        elif link.src in member_names:
            pool = fabric.topology.direction(link.src, link.dst).pool
            scan_pools.append(pool)
            if key in endpoints:
                out_carriers.append((endpoints[key], pool))

    # -- transport routes: local pumps verbatim, remote pumps re-windowed ----
    generated = fabric._pump_fns is not None
    cell_of_cut = {cut: r for r, cut in enumerate(plan.remote_route_cuts)}
    pump_fns: List[Callable[[float], bool]] = []
    out_routes: List[Tuple[Any, int]] = []  # (vc, cell) for producer-side remotes
    in_routes: List[Tuple[int, Any, Any, Any]] = []  # (cell, vc, store, data reg)
    for j, route in enumerate(fabric._routes):
        sync, vc, peng, pstore, cstore, direction, sw_prod = route
        src = sync.domain_enq.name
        dst = sync.domain_deq.name
        if src in member_names and dst in member_names:
            pump_fns.append(
                fabric._pump_fns[j] if generated else partial(_pump_routes_interp, (route,))
            )
        elif src in member_names:
            r = cell_of_cut[j]
            occ_slot = plan.occupancy_slot(r)
            occ_fn = lambda u=u, k=occ_slot: u[k]  # noqa: E731
            if generated:
                pump_fns.append(
                    generate_transport_pump(
                        sync.data,
                        sync.depth,
                        peng,
                        cstore,
                        vc,
                        direction,
                        sw_prod,
                        occupancy_of=occ_fn,
                        name=f"{fabric.design.name}.route{j}.remote",
                    )
                )
            else:
                pump_fns.append(partial(_pump_routes_interp, (route,), occupancy_of=occ_fn))
            out_routes.append((vc, r))
        elif dst in member_names:
            in_routes.append((cell_of_cut[j], vc, cstore, sync.data))

    # -- delivery sweeps terminating in this member --------------------------
    if generated:
        deliver_fns = [
            fabric._deliver_fns[j]
            for j, d in enumerate(fabric._delivery_dsts)
            if d in member_names
        ]

        def deliver_due(now: float) -> bool:
            progress = False
            for fn in deliver_fns:
                progress |= fn(now)
            return progress

    else:
        droutes = [
            fabric._delivery_routes[j]
            for j, d in enumerate(fabric._delivery_dsts)
            if d in member_names
        ]
        by_id = fabric.vcs.by_id

        def deliver_due(now: float) -> bool:
            return _deliver_routes_interp(droutes, by_id, now)

    # -- barriers ------------------------------------------------------------
    M = len(plan.members)
    a_slots = [plan.arrive_a_slot(m) for m in range(M)]
    b_slots = [plan.arrive_b_slot(m) for m in range(M)]
    leader = my == 0

    def wait_at_least(idx: int, target: int, what: str) -> None:
        if u[idx] >= target:
            return
        deadline = time.monotonic() + _BARRIER_TIMEOUT
        spins = 0
        while u[idx] < target:
            spins += 1
            if spins & 0x3F == 0:
                time.sleep(0.00002)
                if time.monotonic() > deadline:
                    raise SimulationError(
                        f"distributed member {spec.label} timed out after "
                        f"{_BARRIER_TIMEOUT:.0f}s waiting for {what} "
                        f"(iteration {target})"
                    )

    def leader_evaluate() -> bool:
        ok = True
        for cell, reg, minimum in checks:
            value = fabric.read(reg) if cell is None else q[cell]
            if not value >= minimum:
                ok = False
        return ok

    last_delivered = [0] * len(out_routes)
    now = 0.0
    completed = False
    i = 0
    fabric._active_group = g
    try:
        if not (now <= a.max_cycles and i < a.max_iterations):
            raise group.budget_error(done_g, now, i)
        while True:
            i += 1

            # Phase 0: drain arrived wire records into the replica pools
            # (bookkeeping, not progress: the producer already counted the
            # send, and delivery happens below when a record is due).
            for ep, pool in in_carriers:
                while True:
                    rec = ep.pop_record()
                    if rec is None:
                        break
                    due, words = rec
                    vc_id, payload_len = unframe_header(words[0])
                    if payload_len != len(words) - 1:
                        raise SimulationError(
                            f"distributed member {spec.label}: framed record "
                            f"header declares {payload_len} payload words but "
                            f"{len(words) - 1} arrived on the carrier"
                        )
                    pool.push(vc_id, words, due)

            progress = False
            progress |= deliver_due(now)
            for engine in hw_engines:
                progress |= engine.step_cycle(now)
            for engine in sw_engines:
                progress |= engine.step(now)

            # Publish consumer-side credit state, then barrier A.
            for r, vc, cstore, data_reg in in_routes:
                u[plan.delivered_slot(r)] = vc.stats.messages_delivered
                u[plan.occupancy_slot(r)] = len(cstore[data_reg])
            u[a_slots[my]] = i
            for idx in a_slots:
                wait_at_least(idx, i, "barrier A (credit publish)")

            # Import peers' delivery acknowledgements (credit returns).
            for k, (vc, r) in enumerate(out_routes):
                seen = u[plan.delivered_slot(r)]
                vc.in_flight -= seen - last_delivered[k]
                last_delivered[k] = seen

            for pump in pump_fns:
                progress |= pump(now)

            # Ship freshly pumped records; a full carrier leaves the rest
            # queued in the local pool (pure backpressure -- the credit
            # window already bounds what the consumer must absorb, so this
            # only delays the physical copy, never the simulated timing).
            shipped_min: Optional[float] = None
            for ep, pool in out_carriers:
                while True:
                    n_words = pool.next_record_words()
                    if n_words == 0:
                        break
                    if not ep.can_ship(n_words):
                        ep.full_retries += 1
                        break
                    _vc_id, words, due = pool.pop_next()
                    ep.ship(due, words)
                    if shipped_min is None or due < shipped_min:
                        shipped_min = due

            # This member's next event time: in-transit records it just
            # shipped, its pools (arrived and unshipped), and its engines.
            local_next = shipped_min
            for pool in scan_pools:
                t = pool.next_due()
                if t is not None and (local_next is None or t < local_next):
                    local_next = t
            for engine in hw_engines:
                t = engine.next_completion_time()
                if t is not None and (local_next is None or t < local_next):
                    local_next = t
            for engine in sw_engines:
                t = engine.next_event_time(now)
                if t is not None and (local_next is None or t < local_next):
                    local_next = t

            # Publish loop inputs and threshold values, then barrier B.
            for o, reg in own_obs:
                value = fabric.read(reg)
                if value is True or value is False:
                    value = int(value)
                if not isinstance(value, int):
                    raise SimulationError(
                        f"distributed member {spec.label}: threshold register "
                        f"{reg.full_name} holds {value!r}, which does not fit "
                        "the control block's int64 cells; domain placement "
                        "needs integer-valued done thresholds (use "
                        "run_grouped for this design)"
                    )
                q[plan.observed_slot(o)] = value
            u[plan.progress_slot(my)] = 1 if progress else 0
            f[plan.next_time_slot(my)] = local_next if local_next is not None else _NAN
            u[b_slots[my]] = i

            if leader:
                for idx in b_slots:
                    wait_at_least(idx, i, "barrier B (decision inputs)")
                progress_any = any(u[plan.progress_slot(m)] for m in range(M))
                nexts = []
                for m in range(M):
                    t = f[plan.next_time_slot(m)]
                    if t == t:  # not NaN
                        nexts.append(t)
                if not progress_any and not nexts:
                    # Quiescent: finished or deadlocked -- ask the predicate.
                    done_now = leader_evaluate() if done_g is not None else True
                    u[plan.completed_slot] = 1 if done_now else 0
                    f[plan.decision_now_slot] = now
                    u[plan.decision_slot] = _STOP
                else:
                    new_now = (
                        now + 1.0 if progress_any else max(now + 1.0, min(nexts))
                    )
                    f[plan.decision_now_slot] = new_now
                    if not (new_now <= a.max_cycles and i < a.max_iterations):
                        u[plan.decision_slot] = _BUDGET
                    elif done_g is not None and leader_evaluate():
                        # The serial loop's top-of-iteration done check.
                        u[plan.completed_slot] = 1
                        u[plan.decision_slot] = _STOP
                    else:
                        u[plan.decision_slot] = _CONTINUE
                u[plan.release_slot] = i
            else:
                wait_at_least(plan.release_slot, i, "the leader's decision")

            decision = u[plan.decision_slot]
            decided_now = f[plan.decision_now_slot]
            if decision == _CONTINUE:
                now = decided_now
                continue
            if decision == _STOP:
                completed = bool(u[plan.completed_slot])
                now = decided_now
                break
            raise group.budget_error(done_g, decided_now, i)

        # -- member report: everything result assembly needs, as plain data --
        domains_report: Dict[str, Dict[str, Any]] = {}
        for d in doms:
            engine = fabric.engines[d]
            if fabric.engine_kinds[d.name] == "hw":
                domains_report[d.name] = {
                    "kind": "hw",
                    "fire_counts": dict(engine.fire_counts),
                    "firings": engine.total_firings,
                    "active_cycles": engine.cycles_active,
                }
            else:
                domains_report[d.name] = {
                    "kind": "sw",
                    "fire_counts": dict(engine.fire_counts),
                    "firings": engine.total_firings,
                    "busy_fpga_cycles": engine.busy_fpga_cycles,
                    "cpu_cycles": engine.cpu_cycles_total,
                    "cpu_cycles_wasted": engine.cpu_cycles_wasted,
                    "cpu_cycles_driver": engine.cpu_cycles_driver,
                    "guard_failures": engine.guard_failures,
                }
        vcs_report: Dict[int, Tuple[int, int, int]] = {}
        for j, route in enumerate(fabric._routes):
            sync, vc = route[0], route[1]
            if sync.domain_enq.name in member_names:
                vcs_report[j] = (
                    vc.stats.messages_sent,
                    vc.stats.words_sent,
                    vc.stats.stalled_on_credit,
                )
        links_report: Dict[str, Tuple[int, int, float]] = {}
        for link in fabric.topology.links:
            if gidx.get(link.dst, gidx.get(link.src, 0)) != g:
                continue
            if link.src in member_names:
                d = fabric.topology.direction(link.src, link.dst)
                links_report[f"{link.src}->{link.dst}"] = (
                    d.stats.messages,
                    d.stats.words,
                    d.stats.busy_cycles,
                )
        return {
            "kind": "lockstep",
            "group": g,
            "member": my,
            "now": now,
            "completed": completed,
            "iterations": i,
            "domains": domains_report,
            "vcs": vcs_report,
            "links": links_report,
            "observations": fabric.observations_for_domains(done, spec.domain_names),
            "pid": os.getpid(),
            "wall_seconds": time.perf_counter() - t0,
            "carrier": _carrier_stats(endpoints.values()),
        }
    finally:
        fabric._active_group = None


def _worker_main(a: _WorkerAssignment, conn) -> None:
    """Worker entry: elaborate once, run assigned members, report per member."""
    try:
        fabric = None
        done = None
        snap = None
        for spec in a.members:
            try:
                if fabric is None:
                    workload = a.builder(*a.args, **a.kwargs)
                    done = workload.cosim_done
                    fabric = CosimFabric(workload.design, backend=a.backend)
                    if len(a.members) > 1:
                        # More members will follow: remember reset state so
                        # each runs from it, like a fresh elaboration would.
                        snap = fabric.snapshot()
                elif snap is not None:
                    fabric.restore(snap)
                if spec.mode == "solo":
                    report = _run_solo_member(fabric, done, spec, a)
                else:
                    report = _run_lockstep_member(fabric, done, spec, a)
                conn.send(("done", spec.global_index, report))
            except BaseException as exc:
                conn.send(("error", spec.global_index, _picklable_error(exc)))
                return
        conn.send(("bye", -1, None))
    except Exception:  # pragma: no cover - reporting channel itself broke
        pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        if a.arena is not None:
            a.arena.close()


# ---------------------------------------------------------------------------
# parent side: planning, dispatch, reassembly
# ---------------------------------------------------------------------------


def _plan_groups(
    parent: CosimFabric,
    done: ThresholdDone,
    layouts: List[Dict[str, Any]],
    member_domains: List[List[Tuple[str, ...]]],
    ring_words: Optional[int],
) -> Tuple[Dict[int, _GroupPlan], int]:
    """Control-block and ring assignment for every lockstep group.

    Returns ``(plans, total arena slots)``.  Ring
    capacities default to twice the worst-case credit-window volume of the
    link's routes (``depth * (words_per_element + record overhead)``
    summed), floored at 256 slots -- so backpressure is the exception, not
    the steady state; ``ring_words`` overrides the capacity (tests use a
    tiny ring to exercise the full-ring path).
    """
    plans: Dict[int, _GroupPlan] = {}
    cursor = 0
    for g, members in enumerate(member_domains):
        if len(members) == 1:
            continue
        layout = layouts[g]
        member_of: Dict[str, int] = {}
        for mi, names in enumerate(members):
            for nm in names:
                member_of[nm] = mi
        remote_routes = [
            r for r in layout["routes"] if member_of[r["src"]] != member_of[r["dst"]]
        ]
        remote_cuts = tuple(r["cut_index"] for r in remote_routes)
        by_link: Dict[Tuple[str, str], List[dict]] = {}
        for r in remote_routes:
            by_link.setdefault((r["src"], r["dst"]), []).append(r)
        observed = tuple(
            sorted(
                {
                    reg.full_name
                    for reg, _ in done.thresholds
                    if parent.group_of_register(reg) == g
                }
            )
        )
        control_base = cursor
        cursor += 4 * len(members) + 4 + 2 * len(remote_routes) + len(observed)
        links: List[_RemoteLink] = []
        for src, dst in layout["links"]:
            routes = by_link.get((src, dst))
            if not routes:
                continue
            need = sum(r["depth"] * (r["words_per_element"] + 2) for r in routes)
            capacity = ring_words if ring_words is not None else max(256, 2 * need)
            floor = max(r["words_per_element"] for r in routes) + 2
            if capacity < floor:
                raise ValueError(
                    f"ring_words={capacity} cannot hold one framed record "
                    f"of link {src}->{dst} (needs at least {floor} slots)"
                )
            links.append(_RemoteLink(src, dst, ring_base=cursor, capacity=capacity))
            cursor += _RING_DATA + capacity
        plans[g] = _GroupPlan(
            group_index=g,
            members=tuple(tuple(m) for m in members),
            control_base=control_base,
            observed=observed,
            remote_route_cuts=remote_cuts,
            remote_links=tuple(links),
        )
    return plans, cursor


def _assemble_lockstep_result(
    design_name: str,
    layout: Dict[str, Any],
    plan: _GroupPlan,
    reports: List[dict],
) -> CosimResult:
    """Reassemble one lockstep group's ``CosimResult`` from member reports.

    Replicates ``_GroupFabric.result`` field for field: fire counts from
    hardware then software engines in group engine order, virtual channels
    in cut order, domains in engine order, link statistics in topology
    registration order -- with each number taken from the member that owns
    the engine (or the producing/sending side, for channels).  Ordered
    float sums accumulate in the serial order, so the result is bitwise
    identical to an in-process group run.
    """
    member_of: Dict[str, int] = {}
    for mi, names in enumerate(plan.members):
        for nm in names:
            member_of[nm] = mi
    nows = {r["now"] for r in reports}
    flags = {r["completed"] for r in reports}
    if len(nows) != 1 or len(flags) != 1:
        raise SimulationError(
            f"distributed group {plan.group_index} of {design_name} diverged: "
            f"member clocks {sorted(nows)}, completion flags {sorted(flags)}"
        )

    def dom(name: str) -> Dict[str, Any]:
        return reports[member_of[name]]["domains"][name]

    fire_counts: Dict[str, int] = {}
    for name, kind in layout["domains"]:
        if kind == "hw":
            fire_counts.update(dom(name)["fire_counts"])
    for name, kind in layout["domains"]:
        if kind != "hw":
            fire_counts.update(dom(name)["fire_counts"])
    vc_stats: Dict[str, Dict[str, int]] = {}
    for route in layout["routes"]:
        sent, words, stalls = reports[member_of[route["src"]]]["vcs"][
            route["cut_index"]
        ]
        vc_stats[route["key"]] = {
            "messages": sent,
            "words": words,
            "credit_stalls": stalls,
        }
    domain_stats: Dict[str, Dict[str, Any]] = {}
    for name, kind in layout["domains"]:
        rep = dom(name)
        if kind == "hw":
            domain_stats[name] = {
                "kind": "hw",
                "firings": rep["firings"],
                "active_cycles": rep["active_cycles"],
            }
        else:
            domain_stats[name] = {
                "kind": "sw",
                "firings": rep["firings"],
                "busy_fpga_cycles": rep["busy_fpga_cycles"],
                "cpu_cycles": rep["cpu_cycles"],
                "guard_failures": rep["guard_failures"],
            }
    sw_reports = [dom(name) for name, kind in layout["domains"] if kind != "hw"]
    hw_reports = [dom(name) for name, kind in layout["domains"] if kind == "hw"]
    link_rows = []
    for src, dst in layout["links"]:
        mi = member_of.get(src)
        row = reports[mi]["links"].get(f"{src}->{dst}") if mi is not None else None
        link_rows.append(row if row is not None else (0, 0, 0.0))
    return CosimResult(
        design_name=design_name,
        fpga_cycles=reports[0]["now"],
        completed=reports[0]["completed"],
        sw_busy_fpga_cycles=sum(r["busy_fpga_cycles"] for r in sw_reports),
        sw_cpu_cycles=sum(r["cpu_cycles"] for r in sw_reports),
        sw_cpu_cycles_wasted=sum(r["cpu_cycles_wasted"] for r in sw_reports),
        sw_cpu_cycles_driver=sum(r["cpu_cycles_driver"] for r in sw_reports),
        sw_firings=sum(r["firings"] for r in sw_reports),
        sw_guard_failures=sum(r["guard_failures"] for r in sw_reports),
        hw_firings=sum(r["firings"] for r in hw_reports),
        hw_active_cycles=sum(r["active_cycles"] for r in hw_reports),
        channel_messages=sum(row[0] for row in link_rows),
        channel_words=sum(row[1] for row in link_rows),
        channel_busy_cycles=sum(row[2] for row in link_rows),
        fire_counts=fire_counts,
        vc_stats=vc_stats,
        domain_stats=domain_stats,
    )


def run_distributed(
    builder: Callable[..., Any],
    args: Tuple[Any, ...] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    *,
    backend: Optional[str] = None,
    placement: str = "domain",
    carrier: str = "shm",
    processes: Optional[int] = None,
    max_cycles: float = 500_000_000.0,
    max_iterations: int = 5_000_000,
    ring_words: Optional[int] = None,
) -> DistributedReport:
    """Run ``builder(*args, **kwargs)``'s design distributed across processes.

    ``builder`` must be a module-level callable returning a workload whose
    ``cosim_done`` is a :class:`~repro.sim.cosim.ThresholdDone` (else a
    ``TypeError``, before any worker starts; the compile-once /
    run-anywhere contract of :mod:`repro.sim.pool`): worker processes
    re-elaborate the design from the spec, so nothing elaborated ever
    crosses a process boundary -- only framed wire words (the data plane)
    and plain-data member reports (the result plane).

    Every multi-domain group splits into one member process per domain,
    joined by the lockstep protocol, with every member-crossing cut link
    carried as framed words over a shared-memory ring; single-domain
    groups run whole, packed round-robin onto at most ``processes``
    workers.  ``placement`` and ``carrier`` accept only ``"domain"`` and
    ``"shm"``.  ``ring_words`` forces the per-link ring capacity (tests
    use a tiny ring to exercise backpressure).

    ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend`; every worker
    elaborates under the resolved backend.

    The returned report's ``result`` is bitwise identical to
    ``scheduler="grouped"`` on a fresh elaboration, and a failing run
    raises the lowest group's error, as that scheduler does.  Platforms
    without the ``fork`` start method fall back to the in-process grouped
    scheduler (``fallback=True``).
    """
    if placement != "domain":
        raise ValueError(f"unknown placement {placement!r} (expected 'domain')")
    if carrier != "shm":
        raise ValueError(f"unknown carrier {carrier!r} (expected 'shm')")
    backend = resolve_backend(backend)
    kwargs = dict(kwargs or {})
    t0 = time.perf_counter()
    workload = builder(*args, **kwargs)
    done = require_thresholds(workload.cosim_done, workload.design.name)
    # The parent never executes a rule: interp elaboration skips the code
    # generation each worker pays for its own run.
    parent = CosimFabric(workload.design, backend="interp")
    n_groups = parent.group_count

    if done(parent):
        merged = CosimResult.merge(
            [parent._groups[i].result(True) for i in range(n_groups)]
        )
        merged.completed = True
        return DistributedReport(
            result=merged,
            outcomes=[],
            wall_seconds=time.perf_counter() - t0,
            processes=0,
            data_plane={"records": 0, "words": 0, "full_retries": 0},
        )

    if "fork" not in multiprocessing.get_all_start_methods():
        # No usable fork: run the identical grouped semantics in-process.
        fabric = CosimFabric(workload.design, backend=backend)
        result = fabric.run(done, max_cycles=max_cycles, max_iterations=max_iterations)
        return DistributedReport(
            result=result,
            outcomes=[],
            wall_seconds=time.perf_counter() - t0,
            processes=1,
            data_plane={"records": 0, "words": 0, "full_retries": 0},
            fallback=True,
        )
    ctx = multiprocessing.get_context("fork")

    # -- placement: groups -> members ---------------------------------------
    layouts = [parent.group_layout(i) for i in range(n_groups)]
    member_domains: List[List[Tuple[str, ...]]] = []
    for layout in layouts:
        names = [nm for nm, _kind in layout["domains"]]
        if len(names) == 1:
            member_domains.append([tuple(names)])
        else:
            member_domains.append([(nm,) for nm in names])

    specs: List[_MemberSpec] = []
    solo_specs: List[_MemberSpec] = []
    lockstep_specs: List[_MemberSpec] = []
    for g, members in enumerate(member_domains):
        for m, names in enumerate(members):
            if len(members) == 1:
                spec = _MemberSpec(
                    len(specs), g, m, "solo", names, f"{parent.design.name}[g{g}]"
                )
                solo_specs.append(spec)
            else:
                spec = _MemberSpec(
                    len(specs),
                    g,
                    m,
                    "lockstep",
                    names,
                    f"{parent.design.name}[g{g}:{'+'.join(names)}]",
                )
                lockstep_specs.append(spec)
            specs.append(spec)

    plans, total_slots = _plan_groups(parent, done, layouts, member_domains, ring_words)
    arena = _ShmArena(total_slots) if plans else None

    shared = dict(
        builder=builder,
        args=tuple(args),
        kwargs=kwargs,
        backend=backend,
        plans=plans,
        arena=arena,
        max_cycles=max_cycles,
        max_iterations=max_iterations,
    )
    assignments: List[_WorkerAssignment] = []
    if solo_specs:
        n_workers = (
            len(solo_specs)
            if processes is None
            else max(1, min(processes, len(solo_specs)))
        )
        for w in range(n_workers):
            assignments.append(
                _WorkerAssignment(members=solo_specs[w::n_workers], **shared)
            )
    for spec in lockstep_specs:
        assignments.append(_WorkerAssignment(members=[spec], **shared))

    # -- dispatch and collection --------------------------------------------
    # Members fail in any order, but the serial grouped scheduler runs the
    # groups in order and raises the lowest group's error.  So a member
    # error does not end collection: the run goes on until every member of
    # a lower group has reported, then raises the lowest group's error.
    label_of = {spec.global_index: spec.label for spec in specs}
    group_of = {spec.global_index: spec.group_index for spec in specs}
    reports: Dict[int, dict] = {}
    procs: List[Any] = []
    open_conns: Dict[int, Any] = {}
    pending: Dict[int, set] = {}
    #: group index -> the first error one of its members reported.
    errors: Dict[int, BaseException] = {}

    def awaited(w: int) -> List[int]:
        """Worker ``w``'s pending members that can still decide the error."""
        bound = min(errors, default=n_groups)
        return sorted(idx for idx in pending[w] if group_of[idx] < bound)

    try:
        for w, assignment in enumerate(assignments):
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main, args=(assignment, send_end), daemon=True
            )
            proc.start()
            send_end.close()
            procs.append(proc)
            open_conns[w] = recv_end
            pending[w] = {s.global_index for s in assignment.members}

        last_heard = time.monotonic()
        while any(awaited(w) for w in pending):
            ready = (
                mp_connection.wait(list(open_conns.values()), timeout=0.2)
                if open_conns
                else ()
            )
            for conn in ready:
                w = next(k for k, c in open_conns.items() if c is conn)
                try:
                    kind, gmi, payload = conn.recv()
                except EOFError:
                    conn.close()
                    del open_conns[w]
                    continue
                last_heard = time.monotonic()
                if kind == "done":
                    reports[gmi] = payload
                    pending[w].discard(gmi)
                elif kind == "error":
                    pending[w].discard(gmi)
                    if not isinstance(payload, SimulationError):
                        payload = SimulationError(
                            f"distributed member {label_of[gmi]} failed: "
                            f"{type(payload).__name__}: {payload}"
                        )
                    # e.g. the members' budget error: identical to the
                    # serial scheduler's, re-raised verbatim.
                    errors.setdefault(group_of[gmi], payload)
            if ready:
                continue
            for w, proc in enumerate(procs):
                lost = awaited(w)
                if (
                    lost
                    and proc.exitcode is not None
                    and (w not in open_conns or not open_conns[w].poll())
                ):
                    labels = ", ".join(label_of[idx] for idx in lost)
                    errors[group_of[lost[0]]] = SimulationError(
                        f"distributed worker for {labels} died with exit "
                        f"code {proc.exitcode} before reporting its results"
                    )
            stuck = [label_of[idx] for w in sorted(pending) for idx in awaited(w)]
            if stuck and time.monotonic() - last_heard > _POOL_STALL_SECONDS:
                raise SimulationError(
                    f"distributed run stalled: no member report for "
                    f"{_POOL_STALL_SECONDS:.0f}s (waiting on {', '.join(stuck)})"
                )
        if errors:
            raise errors[min(errors)]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10.0)
        for conn in open_conns.values():
            try:
                conn.close()
            except Exception:
                pass
        if arena is not None:
            arena.unlink()

    # -- reassembly ----------------------------------------------------------
    by_member = {
        (spec.group_index, spec.member_index): reports[spec.global_index]
        for spec in specs
    }
    group_results: List[CosimResult] = []
    finals: Dict[str, Any] = {}
    for g in range(n_groups):
        members = member_domains[g]
        if len(members) == 1:
            rep = by_member[(g, 0)]
            group_results.append(rep["result"])
            finals.update(rep["observations"])
        else:
            mreports = [by_member[(g, m)] for m in range(len(members))]
            group_results.append(
                _assemble_lockstep_result(
                    parent.design.name, layouts[g], plans[g], mreports
                )
            )
            for rep in mreports:
                finals.update(rep["observations"])
    merged = CosimResult.merge(group_results)
    merged.completed = done.met_by(finals)

    outcomes: List[MemberOutcome] = []
    data_plane = {"records": 0, "words": 0, "full_retries": 0}
    for spec in specs:
        rep = reports[spec.global_index]
        carrier_stats = dict(rep.get("carrier") or {})
        data_plane["records"] += carrier_stats.get("records_out", 0)
        data_plane["words"] += carrier_stats.get("words_out", 0)
        data_plane["full_retries"] += carrier_stats.get("full_retries", 0)
        outcomes.append(
            MemberOutcome(
                label=spec.label,
                group_index=spec.group_index,
                member_index=spec.member_index,
                mode=spec.mode,
                domains=spec.domain_names,
                pid=rep.get("pid", 0),
                wall_seconds=rep.get("wall_seconds", 0.0),
                carrier=carrier_stats,
            )
        )
    return DistributedReport(
        result=merged,
        outcomes=outcomes,
        wall_seconds=time.perf_counter() - t0,
        processes=len(assignments),
        data_plane=data_plane,
    )
