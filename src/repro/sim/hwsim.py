"""Cycle-level simulator for a hardware partition.

The hardware implementation of a rule-based design executes, in every clock
cycle, a maximal set of enabled rules that the static conflict analysis has
shown to be safely concurrent (Section 6.1).  The engine here does exactly
that: per cycle it evaluates the guards of the schedulable rules, selects a
conflict-free subset with :class:`~repro.core.scheduler.HwSchedule`, and
commits their updates in a sequential order consistent with one-rule-at-a-time
semantics.  Rules whose bodies contain multi-cycle kernels (e.g. a pipelined
radix stage or a BVH intersection test) occupy their state for the kernel
latency before committing, which models a per-rule FSM.

The engine is driven by the co-simulator one clock edge at a time and reports
whether it made progress, so the co-simulator can skip over idle stretches
(e.g. while the hardware waits ~100 cycles for a bus response) without
simulating every empty cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.analysis import rule_read_set, rule_write_set
from repro.core.module import Register, Rule
from repro.core.pycodegen import generate_hw_step, generate_rule_execs, resolve_backend
from repro.core.scheduler import HwSchedule, RuleWakeup
from repro.core.semantics import Evaluator, Store, commit, try_rule
from repro.sim.costmodel import HwLatencyAccumulator


class HwEngine:
    """Executes the rules of one hardware partition, cycle by cycle.

    ``backend="interp"`` evaluates rules through the tree-walking
    :class:`~repro.core.semantics.Evaluator` (guards are checked with one
    evaluation, then the selected rules are re-evaluated under the latency
    accumulator, exactly like the reference implementation always did);
    the class's :meth:`step_cycle` is that reference, and
    :class:`~repro.sim.costmodel.HwLatencyAccumulator` its latency model.
    ``backend="source"`` replaces ``step_cycle`` on the instance with a
    generated cycle (:func:`~repro.core.pycodegen.generate_hw_step`) that
    has the engine's static schedule compiled in: one inline block per
    rule, in engine order, fires it through its generated ``latency``
    function *once*, computing updates and the FSM latency the kernels'
    ``hw_cycles`` and the memories' ``read_latency`` add (folded into the
    function at generation); selection is a chain of booleans unrolled from
    the conflict matrix; and a chosen rule is only re-evaluated if an
    earlier rule of the cycle committed to a register it reads.  The source
    backend also uses dirty-set scheduling: a rule whose guard failed is
    not re-checked until something it reads is written, and a cycle in
    which every rule is asleep or busy (none due) ends at once.  In that
    mode the engine wraps the store it is given to observe external
    writes; always use ``engine.store`` (the live store) after
    construction.
    """

    def __init__(
        self,
        rules: List[Rule],
        store: Store,
        name: str = "HW",
        backend: Optional[str] = None,
    ):
        backend = resolve_backend(backend)
        self.name = name
        self.rules = list(rules)
        self.backend = backend
        if backend == "source":
            self._wakeup: Optional[RuleWakeup] = RuleWakeup(self.rules)
            self.store = self._wakeup.wrap_store(store)
        else:
            self._wakeup = None
            self.store = store
        self.schedule = HwSchedule(self.rules)
        self.evaluator = Evaluator()
        self._gen = None
        self._step_gen = None
        #: rule -> (finish_time, deferred updates) for in-flight multi-cycle rules.
        self.busy: Dict[Rule, Tuple[float, Dict[Register, Any]]] = {}
        #: reference-counted union of the busy rules' write sets (kept
        #: incrementally -- rebuilding it per cycle dominated busy designs).
        self._locked_count: Dict[Register, int] = {}
        #: earliest finish time among busy rules (None when idle).
        self._next_finish: Optional[float] = None
        #: deliveries queued because their target register was locked by a busy rule.
        self._pending_deliveries: List[Tuple[Register, Any]] = []
        self._write_sets: Dict[Rule, Set[Register]] = {
            rule: set(rule_write_set(rule)) for rule in self.rules
        }
        self._read_sets: Dict[Rule, Set[Register]] = {
            rule: set(rule_read_set(rule)) for rule in self.rules
        }
        # Statistics
        self.fire_counts: Dict[str, int] = {r.full_name: 0 for r in self.rules}
        self.cycles_active = 0
        self.total_firings = 0
        self.last_cycle_stepped: Optional[float] = None
        # Source backend: a fused generated step_cycle over the rules'
        # latency functions (``_gen`` holds one unit per rule) shadows the
        # class method.  Installed last so the generated module pre-binds
        # the fully initialised engine state (busy table, locked view,
        # wakeup).
        if backend == "source":
            execs, self._gen = generate_rule_execs(self.rules, name)
            self._step_gen = generate_hw_step(self, dict(zip(self.rules, execs)))
            self.step_cycle = self._step_gen.namespace["step_cycle"]

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture every mutable field as plain data (O(state), no recompilation).

        Store values are shared shallowly under the engines' rebind-only
        contract; the in-flight rule table copies its per-rule deferred
        update dicts (a rule commit mutates nothing inside them, but the
        table itself changes as rules finish).
        """
        wakeup = self._wakeup
        return (
            dict(self.store),
            bytes(wakeup.sleeping) if wakeup is not None else None,
            wakeup.n_sleeping if wakeup is not None else 0,
            {rule: (finish, dict(updates)) for rule, (finish, updates) in self.busy.items()},
            dict(self._locked_count),
            self._next_finish,
            list(self._pending_deliveries),
            dict(self.fire_counts),
            self.cycles_active,
            self.total_firings,
            self.last_cycle_stepped,
        )

    def restore(self, snap: tuple) -> None:
        """Reset the engine to a snapshot, in place.

        The store keeps its identity (transport closures pre-bind it and the
        bound ``locked_registers`` method): contents are rewritten through
        the unbound ``dict`` methods (no wake callbacks), the wakeup state is
        restored explicitly, and ``_locked_count`` is refilled in place so
        the pre-bound ``locked_registers`` view stays truthful.
        """
        (
            contents,
            sleeping,
            n_sleeping,
            busy,
            locked_count,
            self._next_finish,
            pending_deliveries,
            fire_counts,
            self.cycles_active,
            self.total_firings,
            self.last_cycle_stepped,
        ) = snap
        store = self.store
        dict.clear(store)
        dict.update(store, contents)
        wakeup = self._wakeup
        if wakeup is not None:
            wakeup.sleeping[:] = sleeping
            wakeup.n_sleeping = n_sleeping
        self.busy.clear()
        self.busy.update(
            {rule: (finish, dict(updates)) for rule, (finish, updates) in busy.items()}
        )
        self._locked_count.clear()
        self._locked_count.update(locked_count)
        self._pending_deliveries = list(pending_deliveries)
        self.fire_counts.clear()
        self.fire_counts.update(fire_counts)

    # -- channel-facing API ---------------------------------------------------

    def locked_registers(self):
        """Registers owned by in-flight multi-cycle rules (their deferred updates).

        The co-simulator's transport layer must not mutate these concurrently,
        otherwise the deferred commit would clobber the transport's change.
        Returns a set-like view (supports ``in``, ``&`` and iteration).
        """
        return self._locked_count.keys()

    def _lock_rule(self, rule: Rule, finish: float, updates: Dict[Register, Any]) -> None:
        self.busy[rule] = (finish, updates)
        locked = self._locked_count
        for reg in self._write_sets[rule]:
            locked[reg] = locked.get(reg, 0) + 1
        if self._next_finish is None or finish < self._next_finish:
            self._next_finish = finish

    def _unlock_rule(self, rule: Rule) -> Dict[Register, Any]:
        _, updates = self.busy.pop(rule)
        locked = self._locked_count
        for reg in self._write_sets[rule]:
            count = locked[reg] - 1
            if count:
                locked[reg] = count
            else:
                del locked[reg]
        self._next_finish = (
            min(finish for finish, _ in self.busy.values()) if self.busy else None
        )
        return updates

    def deliver(self, reg: Register, item: Any, now: float) -> None:
        """Append an arriving element to an endpoint FIFO register.

        If the register is currently locked by an in-flight multi-cycle rule
        the delivery is parked and applied as soon as the rule commits, so no
        update is ever lost.
        """
        if reg in self.locked_registers():
            self._pending_deliveries.append((reg, item))
        else:
            self.store[reg] = tuple(self.store[reg]) + (item,)

    def _flush_pending_deliveries(self) -> None:
        if not self._pending_deliveries:
            return
        locked = self.locked_registers()
        still_pending: List[Tuple[Register, Any]] = []
        for reg, item in self._pending_deliveries:
            if reg in locked:
                still_pending.append((reg, item))
            else:
                self.store[reg] = tuple(self.store[reg]) + (item,)
        self._pending_deliveries = still_pending

    # -- execution -------------------------------------------------------------

    def next_completion_time(self) -> Optional[float]:
        return self._next_finish

    def step_cycle(self, now: float) -> bool:
        """Simulate one clock edge at time ``now``.  Returns True on progress.

        The ``interp`` backend's reference cycle; under ``source`` a
        generated cycle with dirty-set scheduling replaces this method on
        the instance.
        """
        if not self.rules:
            return False
        if self.last_cycle_stepped == now:
            return False
        self.last_cycle_stepped = now

        progress = False

        # 1. Complete multi-cycle rules whose latency has elapsed.
        if self._next_finish is not None and self._next_finish <= now:
            finished = [rule for rule, (finish, _) in self.busy.items() if finish <= now]
            for rule in finished:
                commit(self.store, self._unlock_rule(rule))
                progress = True
            self._flush_pending_deliveries()

        # 2. Determine which rules may attempt to fire this cycle.
        locked = self.locked_registers()
        candidates = [
            rule
            for rule in self.rules
            if rule not in self.busy and not (self._write_sets[rule] & locked)
        ]
        if not candidates:
            if progress:
                self.cycles_active += 1
            return progress

        enabled: List[Rule] = [
            rule for rule in candidates if try_rule(rule, self.store, self.evaluator).fired
        ]
        chosen = self.schedule.select(enabled)

        # 3. Execute the chosen set sequentially (consistent with the
        #    one-rule-at-a-time semantics the concurrent schedule must respect).
        #    A rule whose updates are deferred (multi-cycle kernel) locks its
        #    write set for the rest of the cycle as well, so no other rule in
        #    the same cycle can produce an immediate update that the deferred
        #    commit would later clobber.
        cycle_locked: Set[Register] = set(locked)
        for rule in chosen:
            if self._write_sets[rule] & cycle_locked:
                continue
            latency_hooks = HwLatencyAccumulator()
            outcome = try_rule(rule, self.store, self.evaluator, latency_hooks)
            if not outcome.fired:
                # An earlier rule in the same cycle changed the state under it.
                continue
            self.fire_counts[rule.full_name] += 1
            self.total_firings += 1
            progress = True
            if latency_hooks.latency <= 1:
                commit(self.store, outcome.updates)
            else:
                self._lock_rule(rule, now + latency_hooks.latency, outcome.updates)
                cycle_locked |= self._write_sets[rule]

        if progress:
            self.cycles_active += 1
        return progress
