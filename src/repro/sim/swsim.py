"""Execution engine for a software partition.

Models the single-threaded C++ implementation the BCL compiler generates
(Sections 6.2 and 6.3): a scheduler repeatedly picks a rule, evaluates it
against the (possibly shadowed) program state, and either commits or rolls
back.  The engine executes the *compiled* form of each rule
(:class:`~repro.core.optimize.CompiledRule`), so every optimisation switch --
guard lifting, method inlining / try-catch avoidance, sequentialisation,
partial shadowing -- changes both what is executed and what it costs, which
is how the ablation benchmarks observe their effect.

Costs are accumulated in CPU cycles by :class:`~repro.sim.costmodel.SwCostAccumulator`
and converted to FPGA cycles (the paper's reporting unit) by the platform's
clock ratio.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import GuardFail
from repro.core.module import Register, Rule
from repro.core.optimize import CompiledRule, OptimizationConfig, compile_rule
from repro.core.pycodegen import generate_counting_attempts, generate_sw_step, resolve_backend
from repro.core.runstate import CHILD, COPY, DICT, SCALAR, SLICE, run_state
from repro.core.scheduler import RuleWakeup, SwSchedule
from repro.core.semantics import Evaluator, Store, commit
from repro.platform.platform import Platform
from repro.sim.costmodel import SwCostAccumulator

#: Shared empty set-like view for engines with no in-flight rule.
_EMPTY_LOCKED: frozenset = frozenset()


@run_state
class SwEngine:
    """Executes the rules of one software partition under the cost model.

    ``backend`` selects how a rule attempt is evaluated: ``"interp"`` walks
    the optimised rule's guard/body ASTs through the tree-walking
    :class:`~repro.core.semantics.Evaluator` (the class's :meth:`step` is
    that exhaustive reference scan); ``"source"`` replaces ``step`` on the
    instance with a fused generated superstep over flat generated-Python
    attempt functions (:mod:`repro.core.pycodegen`).  Both charge
    identical CPU-cycle costs.  ``None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend`.

    The source backend additionally uses dirty-set scheduling: a rule
    whose attempt failed is skipped (not re-evaluated) until a register in
    its read set is written.  The cost model still charges the skipped
    attempt -- the scheduler of the generated C++ really would re-run the
    guard -- using the recorded cost of the last real attempt, which is
    exact because nothing the rule reads has changed.  In that mode the
    engine wraps the store it is given to observe external writes; always
    use ``engine.store`` (the live store) after construction.
    """

    #: Store values are shared with the snapshot: rules and transports
    #: rebind a register's value and never mutate it in place.
    RUN_STATE = (
        ("store", DICT),
        ("_wakeup", CHILD),
        ("busy_until", SCALAR),
        ("_pending_updates", COPY),
        ("_pending_deliveries", SLICE),
        ("_last_fired", SCALAR),
        ("_last_fail_cost", DICT),
        ("fire_counts", DICT),
        ("total_firings", SCALAR),
        ("cpu_cycles_useful", SCALAR),
        ("cpu_cycles_wasted", SCALAR),
        ("cpu_cycles_driver", SCALAR),
        ("guard_failures", SCALAR),
        ("busy_fpga_cycles", SCALAR),
    )

    def __init__(
        self,
        rules: List[Rule],
        store: Store,
        platform: Platform,
        config: OptimizationConfig = OptimizationConfig.all(),
        all_registers: Optional[List[Register]] = None,
        name: str = "SW",
        max_loop_iterations: int = 1_000_000,
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
        self.platform = platform
        self.config = config
        self.schedule = SwSchedule(self.rules)
        self.evaluator = Evaluator(max_loop_iterations=max_loop_iterations)
        self.compiled: Dict[Rule, CompiledRule] = {
            rule: compile_rule(rule, config, all_registers) for rule in self.rules
        }
        #: CPU cost of each rule's most recent failed attempt (valid while
        #: the rule sleeps -- its read set is untouched, so the cost is too).
        self._last_fail_cost: Dict[Rule, float] = {}
        self.busy_until: float = 0.0
        self._pending_updates: Optional[Dict[Register, Any]] = None
        self._pending_deliveries: List[Tuple[Register, Any]] = []
        self._last_fired: Optional[Rule] = None
        # Statistics (CPU cycles unless noted otherwise).
        self.fire_counts: Dict[str, int] = {r.full_name: 0 for r in self.rules}
        self.total_firings = 0
        self.cpu_cycles_useful = 0.0
        self.cpu_cycles_wasted = 0.0
        self.cpu_cycles_driver = 0.0
        self.guard_failures = 0
        self.busy_fpga_cycles = 0.0
        # Source backend: generated per-rule attempt functions (``_gen``
        # holds one unit per rule) plus a fused superstep that shadows the
        # class's ``step``.  Installed last so the generated module
        # pre-binds the fully initialised engine state.
        self._gen = None
        self._step_gen = None
        if backend == "source":
            attempts, self._gen = generate_counting_attempts(
                self.rules,
                self.compiled,
                platform.sw_costs,
                config,
                name,
                max_loop_iterations,
            )
            self._step_gen = generate_sw_step(self, attempts)
            self.step = self._step_gen.namespace["step"]

    # -- channel-facing API ----------------------------------------------------

    def deliver(self, reg: Register, item: Any, now: float) -> None:
        """Deliver an arriving element to an endpoint FIFO register.

        Deliveries land between rule executions (the driver runs when the
        runtime is at a transaction boundary), so while a rule is in flight
        they are parked.
        """
        if self.is_busy(now) or self._pending_updates is not None:
            self._pending_deliveries.append((reg, item))
        else:
            self.store[reg] = tuple(self.store[reg]) + (item,)

    def _flush_pending_deliveries(self) -> None:
        for reg, item in self._pending_deliveries:
            self.store[reg] = tuple(self.store[reg]) + (item,)
        self._pending_deliveries = []

    def locked_registers(self):
        """Registers whose value is pending an uncommitted in-flight rule.

        The transport layer must not mutate these until the rule commits,
        otherwise its deferred updates would overwrite the transport's change.
        Returns a set-like view (supports ``in``, ``&`` and iteration).
        """
        if self._pending_updates is None:
            return _EMPTY_LOCKED
        return self._pending_updates.keys()

    def charge_driver(self, n_words: int, now: float) -> None:
        """Charge the processor for marshaling/driving one channel message.

        Unlike the hardware side (where marshaling is dedicated logic), every
        message that the software partition sends or receives costs CPU time:
        the driver call, DMA descriptor handling and the per-word copy into or
        out of the transfer buffer.  This cost is what makes fine-grained
        offload unprofitable in the paper's partitions A and C.
        """
        cpu, duration = self.driver_cost(n_words)
        self.cpu_cycles_driver += cpu
        self.busy_until = max(self.busy_until, now) + duration
        self.busy_fpga_cycles += duration

    def driver_cost(self, n_words: int) -> Tuple[float, float]:
        """CPU cycles and FPGA-cycle duration of driving one message of
        ``n_words`` words.  Constant per route, so the generated transport
        binds it once and charges it inline, as :meth:`charge_driver` does."""
        params = self.platform.sw_costs
        cpu = params.driver_per_message + params.driver_per_word * n_words
        return cpu, self.platform.cpu_to_fpga_cycles(cpu)

    # -- execution ---------------------------------------------------------------

    def is_busy(self, now: float) -> bool:
        return now < self.busy_until

    def next_event_time(self, now: float) -> Optional[float]:
        if self.is_busy(now) or self._pending_updates is not None:
            return self.busy_until
        return None

    def step(self, now: float) -> bool:
        """Advance the software engine at time ``now``.  Returns True on progress.

        The ``interp`` backend's exhaustive reference scan: every rule's
        guard is re-evaluated on every step.  Under ``source`` a generated
        superstep with dirty-set scheduling replaces this method on the
        instance (:func:`~repro.core.pycodegen.generate_sw_step`).
        """
        if not self.rules:
            return False
        if self.is_busy(now):
            return False

        progress = False
        if self._pending_updates is not None:
            commit(self.store, self._pending_updates)
            self._pending_updates = None
            self._flush_pending_deliveries()
            progress = True

        self._flush_pending_deliveries()

        wasted_this_scan = 0.0
        for rule in self.schedule.candidates(self._last_fired):
            cpu_cost, fired, updates = self._attempt(rule)
            if fired:
                total_cpu = cpu_cost + wasted_this_scan
                self.cpu_cycles_useful += cpu_cost
                self.cpu_cycles_wasted += wasted_this_scan
                duration = self.platform.cpu_to_fpga_cycles(total_cpu)
                self.busy_until = now + duration
                self.busy_fpga_cycles += duration
                self._pending_updates = updates
                self._last_fired = rule
                self.fire_counts[rule.full_name] += 1
                self.total_firings += 1
                return True
            # Failed attempt: its cost is wasted work, charged to whatever
            # fires next in this scan (the scheduler really does spend it).
            wasted_this_scan += cpu_cost
            self.guard_failures += 1
        # Nothing can fire: the partition is blocked waiting for input.  The
        # scan cost is not charged to simulated time (the runtime blocks on
        # the channel driver rather than spinning at full speed).
        return progress

    # -- single rule attempt -------------------------------------------------------

    def _attempt(self, rule: Rule) -> Tuple[float, bool, Dict[Register, Any]]:
        """Attempt one rule; returns ``(cpu_cost, fired, updates)``.

        Walks the optimised guard/body ASTs under a
        :class:`SwCostAccumulator`; the generated attempt functions of the
        source backend charge identical cycles.
        """
        params = self.platform.sw_costs
        cr = self.compiled[rule]
        read = self.store.__getitem__
        cost = float(params.rule_attempt_overhead)

        # 1. Top-level (lifted) guard check.
        acc = SwCostAccumulator(params)
        try:
            guard_ok = bool(self.evaluator.eval_expr(cr.guard, {}, read, acc))
        except GuardFail:
            guard_ok = False
        cost += acc.cpu_cycles
        if not guard_ok:
            return cost, False, {}

        # 2. Transactional setup for bodies that may still fail.
        setup = 0.0
        if cr.can_fail:
            if self.config.inline_methods:
                setup += params.branch_guard_handling
            else:
                setup += params.try_catch_setup
            setup += len(cr.shadow_registers) * params.shadow_per_register
        cost += setup

        # 3. Execute the residual body.
        body_acc = SwCostAccumulator(params)
        try:
            updates = self.evaluator.exec_action(cr.body, {}, read, body_acc)
        except GuardFail:
            cost += body_acc.cpu_cycles
            cost += params.rollback_base
            cost += len(cr.shadow_registers) * params.rollback_per_register
            return cost, False, {}
        cost += body_acc.cpu_cycles

        # 4. Commit.
        if cr.can_fail:
            cost += len(updates) * params.commit_per_register
        return cost, True, updates

    # -- derived metrics -----------------------------------------------------------

    @property
    def cpu_cycles_total(self) -> float:
        return self.cpu_cycles_useful + self.cpu_cycles_wasted + self.cpu_cycles_driver
