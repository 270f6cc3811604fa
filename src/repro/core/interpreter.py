"""A reference one-rule-at-a-time simulator for whole (unpartitioned) designs.

This is the executable form of the execution procedure in Section 4.1::

    Repeatedly:
      1. Choose a rule to execute.
      2. Compute the set of state updates and the value of the rule's guard.
      3. If the guard is true, apply the updates.

Rule choice is the only source of non-determinism in BCL; the simulator makes
it explicit and controllable (round-robin, fixed priority, or seeded random)
so that tests can check that *all* schedules produce acceptable behaviours
and that partitioned designs are observationally equivalent to the original.

Two execution backends implement the same semantics:

* ``backend="interp"`` walks the rule ASTs through
  :class:`~repro.core.semantics.Evaluator` -- the semantic reference oracle;
* ``backend="source"`` (the default) fires each rule through a flat
  generated Python function (:mod:`repro.core.pycodegen`), which skips the
  per-node dispatch entirely.

The source backend additionally uses *dirty-set scheduling*
(:class:`~repro.core.scheduler.RuleWakeup`): a rule whose guard failed is
not re-evaluated until a register in its read set is written.  Skipped
attempts still count as guard failures (they are guaranteed failures), so
``firings``/``guard_failures``/``fire_counts`` match the interp backend's
exhaustive scan exactly.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import GuardFail, SchedulingError
from repro.core.module import Design, Register, Rule
from repro.core.pycodegen import (
    generate_rule_execs,
    raise_for_missing_register,
    resolve_backend,
)
from repro.core.scheduler import RuleWakeup
from repro.core.semantics import Evaluator, RuleOutcome, Store, commit, try_rule


class Simulator:
    """Executes a design under one-rule-at-a-time semantics.

    Parameters
    ----------
    design:
        The elaborated design to execute.
    policy:
        ``"round-robin"`` (default), ``"priority"`` (rule urgency, then
        declaration order) or ``"random"``.
    seed:
        Seed for the ``"random"`` policy, to keep runs reproducible.
    backend:
        ``"interp"`` (tree-walking reference) or ``"source"`` (flat
        generated Python; observationally equivalent and much faster).
        ``None`` resolves to
        :func:`~repro.core.pycodegen.default_rule_backend` (the
        ``REPRO_RULE_BACKEND`` environment variable, else ``"source"``).
    """

    def __init__(
        self,
        design: Design,
        policy: str = "round-robin",
        seed: Optional[int] = None,
        max_loop_iterations: int = 1_000_000,
        backend: Optional[str] = None,
    ):
        backend = resolve_backend(backend)
        if policy not in ("round-robin", "priority", "random"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.design = design
        self.policy = policy
        self.backend = backend
        self.rng = random.Random(seed)
        self.evaluator = Evaluator(max_loop_iterations=max_loop_iterations)
        self.rules: List[Rule] = list(design.all_rules())
        self._index_of: Dict[Rule, int] = {r: i for i, r in enumerate(self.rules)}
        # The source backend adds dirty-set scheduling (the interp backend
        # stays the untouched exhaustive-scan reference) and one generated
        # unit per rule (``_gen``), the hardware engine's: its latency
        # function, whose charge the simulator discards.
        self._wakeup: Optional[RuleWakeup] = None
        self.store: Store = design.initial_store()
        self._gen = None
        self._exec = []
        if backend == "source":
            self._wakeup = RuleWakeup(self.rules)
            self.store = self._wakeup.wrap_store(self.store)
            self._exec, self._gen = generate_rule_execs(
                self.rules, design.name, max_loop_iterations
            )
        self._priority_order: List[Rule] = sorted(
            self.rules, key=lambda r: (-r.urgency, self._index_of[r])
        )
        self._rr_index = 0
        #: Number of rule firings so far.
        self.firings = 0
        #: Number of attempted rule executions whose guard failed.
        self.guard_failures = 0
        #: Firing count per rule name (useful in tests and examples).
        self.fire_counts: Dict[str, int] = {r.full_name: 0 for r in self.rules}

    # -- state access --------------------------------------------------------

    def read(self, reg: Register) -> Any:
        return self.store[reg]

    def write(self, reg: Register, value: Any) -> None:
        """Directly poke a register (test-bench convenience, not a BCL action)."""
        self.store[reg] = value

    # -- scheduling -----------------------------------------------------------

    def _candidate_order(self) -> List[Rule]:
        if self.policy == "priority":
            return self._priority_order
        if self.policy == "random":
            order = list(self.rules)
            self.rng.shuffle(order)
            return order
        # round-robin: start from the rule after the last one that fired
        i = self._rr_index
        return self.rules[i:] + self.rules[:i]

    # -- rule attempt (both backends) -----------------------------------------

    def _attempt(self, rule: Rule) -> Optional[Dict[Register, Any]]:
        """Evaluate ``rule``; its updates if the guard held, else ``None``."""
        if self.backend != "interp":
            read = self.store.__getitem__
            try:
                return self._exec[self._index_of[rule]].latency(read, [0])
            except GuardFail as exc:
                exc.__traceback__ = None  # generated code raises one shared instance
                return None
            except KeyError as exc:
                raise_for_missing_register(exc)
                raise
        outcome = try_rule(rule, self.store, self.evaluator)
        return outcome.updates if outcome.fired else None

    def step(self) -> Optional[RuleOutcome]:
        """Attempt rules (in policy order) until one fires; commit and return it.

        Returns ``None`` when no rule can fire in the current state (the
        design is quiescent / deadlocked).
        """
        if not self.rules:
            return None
        wakeup = self._wakeup
        sleeping = None
        if wakeup is not None:
            if self.policy != "random" and wakeup.all_asleep:
                # Quiescent: every rule is known guard-disabled.  (The random
                # policy still runs the scan so its RNG consumption -- one
                # shuffle per step -- matches an exhaustive scheduler exactly.)
                self.guard_failures += len(self.rules)
                return None
            sleeping = wakeup.sleeping
        index_of = self._index_of
        for rule in self._candidate_order():
            i = index_of[rule]
            if sleeping is not None and sleeping[i]:
                # Guaranteed guard failure: nothing the rule reads changed
                # since it last failed.
                self.guard_failures += 1
                continue
            updates = self._attempt(rule)
            if updates is None:
                if wakeup is not None:
                    wakeup.sleep_index(i)
                self.guard_failures += 1
                continue
            commit(self.store, updates)
            self.firings += 1
            self.fire_counts[rule.full_name] += 1
            self._rr_index = (i + 1) % len(self.rules)
            return RuleOutcome(rule, fired=True, updates=updates)
        return None

    def run(self, max_steps: int = 10_000) -> int:
        """Fire rules until quiescence or ``max_steps`` firings; return the count."""
        fired = 0
        for _ in range(max_steps):
            if self.step() is None:
                return fired
            fired += 1
        return fired

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_steps: int = 1_000_000,
    ) -> int:
        """Fire rules until ``predicate(self)`` holds.

        Raises :class:`SchedulingError` if the design goes quiescent or the
        step bound is exhausted before the predicate becomes true.
        """
        fired = 0
        while not predicate(self):
            if fired >= max_steps:
                raise SchedulingError(
                    f"predicate not reached within {max_steps} rule firings"
                )
            if self.step() is None:
                raise SchedulingError(
                    "design is quiescent but the termination predicate does not hold"
                )
            fired += 1
        return fired
