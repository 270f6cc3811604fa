"""Rule schedulers for the two execution targets.

Hardware and software want opposite schedules from the same rules
(Section 6.3, "Scheduling"):

* **Hardware** executes, in every clock cycle, a maximal set of *enabled,
  pairwise non-conflicting* rules -- "passing the data through the
  algorithm".  :class:`HwSchedule` precomputes the static conflict matrix and
  greedily selects such a set each cycle.
* **Software** executes one rule at a time and wants to avoid wasted work
  (partial execution followed by rollback) and to exploit data locality --
  "passing the algorithm over the data".  :class:`SwSchedule` orders the
  rules in dataflow (producer-before-consumer) order and, after a rule
  fires, prefers its dataflow successors.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.analysis import (
    ConflictMatrix,
    dataflow_edges,
    dataflow_order,
    rule_read_set,
)
from repro.core.module import Register, Rule
from repro.core.runstate import SCALAR, SLICE, run_state


class HwSchedule:
    """Static schedule information for a hardware partition."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = sorted(rules, key=lambda r: (-r.urgency,))
        self.conflict_matrix = ConflictMatrix(self.rules)

    def select(self, enabled: Sequence[Rule]) -> List[Rule]:
        """Greedy maximal set of non-conflicting rules among ``enabled``.

        Rules are considered in urgency order (then declaration order), which
        matches the deterministic scheduler the BSV compiler constructs.
        """
        chosen: List[Rule] = []
        enabled_set = set(enabled)
        for rule in self.rules:
            if rule in enabled_set and self.conflict_matrix.conflict_free_with(rule, chosen):
                chosen.append(rule)
        return chosen


class SwSchedule:
    """Static schedule information for a software partition."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        self.order: List[Rule] = dataflow_order(self.rules)
        edges = dataflow_edges(self.rules)
        self.successors: Dict[Rule, List[Rule]] = {r: [] for r in self.rules}
        for a, b in edges:
            self.successors[a].append(b)
        for rule in self.successors:
            self.successors[rule].sort(key=self.order.index)

        self._order_tuple: Tuple[Rule, ...] = tuple(self.order)
        self._candidate_cache: Dict[Optional[Rule], Tuple[Rule, ...]] = {}

    def candidates(self, last_fired: Optional[Rule]) -> Tuple[Rule, ...]:
        """The order in which the software engine should attempt rules next.

        After ``last_fired``, its dataflow successors are tried first (the
        data they need is hot and their guards are most likely to be true),
        then the full dataflow order.  The order depends only on
        ``last_fired``, so it is computed once per rule, cached, and
        returned as an immutable tuple.
        """
        if last_fired is None or last_fired not in self.successors:
            return self._order_tuple
        cached = self._candidate_cache.get(last_fired)
        if cached is None:
            preferred = self.successors[last_fired]
            rest = [r for r in self.order if r not in preferred]
            cached = self._candidate_cache[last_fired] = tuple(preferred + rest)
        return cached


# --------------------------------------------------------------------------
# dirty-set rule scheduling
# --------------------------------------------------------------------------


class WakingStore(dict):
    """A register store that reports every write to a wake callback.

    All state mutation in the simulators flows through plain dict writes
    (``store[reg] = value`` or ``commit``'s ``store.update``), so wrapping
    the store is what lets dirty-set scheduling observe *every* producer --
    rule commits, channel deliveries, the co-simulator's transport drain and
    test-bench pokes -- without per-call-site bookkeeping.

    Wrapping *copies* the source dict (a plain dict cannot be retrofitted
    with write interception in place); the engines therefore expose the
    wrapped store as ``engine.store`` and empty the original so that any
    caller still holding it fails fast instead of silently diverging.
    """

    __slots__ = ("wake",)

    def __init__(self, data, wake: Callable[[Register], None]):
        super().__init__(data)
        self.wake = wake

    def __setitem__(self, reg, value):
        dict.__setitem__(self, reg, value)
        self.wake(reg)

    def update(self, other=(), **kwargs):  # type: ignore[override]
        if not isinstance(other, dict):
            other = dict(other)  # normalise pair-iterables so wakes see keys
        dict.update(self, other, **kwargs)
        wake = self.wake
        for reg in other:
            wake(reg)
        for reg in kwargs:
            wake(reg)


_NO_WAKERS: Tuple[int, ...] = ()


@run_state
class RuleWakeup:
    """A register→rules wakeup index implementing dirty-set scheduling.

    A rule whose guard failed cannot become enabled until some register in
    its (conservative) read set is written, so the engines mark it *sleeping*
    and skip re-attempting it; any write to a register it reads clears the
    flag.  This turns the per-step "re-try every rule" scan into a scan of
    the rules actually woken by recent state changes, without changing which
    rule fires (the skipped attempts were guaranteed guard failures).
    """

    __slots__ = ("rules", "index_of", "wakers", "sleeping", "n_sleeping")

    #: Generated steps and commits pre-bind ``sleeping``.
    RUN_STATE = (("sleeping", SLICE), ("n_sleeping", SCALAR))

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        self.index_of: Dict[Rule, int] = {r: i for i, r in enumerate(self.rules)}
        wakers: Dict[Register, List[int]] = {}
        for i, rule in enumerate(self.rules):
            for reg in rule_read_set(rule):
                wakers.setdefault(reg, []).append(i)
        self.wakers: Dict[Register, Tuple[int, ...]] = {
            reg: tuple(ids) for reg, ids in wakers.items()
        }
        #: sleeping[i] is truthy when rule i is known guard-disabled.
        self.sleeping = bytearray(len(self.rules))
        self.n_sleeping = 0

    def wrap_store(self, store: Dict[Register, Any]) -> WakingStore:
        """Wrap ``store`` so every write wakes the rules that read the register.

        The source dict is emptied after copying: the wrapped store is the
        only live store from here on, and stale aliases fail fast.
        """
        wrapped = WakingStore(store, self.wake)
        store.clear()
        return wrapped

    def wake(self, reg: Register) -> None:
        ids = self.wakers.get(reg, _NO_WAKERS)
        if ids:
            sleeping = self.sleeping
            for i in ids:
                if sleeping[i]:
                    sleeping[i] = 0
                    self.n_sleeping -= 1

    def sleep_index(self, i: int) -> None:
        if not self.sleeping[i]:
            self.sleeping[i] = 1
            self.n_sleeping += 1

    @property
    def all_asleep(self) -> bool:
        """Whether every rule is known guard-disabled (nothing can fire)."""
        return self.n_sleeping == len(self.rules)
