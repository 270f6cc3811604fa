"""Static analyses: read/write sets, method usage and rule conflicts.

The BSV/BCL compilation strategy never detects conflicts dynamically
(Section 6.1): the compiler performs a *pairwise static analysis* to
conservatively estimate which rules conflict, and the scheduler then only
runs non-conflicting rules concurrently.  The analyses here provide exactly
that information, and additionally feed

* partial shadowing (only the write set of a rule needs shadow state),
* sequentialisation of parallel actions (legal when the writer's write set
  misses the other branch's read set), and
* the software scheduler's dataflow ordering.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.action import (
    Action,
    IfA,
    LetA,
    LocalGuard,
    Loop,
    MethodCallA,
    NoAction,
    Par,
    RegWrite,
    Seq,
    WhenA,
)
from repro.core.ast import Node
from repro.core.expr import MethodCallE
from repro.core.module import Design, Method, Module, PrimitiveModule, Register, Rule


def _method_nodes(node: Node):
    for sub in node.walk():
        if isinstance(sub, (MethodCallA, MethodCallE)):
            yield sub


def read_set(node: Node) -> Set[Register]:
    """Registers possibly read while evaluating ``node`` (conservative)."""
    from repro.core.expr import RegRead

    regs: Set[Register] = set()
    for sub in node.walk():
        if isinstance(sub, RegRead):
            regs.add(sub.reg)
        elif isinstance(sub, (MethodCallA, MethodCallE)):
            regs |= _method_read_set(sub.instance, sub.method)
    return regs


def write_set(node: Node) -> Set[Register]:
    """Registers possibly written while executing ``node`` (conservative)."""
    regs: Set[Register] = set()
    for sub in node.walk():
        if isinstance(sub, RegWrite):
            regs.add(sub.reg)
        elif isinstance(sub, MethodCallA):
            regs |= _method_write_set(sub.instance, sub.method)
    return regs


def _method_read_set(instance: Module, name: str) -> FrozenSet[Register]:
    method = instance.get_method(name)
    cached = getattr(method, "_read_set_cache", None)
    if cached is not None:
        return cached
    if isinstance(instance, PrimitiveModule):
        native = instance.get_native(name)
        result = frozenset(native.reads)
    else:
        regs: Set[Register] = set()
        if method.body is not None:
            regs |= read_set(method.body)
        regs |= read_set(method.guard)
        result = frozenset(regs)
    method._read_set_cache = result  # type: ignore[attr-defined]
    return result


def _method_write_set(instance: Module, name: str) -> FrozenSet[Register]:
    method = instance.get_method(name)
    cached = getattr(method, "_write_set_cache", None)
    if cached is not None:
        return cached
    if isinstance(instance, PrimitiveModule):
        native = instance.get_native(name)
        result = frozenset(native.writes)
    elif method.kind != "action" or method.body is None:
        result = frozenset()
    else:
        result = frozenset(write_set(method.body))
    method._write_set_cache = result  # type: ignore[attr-defined]
    return result


# The rule-level analyses are memoised on the rule objects: every scheduler,
# engine and partition check asks for the same sets repeatedly, and an
# elaborated rule's action never changes.  (``read_set``/``write_set`` on
# arbitrary nodes stay uncached -- the optimiser calls them on freshly
# rewritten bodies.)


def rule_read_set(rule: Rule) -> FrozenSet[Register]:
    cached = getattr(rule, "_read_set_cache", None)
    if cached is None:
        cached = frozenset(read_set(rule.action))
        rule._read_set_cache = cached  # type: ignore[attr-defined]
    return cached


def rule_write_set(rule: Rule) -> FrozenSet[Register]:
    cached = getattr(rule, "_write_set_cache", None)
    if cached is None:
        cached = frozenset(write_set(rule.action))
        rule._write_set_cache = cached  # type: ignore[attr-defined]
    return cached


def primitive_method_calls(rule: Rule) -> Dict[PrimitiveModule, Set[str]]:
    """Which methods the rule invokes on each primitive module (transitively).

    User-module method calls are expanded so that, e.g., a rule calling
    ``ifft.input(x)`` is charged with the ``enq`` it performs on the FIFO
    inside ``ifft``.
    """
    cached = getattr(rule, "_primitive_calls_cache", None)
    if cached is not None:
        return cached
    result: Dict[PrimitiveModule, Set[str]] = {}

    def visit(node: Node) -> None:
        for call in _method_nodes(node):
            instance = call.instance
            if isinstance(instance, PrimitiveModule):
                result.setdefault(instance, set()).add(call.method)
            else:
                method = instance.get_method(call.method)
                if method.body is not None:
                    visit(method.body)
                visit(method.guard)

    visit(rule.action)
    rule._primitive_calls_cache = result  # type: ignore[attr-defined]
    return result


def conflicts(rule_a: Rule, rule_b: Rule) -> bool:
    """Conservative pairwise conflict check between two rules.

    Two rules conflict when they cannot both execute in the same hardware
    clock cycle while preserving one-rule-at-a-time semantics.  The check is
    the classic write/write or read/write intersection test, refined by the
    primitive modules' own knowledge of which method pairs are concurrently
    schedulable (e.g. ``enq`` and ``deq`` of a pipeline FIFO).
    """
    if rule_a is rule_b:
        return True
    cache = getattr(rule_a, "_conflict_cache", None)
    if cache is None:
        cache = {}
        rule_a._conflict_cache = cache  # type: ignore[attr-defined]
    cached = cache.get(rule_b)
    if cached is not None:
        return cached
    result = _conflicts_uncached(rule_a, rule_b)
    cache[rule_b] = result
    return result


def _conflicts_uncached(rule_a: Rule, rule_b: Rule) -> bool:
    reads_a, writes_a = rule_read_set(rule_a), rule_write_set(rule_a)
    reads_b, writes_b = rule_read_set(rule_b), rule_write_set(rule_b)
    shared = (writes_a & writes_b) | (writes_a & reads_b) | (writes_b & reads_a)
    if not shared:
        return False

    calls_a = primitive_method_calls(rule_a)
    calls_b = primitive_method_calls(rule_b)
    for reg in shared:
        owner = reg.parent
        if not isinstance(owner, PrimitiveModule):
            return True
        methods_a = calls_a.get(owner, set())
        methods_b = calls_b.get(owner, set())
        if not methods_a or not methods_b:
            # Direct register access into a primitive's internals: conservative.
            return True
        for ma in methods_a:
            for mb in methods_b:
                if not owner.concurrently_schedulable(ma, mb):
                    return True
    return False


class ConflictMatrix:
    """Precomputed pairwise conflict relation for all rules of a design."""

    def __init__(self, rules: List[Rule]):
        self.rules = list(rules)
        self._index: Dict[Rule, int] = {r: i for i, r in enumerate(self.rules)}
        self._conflicting: Set[FrozenSet[int]] = set()
        for i in range(len(self.rules)):
            for j in range(i + 1, len(self.rules)):
                if conflicts(self.rules[i], self.rules[j]):
                    self._conflicting.add(frozenset((i, j)))

    def conflict(self, rule_a: Rule, rule_b: Rule) -> bool:
        if rule_a is rule_b:
            return True
        i = self._index[rule_a]
        j = self._index[rule_b]
        return frozenset((i, j)) in self._conflicting

    def conflict_free_with(self, rule: Rule, chosen: List[Rule]) -> bool:
        """Whether ``rule`` conflicts with none of the already-chosen rules."""
        return all(not self.conflict(rule, other) for other in chosen)


def dataflow_edges(rules: List[Rule]) -> Set[Tuple[Rule, Rule]]:
    """Producer→consumer edges: rule A feeds rule B if A writes state B reads."""
    edges: Set[Tuple[Rule, Rule]] = set()
    reads = {r: rule_read_set(r) for r in rules}
    writes = {r: rule_write_set(r) for r in rules}
    for a in rules:
        for b in rules:
            if a is b:
                continue
            if writes[a] & reads[b]:
                edges.add((a, b))
    return edges


def dataflow_order(rules: List[Rule]) -> List[Rule]:
    """Topological (producer-before-consumer) ordering of rules.

    Cycles (e.g. credit loops) are broken by falling back to declaration
    order within the strongly connected component.  The software scheduler
    uses this ordering to "pass the algorithm over the data" (Section 6.3).
    """
    edges = dataflow_edges(rules)
    successors: Dict[Rule, Set[Rule]] = {r: set() for r in rules}
    indegree: Dict[Rule, int] = {r: 0 for r in rules}
    for a, b in edges:
        if b not in successors[a]:
            successors[a].add(b)
            indegree[b] += 1

    order: List[Rule] = []
    remaining = list(rules)
    indeg = dict(indegree)
    while remaining:
        ready = [r for r in remaining if indeg[r] == 0]
        if not ready:
            # Cycle: emit the earliest remaining rule to break it.
            ready = [remaining[0]]
        chosen = ready[0]
        order.append(chosen)
        remaining.remove(chosen)
        for succ in successors[chosen]:
            if succ in indeg:
                indeg[succ] = max(0, indeg[succ] - 1)
        indeg.pop(chosen, None)
    return order


def modules_touched(rule: Rule) -> Set[Module]:
    """Every module whose state or methods the rule touches (for partition checks)."""
    touched: Set[Module] = set()
    for reg in rule_read_set(rule) | rule_write_set(rule):
        if reg.parent is not None:
            touched.add(reg.parent)
    for call in _method_nodes(rule.action):
        touched.add(call.instance)
    return touched
