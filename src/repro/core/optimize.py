"""Code transformations that reduce the cost of generated software (Section 6.3).

Four transformations are implemented, each individually switchable through
:class:`OptimizationConfig` so that the ablation benchmarks can measure their
effect exactly as the paper discusses them:

* **Guard lifting** -- hoist ``when`` guards to the top of the rule so the
  scheduler can reject a rule before doing any work
  (:func:`repro.core.guards.lift_rule`).
* **Method inlining / try-catch avoidance** -- inline user-module method
  calls so their implicit guards become visible and liftable; once a rule's
  residual body cannot fail, the generated code needs neither the try/catch
  block nor the commit/rollback machinery (Figures 9 and 10).
* **Sequentialisation of parallel actions** -- replace ``A | B`` by ``A ; B``
  when the write set of ``A`` is disjoint from the read set of ``B``,
  removing the need for dynamically allocated parallel shadows.
* **Partial shadowing** -- shadow only the registers a rule can actually
  write instead of the whole module state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.action import Action, LetA, MethodCallA, Par, Seq, WhenA
from repro.core.analysis import read_set, write_set
from repro.core.ast import Node
from repro.core.expr import TRUE, Expr, LetE, MethodCallE, Var, WhenE
from repro.core.guards import is_true_const, lift_action, may_fail
from repro.core.module import PrimitiveModule, Register, Rule


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the Section 6.3 software optimisations are enabled."""

    lift_guards: bool = True
    inline_methods: bool = True
    sequentialize: bool = True
    partial_shadowing: bool = True

    @classmethod
    def none(cls) -> "OptimizationConfig":
        """The naive compilation scheme of Figure 9."""
        return cls(False, False, False, False)

    @classmethod
    def all(cls) -> "OptimizationConfig":
        """The fully optimised scheme of Figure 10."""
        return cls(True, True, True, True)

    def describe(self) -> str:
        flags = []
        for name in ("lift_guards", "inline_methods", "sequentialize", "partial_shadowing"):
            flags.append(f"{name}={'on' if getattr(self, name) else 'off'}")
        return ", ".join(flags)


# --------------------------------------------------------------------------
# method inlining
# --------------------------------------------------------------------------


def _freshen(name: str, counter: Dict[str, int]) -> str:
    counter[name] = counter.get(name, 0) + 1
    return f"{name}${counter[name]}"


def inline_methods(node: Node) -> Node:
    """Inline user-module method calls (action and value) inside ``node``.

    A call becomes the method's body under its implicit guard, inside lets
    binding its parameters to fresh ``name$n`` names; calls on primitives
    and bodiless methods stay calls.
    """
    counter: Dict[str, int] = {}

    def inline(node: Node) -> Node:
        node = node.rebuild(inline)
        if not isinstance(node, (MethodCallE, MethodCallA)):
            return node
        method = node.instance.get_method(node.method)
        if isinstance(node.instance, PrimitiveModule) or method.body is None:
            return node
        # Inline: bind parameters with fresh names, attach the implicit guard.
        body = inline(method.body)
        guard = inline(method.guard)
        renames = {p: _freshen(p, counter) for p in method.params}
        body = _rename_vars(body, renames)
        guard = _rename_vars(guard, renames)
        when, let = (WhenE, LetE) if isinstance(node, MethodCallE) else (WhenA, LetA)
        result = when(body, guard) if not is_true_const(guard) else body
        for param, arg in reversed(list(zip(method.params, node.args))):
            result = let(renames[param], arg, result)
        return result

    return inline(node)


def _rename_vars(node: Node, renames: Dict[str, str]) -> Node:
    """``node`` with its free variables renamed by ``renames``."""
    if not renames:
        return node

    def rename(node: Node) -> Node:
        if isinstance(node, Var):
            return Var(renames[node.name]) if node.name in renames else node
        if isinstance(node, (LetE, LetA)):
            inner = dict(renames)
            inner.pop(node.name, None)  # shadowed
            return type(node)(node.name, rename(node.value), _rename_vars(node.body, inner))
        return node.rebuild(rename)

    return rename(node)


# --------------------------------------------------------------------------
# sequentialisation of parallel actions
# --------------------------------------------------------------------------


def _order_is_sequentializable(actions: List[Action]) -> bool:
    """Whether executing ``actions`` in order is equivalent to their parallel composition."""
    for i in range(len(actions)):
        w_i = write_set(actions[i])
        for j in range(i + 1, len(actions)):
            if w_i & read_set(actions[j]):
                return False
            if w_i & write_set(actions[j]):
                # A double write would be an error anyway; stay conservative
                # and keep the parallel form so the error is reported there.
                return False
    return True


def sequentialize_action(action: Action) -> Action:
    """Replace parallel compositions by equivalent sequential ones where legal.

    Children are transformed first.  For a parallel group the given order is
    tried first, then all permutations (the group sizes in real designs are
    tiny), falling back to the parallel form when no legal order exists --
    e.g. the register swap ``a := b | b := a``.
    """
    if not isinstance(action, Action):
        return action
    action = action.rebuild(sequentialize_action)
    if not isinstance(action, Par):
        return action
    children = action.actions
    if _order_is_sequentializable(children):
        return Seq(children) if len(children) > 1 else children[0]
    if len(children) <= 6:
        for perm in itertools.permutations(children):
            if _order_is_sequentializable(list(perm)):
                return Seq(list(perm))
    return action


# --------------------------------------------------------------------------
# whole-rule compilation product
# --------------------------------------------------------------------------


@dataclass
class CompiledRule:
    """The result of applying the software optimisations to one rule.

    ``guard`` is the lifted top-level guard (``True`` when nothing was
    lifted), ``body`` the residual action, ``can_fail`` whether the residual
    body may still raise a guard failure (deciding try/catch + rollback),
    and ``shadow_registers`` the set of registers that must be shadowed
    before executing the body.  Under ``backend="source"`` the software
    engine lowers ``guard``/``body`` to one generated attempt function per
    rule (:func:`repro.core.pycodegen.generate_counting_attempts`).
    """

    rule: Rule
    guard: Expr
    body: Action
    can_fail: bool
    shadow_registers: Set[Register]
    config: OptimizationConfig


def compile_rule(
    rule: Rule,
    config: OptimizationConfig,
    all_registers: Optional[List[Register]] = None,
) -> CompiledRule:
    """Apply the enabled Section 6.3 transformations to a rule.

    The result is memoised per ``(rule, config)``: the transformations are
    deterministic over the immutable elaborated rule, and every engine
    construction over the same design would otherwise redo the full
    inline/sequentialise/lift pipeline.
    """
    cache = getattr(rule, "_compile_rule_cache", None)
    if cache is None:
        cache = {}
        rule._compile_rule_cache = cache  # type: ignore[attr-defined]
    key = (config, None if all_registers is None else tuple(all_registers))
    cached = cache.get(key)
    if cached is not None:
        return cached
    compiled = _compile_rule_uncached(rule, config, all_registers)
    cache[key] = compiled
    return compiled


def _compile_rule_uncached(
    rule: Rule,
    config: OptimizationConfig,
    all_registers: Optional[List[Register]] = None,
) -> CompiledRule:
    body: Action = rule.action
    if config.inline_methods:
        body = inline_methods(body)
    if config.sequentialize:
        body = sequentialize_action(body)
    guard: Expr = TRUE
    if config.lift_guards:
        body, guard = lift_action(body)

    can_fail = may_fail(body, primitive_guards_hoisted=config.lift_guards)
    if config.partial_shadowing:
        shadow = write_set(body)
    else:
        shadow = set(all_registers) if all_registers is not None else write_set(body)
    if not can_fail:
        # In-place execution: no shadow needed at all (Section 6.3).
        shadow = set() if config.partial_shadowing else shadow
    return CompiledRule(rule, guard, body, can_fail, shadow, config)
