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
from typing import Dict, List, Optional, Set, Tuple

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
from repro.core.analysis import read_set, rule_write_set, write_set
from repro.core.expr import (
    BinOp,
    Const,
    Expr,
    FieldSelect,
    KernelCall,
    LetE,
    MethodCallE,
    Mux,
    RegRead,
    UnOp,
    Var,
    WhenE,
)
from repro.core.guards import conj, lift_action
from repro.core.module import Module, PrimitiveModule, Register, Rule


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


def inline_methods_expr(expr: Expr, _counter: Optional[Dict[str, int]] = None) -> Expr:
    """Inline user-module value-method calls inside an expression."""
    counter = _counter if _counter is not None else {}

    def rec_e(e: Expr) -> Expr:
        if isinstance(e, (Const, Var, RegRead)):
            return e
        if isinstance(e, UnOp):
            return UnOp(e.op, rec_e(e.operand))
        if isinstance(e, BinOp):
            return BinOp(e.op, rec_e(e.left), rec_e(e.right))
        if isinstance(e, Mux):
            return Mux(rec_e(e.cond), rec_e(e.then), rec_e(e.orelse))
        if isinstance(e, WhenE):
            return WhenE(rec_e(e.body), rec_e(e.guard))
        if isinstance(e, LetE):
            return LetE(e.name, rec_e(e.value), rec_e(e.body))
        if isinstance(e, FieldSelect):
            return FieldSelect(rec_e(e.operand), e.field)
        if isinstance(e, KernelCall):
            return KernelCall(
                e.name, e.fn, [rec_e(a) for a in e.args], e.sw_cycles, e.hw_cycles
            )
        if isinstance(e, MethodCallE):
            instance, method = e.instance, e.instance.get_method(e.method)
            args = [rec_e(a) for a in e.args]
            if isinstance(instance, PrimitiveModule) or method.body is None:
                return MethodCallE(instance, e.method, args)
            # Inline: bind parameters with fresh names, attach the implicit guard.
            body = inline_methods_expr(method.body, counter)
            guard = inline_methods_expr(method.guard, counter)
            renames = {p: _freshen(p, counter) for p in method.params}
            body = _rename_vars_expr(body, renames)
            guard = _rename_vars_expr(guard, renames)
            result: Expr = WhenE(body, guard) if not _is_true(guard) else body
            for param, arg in reversed(list(zip(method.params, args))):
                result = LetE(renames[param], arg, result)
            return result
        raise TypeError(f"inline_methods_expr: unhandled node {e!r}")

    return rec_e(expr)


def inline_methods_action(action: Action, _counter: Optional[Dict[str, int]] = None) -> Action:
    """Inline user-module method calls (action and value) inside an action."""
    counter = _counter if _counter is not None else {}

    def rec_a(a: Action) -> Action:
        if isinstance(a, NoAction):
            return a
        if isinstance(a, RegWrite):
            return RegWrite(a.reg, inline_methods_expr(a.value, counter))
        if isinstance(a, IfA):
            return IfA(
                inline_methods_expr(a.cond, counter),
                rec_a(a.then),
                rec_a(a.orelse) if a.orelse is not None else None,
            )
        if isinstance(a, WhenA):
            return WhenA(rec_a(a.body), inline_methods_expr(a.guard, counter))
        if isinstance(a, Par):
            return Par([rec_a(s) for s in a.actions])
        if isinstance(a, Seq):
            return Seq([rec_a(s) for s in a.actions])
        if isinstance(a, LetA):
            return LetA(a.name, inline_methods_expr(a.value, counter), rec_a(a.body))
        if isinstance(a, Loop):
            return Loop(inline_methods_expr(a.cond, counter), rec_a(a.body), a.max_iterations)
        if isinstance(a, LocalGuard):
            return LocalGuard(rec_a(a.body))
        if isinstance(a, MethodCallA):
            instance, method = a.instance, a.instance.get_method(a.method)
            args = [inline_methods_expr(arg, counter) for arg in a.args]
            if isinstance(instance, PrimitiveModule) or method.body is None:
                return MethodCallA(instance, a.method, args)
            body = inline_methods_action(method.body, counter)
            guard = inline_methods_expr(method.guard, counter)
            renames = {p: _freshen(p, counter) for p in method.params}
            body = _rename_vars_action(body, renames)
            guard = _rename_vars_expr(guard, renames)
            result: Action = WhenA(body, guard) if not _is_true(guard) else body
            for param, arg in reversed(list(zip(method.params, args))):
                result = LetA(renames[param], arg, result)
            return result
        raise TypeError(f"inline_methods_action: unhandled node {a!r}")

    return rec_a(action)


def _is_true(expr: Expr) -> bool:
    return isinstance(expr, Const) and expr.value is True


def _rename_vars_expr(expr: Expr, renames: Dict[str, str]) -> Expr:
    if not renames:
        return expr
    if isinstance(expr, Var):
        return Var(renames.get(expr.name, expr.name))
    if isinstance(expr, (Const, RegRead)):
        return expr
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _rename_vars_expr(expr.operand, renames))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _rename_vars_expr(expr.left, renames),
            _rename_vars_expr(expr.right, renames),
        )
    if isinstance(expr, Mux):
        return Mux(
            _rename_vars_expr(expr.cond, renames),
            _rename_vars_expr(expr.then, renames),
            _rename_vars_expr(expr.orelse, renames),
        )
    if isinstance(expr, WhenE):
        return WhenE(
            _rename_vars_expr(expr.body, renames), _rename_vars_expr(expr.guard, renames)
        )
    if isinstance(expr, LetE):
        inner = dict(renames)
        inner.pop(expr.name, None)  # shadowed
        return LetE(
            expr.name,
            _rename_vars_expr(expr.value, renames),
            _rename_vars_expr(expr.body, inner),
        )
    if isinstance(expr, FieldSelect):
        return FieldSelect(_rename_vars_expr(expr.operand, renames), expr.field)
    if isinstance(expr, KernelCall):
        return KernelCall(
            expr.name,
            expr.fn,
            [_rename_vars_expr(a, renames) for a in expr.args],
            expr.sw_cycles,
            expr.hw_cycles,
        )
    if isinstance(expr, MethodCallE):
        return MethodCallE(
            expr.instance, expr.method, [_rename_vars_expr(a, renames) for a in expr.args]
        )
    raise TypeError(f"_rename_vars_expr: unhandled node {expr!r}")


def _rename_vars_action(action: Action, renames: Dict[str, str]) -> Action:
    if not renames:
        return action
    if isinstance(action, NoAction):
        return action
    if isinstance(action, RegWrite):
        return RegWrite(action.reg, _rename_vars_expr(action.value, renames))
    if isinstance(action, IfA):
        return IfA(
            _rename_vars_expr(action.cond, renames),
            _rename_vars_action(action.then, renames),
            _rename_vars_action(action.orelse, renames) if action.orelse is not None else None,
        )
    if isinstance(action, WhenA):
        return WhenA(
            _rename_vars_action(action.body, renames),
            _rename_vars_expr(action.guard, renames),
        )
    if isinstance(action, Par):
        return Par([_rename_vars_action(s, renames) for s in action.actions])
    if isinstance(action, Seq):
        return Seq([_rename_vars_action(s, renames) for s in action.actions])
    if isinstance(action, LetA):
        inner = dict(renames)
        inner.pop(action.name, None)
        return LetA(
            action.name,
            _rename_vars_expr(action.value, renames),
            _rename_vars_action(action.body, inner),
        )
    if isinstance(action, Loop):
        return Loop(
            _rename_vars_expr(action.cond, renames),
            _rename_vars_action(action.body, renames),
            action.max_iterations,
        )
    if isinstance(action, LocalGuard):
        return LocalGuard(_rename_vars_action(action.body, renames))
    if isinstance(action, MethodCallA):
        return MethodCallA(
            action.instance,
            action.method,
            [_rename_vars_expr(a, renames) for a in action.args],
        )
    raise TypeError(f"_rename_vars_action: unhandled node {action!r}")


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
    if isinstance(action, Par):
        children = [sequentialize_action(a) for a in action.actions]
        if _order_is_sequentializable(children):
            return Seq(children) if len(children) > 1 else children[0]
        if len(children) <= 6:
            for perm in itertools.permutations(children):
                if _order_is_sequentializable(list(perm)):
                    return Seq(list(perm))
        return Par(children)
    if isinstance(action, Seq):
        return Seq([sequentialize_action(a) for a in action.actions])
    if isinstance(action, IfA):
        return IfA(
            action.cond,
            sequentialize_action(action.then),
            sequentialize_action(action.orelse) if action.orelse is not None else None,
        )
    if isinstance(action, WhenA):
        return WhenA(sequentialize_action(action.body), action.guard)
    if isinstance(action, LetA):
        return LetA(action.name, action.value, sequentialize_action(action.body))
    if isinstance(action, Loop):
        return Loop(action.cond, sequentialize_action(action.body), action.max_iterations)
    if isinstance(action, LocalGuard):
        return LocalGuard(sequentialize_action(action.body))
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
    from repro.core.guards import may_fail
    from repro.core.expr import TRUE

    body: Action = rule.action
    if config.inline_methods:
        body = inline_methods_action(body)
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
