"""The when-axioms (Figure 8) and guard lifting.

Guard lifting rewrites a rule into the form ``body when guard`` where
``guard`` collects as many of the rule's explicit and implicit guards as the
axioms allow.  The paper uses this in two ways:

* *hardware*: the lifted guard drives the enable of the rule's state
  multiplexers, which is what makes single-cycle atomic execution cheap;
* *software*: if a rule can be put in the form ``A when E`` with ``A`` and
  ``E`` guard-free, then checking ``E`` up front guarantees ``A`` commits,
  so the generated C++ can drop its try/catch block and its shadow state
  (Section 6.3, Figures 9 and 10).

Guards cannot be lifted through sequential composition or loops (the axioms
have no rule for that), so :func:`lift_action` returns a *residual* body that
may still fail; :func:`may_fail` reports whether it can.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
    TRUE,
    UnOp,
    Var,
    WhenE,
)
from repro.core.module import PrimitiveModule, Rule


def is_true_const(expr: Expr) -> bool:
    return isinstance(expr, Const) and expr.value is True


def conj(*guards: Expr) -> Expr:
    """Conjunction of guards, dropping literal ``True`` terms."""
    useful = [g for g in guards if not is_true_const(g)]
    if not useful:
        return TRUE
    result = useful[0]
    for g in useful[1:]:
        result = BinOp("&&", result, g)
    return result


def disj(a: Expr, b: Expr) -> Expr:
    return BinOp("||", a, b)


def neg(a: Expr) -> Expr:
    return UnOp("!", a)


# --------------------------------------------------------------------------
# expression lifting
# --------------------------------------------------------------------------


#: Expressions that evaluate every operand, so every operand's guard lifts.
_STRICT_EXPRS = (Const, Var, RegRead, UnOp, BinOp, FieldSelect, KernelCall, MethodCallE)


def _lift_operands(node: Node) -> Tuple[Node, Expr]:
    """Lift every operand guard of a strict node (A.7, A.8).

    ``m.f(e when p) ≡ m.f(e) when p``, and likewise for operators, kernel
    calls and register writes.  For primitive modules that can express
    their implicit guard symbolically (a FIFO's notEmpty / notFull), a
    method call's readiness condition is hoisted too; user-module method
    guards stay attached to the call until inlining exposes them.
    """
    if not node._child_fields:
        return node, TRUE
    guards: List[Expr] = []

    def lift(operand: Expr) -> Expr:
        body, guard = lift_expr(operand)
        guards.append(guard)
        return body

    lifted = node.rebuild(lift)
    if isinstance(node, (MethodCallE, MethodCallA)):
        guards.append(_primitive_readiness(node))
    return lifted, conj(*guards)


def lift_expr(expr: Expr) -> Tuple[Expr, Expr]:
    """Rewrite ``expr`` as ``(body, guard)`` with ``body when guard ≡ expr``.

    The returned body contains no :class:`WhenE` nodes except inside method
    calls (whose implicit guards cannot be lifted without inlining) and
    inside unvisited regions noted below.
    """
    if isinstance(expr, BinOp) and expr.op in ("&&", "||"):
        # Short-circuit operators evaluate their right operand conditionally,
        # so its guards cannot be hoisted unconditionally; leave them in place.
        left, gl = lift_expr(expr.left)
        return BinOp(expr.op, left, expr.right), gl
    if isinstance(expr, Mux):
        cond, gc = lift_expr(expr.cond)
        then, gt = lift_expr(expr.then)
        orelse, ge = lift_expr(expr.orelse)
        # Guards of an arm matter only when that arm is selected (A.5 analogue).
        arm_guard = conj(disj(gt, neg(cond)), disj(ge, cond))
        if is_true_const(gt) and is_true_const(ge):
            arm_guard = TRUE
        return Mux(cond, then, orelse), conj(gc, arm_guard)
    if isinstance(expr, WhenE):
        body, gb = lift_expr(expr.body)
        guard, gg = lift_expr(expr.guard)
        return body, conj(gg, guard, gb)
    if isinstance(expr, LetE):
        value, gv = lift_expr(expr.value)
        body, gb = lift_expr(expr.body)
        # Lets are non-strict: the value's guard only matters if the binding is
        # used, which we conservatively assume (spurious bindings are rare and
        # the conservative direction only makes the lifted rule fail earlier
        # in states where the original body would have failed at the use site).
        guard = conj(LetE(expr.name, value, gb) if not is_true_const(gb) else TRUE, gv)
        return LetE(expr.name, value, body), guard
    if isinstance(expr, _STRICT_EXPRS):
        return _lift_operands(expr)
    raise TypeError(f"lift_expr: unhandled expression node {expr!r}")


def _primitive_readiness(call) -> Expr:
    """The hoistable readiness condition of a method call (TRUE when unknown)."""
    instance = call.instance
    if isinstance(instance, PrimitiveModule):
        symbolic = instance.symbolic_guard(call.method, call.args)
        if symbolic is not None:
            return symbolic
    return TRUE


# --------------------------------------------------------------------------
# action lifting
# --------------------------------------------------------------------------


def lift_action(action: Action) -> Tuple[Action, Expr]:
    """Rewrite ``action`` as ``(body, guard)`` with ``body when guard ≡ action``.

    Applies axioms A.1--A.9.  Guards are *not* lifted out of sequential
    composition tails, loops, ``localGuard`` bodies, or method calls (those
    stay as residual guards inside the returned body).
    """
    if isinstance(action, (RegWrite, MethodCallA)):
        return _lift_operands(action)  # A.7, A.8
    if isinstance(action, WhenA):
        body, gb = lift_action(action.body)  # A.6, A.9
        guard, gg = lift_expr(action.guard)
        return body, conj(gg, guard, gb)
    if isinstance(action, IfA):
        cond, gc = lift_expr(action.cond)  # A.4
        then, gt = lift_action(action.then)  # A.5
        if action.orelse is None:
            guard = conj(gc, disj(gt, neg(cond)) if not is_true_const(gt) else TRUE)
            return IfA(cond, then), guard
        orelse, ge = lift_action(action.orelse)
        arm_guard = conj(
            disj(gt, neg(cond)) if not is_true_const(gt) else TRUE,
            disj(ge, cond) if not is_true_const(ge) else TRUE,
        )
        return IfA(cond, then, orelse), conj(gc, arm_guard)
    if isinstance(action, Par):
        bodies: List[Action] = []
        guards: List[Expr] = []
        for sub in action.actions:  # A.1, A.2
            b, g = lift_action(sub)
            bodies.append(b)
            guards.append(g)
        return Par(bodies), conj(*guards)
    if isinstance(action, Seq):
        # A.3: only the first element's guard can be lifted past the
        # composition; everything downstream stays residual.
        first, g0 = lift_action(action.actions[0])
        rest = list(action.actions[1:])
        if not rest:
            return first, g0
        return Seq([first] + rest), g0
    if isinstance(action, LetA):
        value, gv = lift_expr(action.value)
        body, gb = lift_action(action.body)
        guard = conj(gv, LetE(action.name, value, gb) if not is_true_const(gb) else TRUE)
        return LetA(action.name, value, body), guard
    if isinstance(action, (NoAction, Loop, LocalGuard)):
        # No axiom lifts through a loop, and guard failures do not
        # propagate out of a localGuard.
        return action, TRUE
    raise TypeError(f"lift_action: unhandled action node {action!r}")


def lift_rule(rule: Rule) -> Tuple[Action, Expr]:
    """Lift a rule's guards: returns ``(body, guard)`` (axiom A.9)."""
    return lift_action(rule.action)


# --------------------------------------------------------------------------
# residual-failure analysis
# --------------------------------------------------------------------------


def _method_guard_is_trivial(node, primitive_guards_hoisted: bool = False) -> bool:
    """Whether a method call's implicit guard is statically always true.

    ``primitive_guards_hoisted`` reflects whether guard lifting has already
    hoisted the primitives' readiness conditions (FIFO notEmpty/notFull) to
    the rule's top-level guard: if so, the residual call cannot fail in the
    single-threaded software execution, because nothing changes the FIFO
    between the guard check and the body.
    """
    instance = node.instance
    method = instance.get_method(node.method)
    if isinstance(instance, PrimitiveModule):
        if node.method in ("notEmpty", "notFull", "count", "read", "send", "clear"):
            return True
        if primitive_guards_hoisted and instance.symbolic_guard(node.method, node.args) is not None:
            return True
        return False
    return is_true_const(method.guard) and not may_fail_expr_or_action(
        method.body, primitive_guards_hoisted
    )


def may_fail_expr_or_action(node, primitive_guards_hoisted: bool = False) -> bool:
    """Whether evaluating ``node`` can raise a guard failure."""
    if node is None:
        return False
    for sub in node.walk():
        if isinstance(sub, (WhenE, WhenA)):
            return True
        if isinstance(sub, (MethodCallA, MethodCallE)) and not _method_guard_is_trivial(
            sub, primitive_guards_hoisted
        ):
            return True
    return False


def may_fail(body: Action, primitive_guards_hoisted: bool = False) -> bool:
    """Whether a *lifted* rule body can still fail at run time.

    When this returns ``False`` the generated software can execute the body
    in place -- no try/catch, no rollback, no shadow state (Section 6.3,
    "Avoiding Try/Catch").
    """
    return may_fail_expr_or_action(body, primitive_guards_hoisted)
