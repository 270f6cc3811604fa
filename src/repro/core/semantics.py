"""Operational semantics of kernel BCL: action and expression evaluation.

The evaluator implements the one-rule-at-a-time semantics of Section 5:

* evaluating a rule yields either a set of register updates (its guard was
  true) or nothing (a guard somewhere inside failed);
* parallel composition ``a1 | a2`` evaluates both branches against the same
  incoming state and merges their updates, raising ``DoubleWriteError`` if
  both write the same register;
* sequential composition ``a1 ; a2`` lets ``a2`` observe ``a1``'s updates;
* ``localGuard a`` converts a guard failure inside ``a`` into a no-op;
* lets are non-strict (a binding whose value's guard would fail only matters
  if the binding is used), while method-call arguments are strict;
* method calls on user modules are inlined (guard conjunction included);
  method calls on primitives run their native implementations.

Guard failure is signalled with the :class:`~repro.core.errors.GuardFail`
exception, mirroring the generated C++'s use of ``throw`` (Section 6.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.core.errors import (
    DoubleWriteError,
    ElaborationError,
    GuardFail,
    SimulationError,
)
from repro.core.expr import (
    BINARY_OPS,
    UNARY_OPS,
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
from repro.core.module import Method, Module, PrimitiveModule, Register, Rule
from repro.core.types import RawStruct

Store = Dict[Register, Any]
Updates = Dict[Register, Any]
ReadFn = Callable[[Register], Any]


class EvalHooks:
    """Observation hooks used by the software cost model and by tracing tools.

    The default implementation does nothing; the interpreter calls these at
    well-defined points so that cost accounting never perturbs semantics.
    """

    def on_node(self, node) -> None:
        """Called once per AST node evaluated."""

    def on_kernel(self, kernel: KernelCall, arg_values: Sequence[Any]) -> None:
        """Called when a foreign kernel is invoked (after argument evaluation)."""

    def on_method(self, module: Module, method: str) -> None:
        """Called for every method invocation (primitive or user)."""

    def on_guard_fail(self, node) -> None:
        """Called when a guard failure is raised at ``node``."""

    def on_register_write(self, reg: Register) -> None:
        """Called when an update to ``reg`` is recorded."""

    def on_register_read(self, reg: Register) -> None:
        """Called when ``reg`` is read."""


class _Thunk:
    """A lazily evaluated let-binding (BCL lets are non-strict)."""

    __slots__ = ("expr", "env", "read", "evaluator", "hooks", "_value", "_forced")

    def __init__(self, expr: Expr, env: Dict[str, Any], read: ReadFn, evaluator, hooks):
        self.expr = expr
        self.env = env
        self.read = read
        self.evaluator = evaluator
        self.hooks = hooks
        self._value: Any = None
        self._forced = False

    def force(self) -> Any:
        if not self._forced:
            self._value = self.evaluator.eval_expr(self.expr, self.env, self.read, self.hooks)
            self._forced = True
        return self._value


class Evaluator:
    """Evaluates expressions and actions against a read function.

    The evaluator is stateless; all state flows through the ``read`` callback
    and the returned update dictionaries, which is what makes shadowing,
    sequential overlays and rollback compositional.
    """

    def __init__(self, max_loop_iterations: int = 1_000_000):
        self.max_loop_iterations = max_loop_iterations

    # ------------------------------------------------------------------ expr

    def eval_expr(
        self,
        expr: Expr,
        env: Dict[str, Any],
        read: ReadFn,
        hooks: Optional[EvalHooks] = None,
    ) -> Any:
        hooks = hooks or _NO_HOOKS
        hooks.on_node(expr)

        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in env:
                raise ElaborationError(f"unbound variable {expr.name!r}")
            value = env[expr.name]
            return value.force() if isinstance(value, _Thunk) else value
        if isinstance(expr, RegRead):
            hooks.on_register_read(expr.reg)
            return read(expr.reg)
        if isinstance(expr, UnOp):
            return UNARY_OPS[expr.op](self.eval_expr(expr.operand, env, read, hooks))
        if isinstance(expr, BinOp):
            left = self.eval_expr(expr.left, env, read, hooks)
            # Short-circuit boolean operators so a guarded right operand is
            # only evaluated when it matters.
            if expr.op == "&&" and not left:
                return False
            if expr.op == "||" and left:
                return True
            right = self.eval_expr(expr.right, env, read, hooks)
            return BINARY_OPS[expr.op](left, right)
        if isinstance(expr, Mux):
            cond = self.eval_expr(expr.cond, env, read, hooks)
            branch = expr.then if cond else expr.orelse
            return self.eval_expr(branch, env, read, hooks)
        if isinstance(expr, WhenE):
            guard = self.eval_expr(expr.guard, env, read, hooks)
            if not guard:
                hooks.on_guard_fail(expr)
                raise GuardFail(f"expression guard failed at {expr!r}")
            return self.eval_expr(expr.body, env, read, hooks)
        if isinstance(expr, LetE):
            new_env = dict(env)
            new_env[expr.name] = _Thunk(expr.value, env, read, self, hooks)
            return self.eval_expr(expr.body, new_env, read, hooks)
        if isinstance(expr, FieldSelect):
            value = self.eval_expr(expr.operand, env, read, hooks)
            if isinstance(expr.field, int):
                return value[expr.field]
            if isinstance(value, (dict, RawStruct)):
                return value[expr.field]
            return getattr(value, expr.field)
        if isinstance(expr, KernelCall):
            arg_values = [self.eval_expr(a, env, read, hooks) for a in expr.args]
            hooks.on_kernel(expr, arg_values)
            return expr.fn(*arg_values)
        if isinstance(expr, MethodCallE):
            return self._call_value_method(expr.instance, expr.method, expr.args, env, read, hooks)
        raise ElaborationError(f"cannot evaluate expression node {expr!r}")

    # ---------------------------------------------------------------- action

    def exec_action(
        self,
        action: Action,
        env: Dict[str, Any],
        read: ReadFn,
        hooks: Optional[EvalHooks] = None,
    ) -> Updates:
        hooks = hooks or _NO_HOOKS
        hooks.on_node(action)

        if isinstance(action, NoAction):
            return {}
        if isinstance(action, RegWrite):
            value = self.eval_expr(action.value, env, read, hooks)
            hooks.on_register_write(action.reg)
            return {action.reg: value}
        if isinstance(action, IfA):
            cond = self.eval_expr(action.cond, env, read, hooks)
            if cond:
                return self.exec_action(action.then, env, read, hooks)
            if action.orelse is not None:
                return self.exec_action(action.orelse, env, read, hooks)
            return {}
        if isinstance(action, WhenA):
            guard = self.eval_expr(action.guard, env, read, hooks)
            if not guard:
                hooks.on_guard_fail(action)
                raise GuardFail(f"action guard failed at {action!r}")
            return self.exec_action(action.body, env, read, hooks)
        if isinstance(action, Par):
            return self._exec_par(action, env, read, hooks)
        if isinstance(action, Seq):
            return self._exec_seq(action.actions, env, read, hooks)
        if isinstance(action, LetA):
            new_env = dict(env)
            new_env[action.name] = _Thunk(action.value, env, read, self, hooks)
            return self.exec_action(action.body, new_env, read, hooks)
        if isinstance(action, Loop):
            return self._exec_loop(action, env, read, hooks)
        if isinstance(action, LocalGuard):
            try:
                return self.exec_action(action.body, env, read, hooks)
            except GuardFail:
                return {}
        if isinstance(action, MethodCallA):
            return self._call_action_method(
                action.instance, action.method, action.args, env, read, hooks
            )
        raise ElaborationError(f"cannot execute action node {action!r}")

    # ------------------------------------------------------------- composites

    def _exec_par(self, action: Par, env: Dict[str, Any], read: ReadFn, hooks: EvalHooks) -> Updates:
        merged: Updates = {}
        for sub in action.actions:
            updates = self.exec_action(sub, env, read, hooks)
            for reg, value in updates.items():
                if reg in merged:
                    raise DoubleWriteError(
                        f"parallel composition writes register {reg.full_name} twice"
                    )
                merged[reg] = value
        return merged

    def _exec_seq(
        self, actions: Sequence[Action], env: Dict[str, Any], read: ReadFn, hooks: EvalHooks
    ) -> Updates:
        overlay: Updates = {}

        def overlaid_read(reg: Register) -> Any:
            if reg in overlay:
                return overlay[reg]
            return read(reg)

        for sub in actions:
            updates = self.exec_action(sub, env, overlaid_read, hooks)
            overlay.update(updates)
        return overlay

    def _exec_loop(self, action: Loop, env: Dict[str, Any], read: ReadFn, hooks: EvalHooks) -> Updates:
        overlay: Updates = {}

        def overlaid_read(reg: Register) -> Any:
            if reg in overlay:
                return overlay[reg]
            return read(reg)

        limit = min(action.max_iterations, self.max_loop_iterations)
        iterations = 0
        while self.eval_expr(action.cond, env, overlaid_read, hooks):
            updates = self.exec_action(action.body, env, overlaid_read, hooks)
            overlay.update(updates)
            iterations += 1
            if iterations >= limit:
                raise SimulationError(
                    f"loop exceeded {limit} iterations; "
                    "either the bound is too small or the loop does not terminate"
                )
        return overlay

    # ---------------------------------------------------------------- methods

    def _bind_params(
        self,
        method: Method,
        args: Sequence[Expr],
        env: Dict[str, Any],
        read: ReadFn,
        hooks: EvalHooks,
    ) -> List[Any]:
        if len(args) != len(method.params):
            raise ElaborationError(
                f"method {method.module.name}.{method.name} expects "
                f"{len(method.params)} arguments, got {len(args)}"
            )
        # Method calls are strict (each method is a concrete port).
        return [self.eval_expr(a, env, read, hooks) for a in args]

    def _call_value_method(
        self,
        instance: Module,
        name: str,
        args: Sequence[Expr],
        env: Dict[str, Any],
        read: ReadFn,
        hooks: EvalHooks,
    ) -> Any:
        hooks.on_method(instance, name)
        method = instance.get_method(name)
        arg_values = self._bind_params(method, args, env, read, hooks)
        if isinstance(instance, PrimitiveModule):
            native = instance.get_native(name)
            if not native.guard_fn(read, *arg_values):
                hooks.on_guard_fail(method)
                raise GuardFail(f"value method {instance.name}.{name} is not ready")
            _, result = native.body_fn(read, *arg_values)
            return result
        method_env = dict(zip(method.params, arg_values))
        guard_ok = self.eval_expr(method.guard, method_env, read, hooks)
        if not guard_ok:
            hooks.on_guard_fail(method)
            raise GuardFail(f"value method {instance.name}.{name} is not ready")
        if method.body is None:
            raise ElaborationError(f"value method {instance.name}.{name} has no body")
        return self.eval_expr(method.body, method_env, read, hooks)

    def _call_action_method(
        self,
        instance: Module,
        name: str,
        args: Sequence[Expr],
        env: Dict[str, Any],
        read: ReadFn,
        hooks: EvalHooks,
    ) -> Updates:
        hooks.on_method(instance, name)
        method = instance.get_method(name)
        arg_values = self._bind_params(method, args, env, read, hooks)
        if isinstance(instance, PrimitiveModule):
            native = instance.get_native(name)
            if not native.guard_fn(read, *arg_values):
                hooks.on_guard_fail(method)
                raise GuardFail(f"action method {instance.name}.{name} is not ready")
            updates, _ = native.body_fn(read, *arg_values)
            for reg in updates:
                hooks.on_register_write(reg)
            return updates
        method_env = dict(zip(method.params, arg_values))
        guard_ok = self.eval_expr(method.guard, method_env, read, hooks)
        if not guard_ok:
            hooks.on_guard_fail(method)
            raise GuardFail(f"action method {instance.name}.{name} is not ready")
        if method.body is None:
            raise ElaborationError(f"action method {instance.name}.{name} has no body")
        return self.exec_action(method.body, method_env, read, hooks)


_NO_HOOKS = EvalHooks()


class RuleOutcome:
    """The result of attempting one rule: whether it fired, and its updates."""

    def __init__(self, rule: Rule, fired: bool, updates: Optional[Updates] = None):
        self.rule = rule
        self.fired = fired
        self.updates: Updates = updates or {}

    def __repr__(self) -> str:
        status = "fired" if self.fired else "guard-failed"
        return f"RuleOutcome({self.rule.full_name}, {status}, {len(self.updates)} updates)"


def try_rule(
    rule: Rule,
    store: Store,
    evaluator: Optional[Evaluator] = None,
    hooks: Optional[EvalHooks] = None,
) -> RuleOutcome:
    """Evaluate ``rule`` against ``store`` without committing anything.

    Returns a :class:`RuleOutcome`; the caller decides whether/when to commit
    (``store.update(outcome.updates)``), which is what lets the HW and SW
    engines impose their own schedules on the same semantics.
    """
    evaluator = evaluator or Evaluator()

    def read(reg: Register) -> Any:
        if reg not in store:
            raise SimulationError(f"register {reg.full_name} is not part of this store")
        return store[reg]

    try:
        updates = evaluator.exec_action(rule.action, {}, read, hooks)
    except GuardFail:
        return RuleOutcome(rule, fired=False)
    return RuleOutcome(rule, fired=True, updates=updates)


def commit(store: Store, updates: Updates) -> None:
    """Apply a rule's updates to the store (the commit phase of Section 6.2)."""
    store.update(updates)
