"""Modules, registers, rules and methods.

A BCL program is a hierarchy of modules.  Every module owns

* *state elements* -- registers and sub-module instances (ultimately all
  state is built from registers),
* *rules* -- guarded atomic actions describing internal state transitions,
* *methods* -- the interface through which the enclosing module (or the
  environment) interacts with it.  Every method carries an implicit guard;
  calling an unready method invalidates the calling rule.

The classes below represent the *elaborated* program: modules are concrete
instances (as after BSV static elaboration), so rules and methods refer to
register and sub-module objects directly rather than by name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.action import Action, MethodCallA, RegWrite
from repro.core.errors import ElaborationError, TypeCheckError
from repro.core.expr import Const, Expr, MethodCallE, RegRead, TRUE, lift_value
from repro.core.types import BCLType


class Register:
    """A primitive state element holding one value of a BCL type."""

    def __init__(self, name: str, ty: BCLType, init: Any = None):
        self.name = name
        self.ty = ty
        self.init = ty.default() if init is None else init
        self.parent: Optional["Module"] = None

    @property
    def full_name(self) -> str:
        """Hierarchical name, e.g. ``top.ifft.buff0_data``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.full_name}.{self.name}"

    # -- DSL sugar ---------------------------------------------------------

    def read(self) -> RegRead:
        """An expression reading this register."""
        return RegRead(self)

    def write(self, value) -> RegWrite:
        """An action writing ``value`` (expression or constant) to this register."""
        return RegWrite(self, lift_value(value))

    def __repr__(self) -> str:
        return f"Register({self.full_name}, {self.ty!r})"


class Method:
    """An interface method of a module.

    ``kind`` is ``"action"`` (the body is an :class:`Action`) or ``"value"``
    (the body is an :class:`Expr`).  ``guard`` is the method's explicit guard;
    implicit guards arise from guarded sub-terms of the body.  ``domain``
    optionally pins the method to a computational domain -- ordinary methods
    inherit their module's domain, synchronizer methods override it.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        params: Sequence[str] = (),
        body: Optional[object] = None,
        guard: Optional[Expr] = None,
        domain: Optional["Domain"] = None,  # noqa: F821
    ):
        if kind not in ("action", "value"):
            raise TypeCheckError(f"method kind must be 'action' or 'value', got {kind!r}")
        self.name = name
        self.kind = kind
        self.params = list(params)
        self.body = body
        self.guard = guard if guard is not None else TRUE
        self.domain = domain
        self.module: Optional["Module"] = None

    def __repr__(self) -> str:
        owner = self.module.name if self.module else "?"
        return f"Method({owner}.{self.name}, kind={self.kind})"


class Rule:
    """A guarded atomic action owned by a module.

    The rule's guard is the conjunction of every explicit and implicit guard
    inside ``action``; evaluation of the rule either commits the computed
    state updates (guard true) or has no effect (guard false).
    """

    def __init__(
        self,
        name: str,
        action: Action,
        domain: Optional["Domain"] = None,  # noqa: F821
        urgency: int = 0,
    ):
        self.name = name
        self.action = action
        self.domain = domain
        self.urgency = urgency
        self.module: Optional["Module"] = None

    @property
    def full_name(self) -> str:
        if self.module is None:
            return self.name
        return f"{self.module.full_name}.{self.name}"

    def __repr__(self) -> str:
        return f"Rule({self.full_name})"


class Module:
    """A BCL module instance: state, rules and interface methods."""

    def __init__(self, name: str, domain: Optional["Domain"] = None):  # noqa: F821
        self.name = name
        self.domain = domain
        self.parent: Optional["Module"] = None
        self.registers: List[Register] = []
        self.submodules: List[Module] = []
        self.rules: List[Rule] = []
        self.methods: Dict[str, Method] = {}

    # -- construction ------------------------------------------------------

    def add_register(self, name: str, ty: BCLType, init: Any = None) -> Register:
        reg = Register(name, ty, init)
        reg.parent = self
        self.registers.append(reg)
        return reg

    def add_submodule(self, module: "Module") -> "Module":
        module.parent = self
        self.submodules.append(module)
        return module

    def add_rule(
        self,
        name: str,
        action: Action,
        domain: Optional["Domain"] = None,  # noqa: F821
        urgency: int = 0,
    ) -> Rule:
        rule = Rule(name, action, domain=domain, urgency=urgency)
        rule.module = self
        self.rules.append(rule)
        return rule

    def add_method(
        self,
        name: str,
        kind: str,
        params: Sequence[str] = (),
        body: Optional[object] = None,
        guard: Optional[Expr] = None,
        domain: Optional["Domain"] = None,  # noqa: F821
    ) -> Method:
        if name in self.methods:
            raise ElaborationError(f"module {self.name} already has a method {name!r}")
        method = Method(name, kind, params, body, guard, domain)
        method.module = self
        self.methods[name] = method
        return method

    # -- interface calls (DSL sugar) ----------------------------------------

    def call(self, method: str, *args) -> MethodCallA:
        """Build an action-method call on this module."""
        self._check_method(method, "action")
        return MethodCallA(self, method, [lift_value(a) for a in args])

    def value(self, method: str, *args) -> MethodCallE:
        """Build a value-method call on this module."""
        self._check_method(method, "value")
        return MethodCallE(self, method, [lift_value(a) for a in args])

    def _check_method(self, method: str, kind: str) -> None:
        m = self.get_method(method)
        if m.kind != kind:
            raise TypeCheckError(
                f"method {self.name}.{method} is a {m.kind} method, used as {kind} method"
            )

    def get_method(self, name: str) -> Method:
        if name not in self.methods:
            raise ElaborationError(f"module {self.name} has no method {name!r}")
        return self.methods[name]

    # -- hierarchy queries ---------------------------------------------------

    @property
    def full_name(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.full_name}.{self.name}"

    def all_modules(self) -> Iterator["Module"]:
        """This module and every module below it, pre-order."""
        yield self
        for sub in self.submodules:
            yield from sub.all_modules()

    def all_registers(self) -> Iterator[Register]:
        for mod in self.all_modules():
            yield from mod.registers

    def all_rules(self) -> Iterator[Rule]:
        for mod in self.all_modules():
            yield from mod.rules

    def is_primitive(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"Module({self.full_name})"


class PrimitiveModule(Module):
    """A module whose methods are implemented natively by the interpreter.

    Primitives (registers are handled separately; FIFOs, register files,
    wires, synchronizers) expose :class:`NativeMethod` entries: a guard
    function and a body function over the interpreter's store.  Sub-classes
    may also declare pairs of methods that are *concurrently schedulable*
    within one hardware clock cycle even though they touch the same internal
    state (e.g. ``enq``/``deq`` of a pipeline FIFO).
    """

    def __init__(self, name: str, domain: Optional["Domain"] = None):  # noqa: F821
        super().__init__(name, domain)
        self.native: Dict[str, "NativeMethod"] = {}

    def add_native_method(
        self,
        name: str,
        kind: str,
        guard_fn: Callable[..., bool],
        body_fn: Callable[..., Tuple[Dict[Register, Any], Any]],
        params: Sequence[str] = (),
        domain: Optional["Domain"] = None,  # noqa: F821
        reads: Sequence[Register] = (),
        writes: Sequence[Register] = (),
        template: Optional["NativeTemplate"] = None,
    ) -> "NativeMethod":
        method = self.add_method(name, kind, params, body=None, domain=domain)
        native = NativeMethod(method, guard_fn, body_fn, list(reads), list(writes), template)
        self.native[name] = native
        return native

    def get_native(self, name: str) -> "NativeMethod":
        if name not in self.native:
            raise ElaborationError(f"primitive {self.name} has no native method {name!r}")
        return self.native[name]

    def concurrently_schedulable(self, method_a: str, method_b: str) -> bool:
        """Whether two methods may be invoked by different rules in the same HW cycle."""
        return False

    def symbolic_guard(self, method: str, args: Sequence[object]) -> Optional[object]:
        """A guard *expression* equivalent to the method's implicit guard, if known.

        Guard lifting uses this to hoist primitive-method readiness (e.g. a
        FIFO ``enq``'s *not full* condition) to the top of the rule, which is
        what lets the generated software check a cheap condition up front and
        then execute the rule body in place without shadow state
        (Section 6.3).  Returning ``None`` means "unknown -- stay
        conservative".
        """
        return None

    def is_primitive(self) -> bool:
        return True


class NativeTemplate:
    """The source tier's inline lowering of one native method.

    Each piece is Python expression text with ``str.format`` fields: a
    method parameter by name, a state register of the primitive by its
    attribute name (``data``, ``mem``, ``flag``: the register's current
    value, read once per call), or any other instance attribute
    (``depth``, ``size``), which the generator binds as a name so the text
    is the same whatever its value.

    * ``guard`` -- the readiness test; ``None`` when always ready;
    * ``result`` -- a value method's result;
    * ``writes`` -- an action method's updates, ``(register attribute,
      new value)`` pairs.

    It must compute what the method's ``guard_fn`` / ``body_fn`` compute
    (``tests/test_compiled_backend.py`` checks every shipped template
    against them).
    """

    __slots__ = ("guard", "result", "writes")

    def __init__(
        self,
        guard: Optional[str] = None,
        result: Optional[str] = None,
        writes: Sequence[Tuple[str, str]] = (),
    ):
        self.guard = guard
        self.result = result
        self.writes = tuple(writes)


class NativeMethod:
    """Native implementation of a primitive-module method.

    ``guard_fn(read, *args)`` returns a bool; ``body_fn(read, *args)`` returns
    ``(updates, return_value)`` where ``updates`` maps registers to new
    values and ``read`` is a function ``Register -> current value`` supplied
    by the interpreter (so the primitive sees the correct shadowed state).
    ``template`` is the same method as inline source text for the
    generated tier; a native method without one cannot run there.
    """

    def __init__(
        self,
        method: Method,
        guard_fn: Callable[..., bool],
        body_fn: Callable[..., Tuple[Dict[Register, Any], Any]],
        reads: List[Register],
        writes: List[Register],
        template: Optional[NativeTemplate] = None,
    ):
        self.method = method
        self.guard_fn = guard_fn
        self.body_fn = body_fn
        self.reads = reads
        self.writes = writes
        self.template = template


class Design:
    """A complete elaborated BCL program: a root module plus bookkeeping."""

    def __init__(self, root: Module, name: Optional[str] = None):
        self.root = root
        self.name = name or root.name

    def all_modules(self) -> List[Module]:
        return list(self.root.all_modules())

    def all_registers(self) -> List[Register]:
        return list(self.root.all_registers())

    def all_rules(self) -> List[Rule]:
        return list(self.root.all_rules())

    def find_module(self, name: str) -> Module:
        for mod in self.root.all_modules():
            if mod.name == name or mod.full_name == name:
                return mod
        raise ElaborationError(f"design {self.name} has no module named {name!r}")

    def find_rule(self, name: str) -> Rule:
        for rule in self.root.all_rules():
            if rule.name == name or rule.full_name == name:
                return rule
        raise ElaborationError(f"design {self.name} has no rule named {name!r}")

    def initial_store(self) -> Dict[Register, Any]:
        """The reset state: every register mapped to its initial value."""
        return {reg: reg.init for reg in self.all_registers()}

    def __repr__(self) -> str:
        return (
            f"Design({self.name}, modules={len(self.all_modules())}, "
            f"rules={len(self.all_rules())}, registers={len(self.all_registers())})"
        )
