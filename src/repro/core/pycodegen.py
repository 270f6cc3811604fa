"""Source-lowered execution tier: flat generated Python per rule and route.

The engines have two rule backends: ``interp``, the tree-walking
:class:`~repro.core.semantics.Evaluator` (the semantic reference oracle),
and ``source``, generated here.  Each *already elaborated*
``Expr``/``Action`` tree is lowered once to flat Python source --
operators inlined as Python infix, environment frames become local
variables, registers and kernel functions resolved to direct names in the
module namespace, the native methods of FIFOs, memories and wires inlined
from their :class:`~repro.core.module.NativeTemplate`, a failed guard
returning None from a hardware rule function's own level and raising the
one shared, prebuilt ``GuardFail`` (``_GF``) anywhere else -- and the
module is ``exec``-compiled at elaboration time.  A hardware rule function
tests the implicit conditions of the FIFO calls it makes unconditionally
before its first kernel, as Section 6.3's lifted guard enables a hardware
rule, so a rule that cannot fire computes nothing.

Two generation modes reproduce the tree walker's observable behaviour
bit-for-bit:

* ``latency`` -- folded hardware FSM latency, no hooks: each kernel adds
  ``max(0, hw_cycles - 1)`` (a constant folded at generation, a callable
  called inline before the kernel) and each memory with ``read_latency``
  above 1 adds ``read_latency - 1`` to a one-element charge cell, which is
  exactly what the HW engine's ``HwLatencyAccumulator`` counts (the
  ``Simulator`` runs it too and discards the charge);
* ``count``   -- folded software-cost accumulation against a concrete
  :class:`~repro.sim.costmodel.SwCostParams`: straight-line subtrees
  (:func:`static_cost`) collapse to one integer add, dynamic subtrees
  charge at exactly the tree walker's program points.

``count`` and ``latency`` pass the same charge cell through lazy lets and
user methods, and adjacent integer charges merge into one add.

On top of the per-rule functions the engine supersteps themselves are
generated (``generate_sw_step`` / ``generate_hw_step``): the dirty-set
scan, guard, body and cost commit of one engine step fuse into a single
generated function with all identity-stable collaborators pre-bound in the
module namespace, so a quiescent engine is one generated-function call.
Each engine's step module also holds its ``_commit``, which stores updates
and wakes the rules reading each written register without a callback.
The hardware step also compiles in the engine's static schedule: one
unrolled block per rule and the conflict matrix as boolean chains.
Rebindable engine state (``busy_until``, ``_pending_updates``, counters)
is always accessed through ``self`` so the snapshot/restore identity
contract keeps holding.  Transport routes lower to generated pump and
delivery functions, and ``generate_group_loop`` unrolls a group
sub-fabric's event loop over its routes and engines, so an idle engine or
an empty route costs an inline test instead of a call.

A node the lowerer cannot translate is an
:class:`~repro.core.errors.ElaborationError` naming the rule, the
generation mode and the node: there is no fallback tier, so a new AST
node must be lowered in every mode before ``source`` can run it.

Compiled once per shape: each rule is its own unit (one module holding
its latency function, or its software attempt), and every per-instance value -- registers,
kernels, stores, a route's credit depth or vc id, an engine's rule count
-- is a namespace binding, so the text below a module's header line
depends only on the shape it lowers.  Each distinct text is compiled once
per interpreter into a template that never runs; every instance execs
its own copy of it (:func:`_private_copy`), so instances keep their own
adaptive bytecode and their own filename.  Lowered once per shape: a rule
unit is keyed on a structural digest of everything its lowering reads
(:class:`_ShapeDigest`), and a repeated key reuses the lowered text and
rebinds its names to the new instance's objects (:func:`_lower_unit`).

Debugging: set ``REPRO_DUMP_SOURCE=<dir>`` to write every generated module
to disk; all modules are registered with :mod:`linecache` so tracebacks
through generated functions show real source lines.
"""

from __future__ import annotations

import functools
import hashlib
import keyword
import linecache
import os
import re
import string
import weakref
from types import CodeType, FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

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

__all__ = [
    "GeneratedModule",
    "SourceRuleExec",
    "default_rule_backend",
    "raise_for_missing_register",
    "resolve_backend",
    "static_cost",
    "VALID_BACKENDS",
    "generate_rule_execs",
    "generate_counting_attempts",
    "generate_sw_step",
    "generate_hw_step",
    "generate_transport_pump",
    "generate_transport_delivery",
    "generate_group_loop",
]

#: Rule-execution backends: ``interp`` is the oracle, ``source`` executes.
VALID_BACKENDS = ("interp", "source")


def default_rule_backend() -> str:
    """The backend everything uses when the caller does not pick one.

    ``source``, unless ``REPRO_RULE_BACKEND`` names another valid backend
    (``interp`` runs the whole system on the oracle).  Any other non-empty
    value is a :class:`ValueError`, never a silent fallback.
    """
    name = os.environ.get("REPRO_RULE_BACKEND", "").strip().lower()
    if not name:
        return "source"
    if name not in VALID_BACKENDS:
        raise ValueError(
            f"REPRO_RULE_BACKEND={name!r} is not a rule backend "
            f"(expected one of {', '.join(VALID_BACKENDS)})"
        )
    return name


def resolve_backend(backend: Optional[str]) -> str:
    """``backend``, or the default when ``None``; unknown names raise."""
    if backend is None:
        return default_rule_backend()
    if backend not in VALID_BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r} "
            f"(expected one of {', '.join(VALID_BACKENDS)})"
        )
    return backend


def raise_for_missing_register(exc: KeyError) -> None:
    """Convert a store-miss ``KeyError`` to the tree walker's diagnostic.

    Generated code reads through ``store.__getitem__`` for speed; when the
    missing key is a register this re-raises the same
    :class:`SimulationError` the interp backend's ``try_rule`` produces.
    Other ``KeyError``\\ s (e.g. a struct field select) return to the
    caller, which should re-raise.
    """
    key = exc.args[0] if exc.args else None
    if isinstance(key, Register):
        raise SimulationError(
            f"register {key.full_name} is not part of this store"
        ) from None


def _seq_never_reads_back(actions) -> bool:
    """Whether no element of a ``Seq`` reads a register an earlier one writes.

    Uses the conservative static read/write sets, so ``True`` guarantees the
    sequential overlay can never be consulted and the incoming read function
    may be threaded through unchanged.
    """
    from repro.core.analysis import read_set, write_set

    written: set = set()
    for sub in actions:
        if written and (written & read_set(sub)):
            return False
        written |= write_set(sub)
    return True


def static_cost(node: Any, scope: Dict[str, Tuple[str, str]], params: Any) -> Optional[int]:
    """Total CPU cost of ``node`` if it is straight-line, else ``None``.

    Straight-line means: evaluation always visits every sub-node exactly
    once (no Mux/short-circuit/If branches, no loops), cannot raise a guard
    failure, forces no lazy bindings, and all kernel costs are constants.
    Method calls are never straight-line (their implicit guards may fail
    and their native bodies have dynamic write counts).  ``scope`` maps a
    variable name to its ``(kind, local)`` binding; a ``"thunk"`` (lazy
    let) or unbound variable is dynamic.  Costs are ``params``'
    (:class:`~repro.sim.costmodel.SwCostParams`) per-node charges, so the
    folded total equals the tree walker's ``cpu_cycles`` exactly.
    """
    if isinstance(node, (Const, NoAction)):
        return 0
    if isinstance(node, Var):
        entry = scope.get(node.name)
        return None if entry is None or entry[0] == "thunk" else 0
    if isinstance(node, RegRead):
        return params.reg_read
    if isinstance(node, (UnOp, FieldSelect)):
        inner = static_cost(node.operand, scope, params)
        return None if inner is None else params.alu_op + inner
    if isinstance(node, BinOp):
        if node.op in ("&&", "||"):
            return None
        left = static_cost(node.left, scope, params)
        if left is None:
            return None
        right = static_cost(node.right, scope, params)
        return None if right is None else params.alu_op + left + right
    if isinstance(node, KernelCall):
        if callable(node.sw_cycles):
            return None
        total = int(node.sw_cycles) + params.kernel_dispatch
        for arg in node.args:
            inner = static_cost(arg, scope, params)
            if inner is None:
                return None
            total += inner
        return total
    if isinstance(node, RegWrite):
        inner = static_cost(node.value, scope, params)
        return None if inner is None else params.reg_write + inner
    if isinstance(node, (Par, Seq)):
        total = 0
        for sub in node.actions:
            inner = static_cost(sub, scope, params)
            if inner is None:
                return None
            total += inner
        return total
    # Mux, WhenE/WhenA, LetE/LetA, IfA, Loop, LocalGuard, method calls:
    # branching, failing, lazy or dynamic -- never straight-line.
    return None


# --------------------------------------------------------------------------
# generated modules: compile cache, linecache registration, source dumping
# --------------------------------------------------------------------------

#: Text below the header line -> template code object.  Generated text
#: depends only on the shape it lowers, so designs, re-elaborations and
#: sibling routes of one shape share a template: it is compiled once per
#: interpreter, under the first instance's filename, and never run.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_LIMIT = 256

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def _private_copy(code: CodeType, filename: str) -> CodeType:
    """``code`` and the code objects nested in it, copied under ``filename``.

    Each copy has its own adaptive bytecode, so instances of one template
    with different globals do not share (and thrash) inline caches.
    """
    consts = tuple(
        _private_copy(const, filename) if isinstance(const, CodeType) else const
        for const in code.co_consts
    )
    return code.replace(co_filename=filename, co_consts=consts)


class GeneratedModule:
    """One exec-compiled generated module plus its namespace and source.

    The first line of ``source`` is a header comment naming the module (and
    the rule it lowers); the text below it is the compile-cache key, and
    the module runs a private copy of that text's template.
    """

    __slots__ = ("name", "digest", "filename", "source", "namespace")

    def __init__(self, name: str, source: str, bindings: Dict[str, Any]):
        self.name = name
        self.digest, self.filename = register_source(name, source)
        self.source = source
        namespace: Dict[str, Any] = dict(bindings)
        namespace["__name__"] = f"repro.generated.{name}"
        body = source.partition("\n")[2]
        template = _CODE_CACHE.get(body)
        if template is None:
            template = compile(source, self.filename, "exec")
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
            _CODE_CACHE[body] = template
        exec(_private_copy(template, self.filename), namespace)
        self.namespace = namespace
        _forget_when_unused(namespace, self.filename, (name, self.digest))

    def dump(self, directory: str) -> str:
        """Write the generated source to ``directory`` and return the path
        (see :func:`dump_source`)."""
        return dump_source(directory, self.name, self.digest, self.source)


#: (module name, content digest) -> the next instance's serial, the text's
#: linecache lines and the filenames of its live instances (see
#: :func:`register_source`).  An entry goes with its last live instance.
_INSTANCES: Dict[Tuple[str, str], Tuple[int, List[str], set]] = {}


def register_source(name: str, source: str) -> Tuple[str, str]:
    """Make the generated text ``source`` of module ``name`` debuggable.

    Returns its content digest and the filename to compile it under,
    registers it with :mod:`linecache` (so tracebacks through its functions
    show real source lines) and writes it to ``$REPRO_DUMP_SOURCE`` when
    that is set.  The digest keeps distinct designs that share a module
    name (two engines both called "HW") from clobbering each other's
    linecache entry or dump file.  The first instance of a (name, digest)
    is ``<repro-generated:name#digest>``; each later one while an earlier
    one lives, say a second resident server of one design, gets a serial
    (``...#digest~1>``), so profilers, which key functions by file, line
    and name, count every instance apart.  All instances of one text share
    one linecache lines list and one dump file.
    """
    digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:8]
    serial, lines, live = _INSTANCES.get((name, digest), (0, None, set()))
    if lines is None:
        lines = source.splitlines(True)
    tag = f"~{serial}" if serial else ""
    filename = f"<repro-generated:{name}#{digest}{tag}>"
    live.add(filename)
    _INSTANCES[name, digest] = (serial + 1, lines, live)
    linecache.cache[filename] = (len(source), None, lines, filename)
    dump_dir = os.environ.get("REPRO_DUMP_SOURCE")
    if dump_dir:
        dump_source(dump_dir, name, digest, source)
    return digest, filename


#: Filename -> a weak reference to one function of that module instance.
_WATCHED: Dict[str, "weakref.ref[FunctionType]"] = {}


def _forget_when_unused(namespace: Dict[str, Any], filename: str, key: Tuple[str, str]) -> None:
    """Drop a module instance's linecache entry once nothing can run it,
    and its text's :data:`_INSTANCES` entry with the text's last instance.

    Its functions and its namespace die together, and a traceback through
    one of them holds the namespace, so the entry lasts as long as its
    lines can be shown; a process that elaborates again and again (a fresh
    fabric per request) does not keep one entry per instance it built.
    """
    for value in reversed(namespace.values()):  # definitions come last
        if type(value) is FunctionType and value.__globals__ is namespace:
            _WATCHED[filename] = weakref.ref(
                value, lambda _, filename=filename, key=key: _forget(filename, key)
            )
            return


def _forget(filename: str, key: Tuple[str, str]) -> None:
    linecache.cache.pop(filename, None)
    _WATCHED.pop(filename, None)
    entry = _INSTANCES.get(key)
    if entry is not None:
        entry[2].discard(filename)
        if not entry[2]:
            del _INSTANCES[key]


def dump_source(directory: str, name: str, digest: str, source: str) -> str:
    """Write generated ``source`` to ``directory`` and return the path.

    The file is named ``<stem>-<digest>.<kind>.py`` (``HW-1a2b3c4d.hwstep.py``):
    the content digest tells apart modules of different designs that share
    a name, and the module kind stays the suffix.
    """
    os.makedirs(directory, exist_ok=True)
    stem, dot, kind = name.rpartition(".")
    stamped = f"{stem}-{digest}.{kind}" if dot else f"{name}-{digest}"
    path = os.path.join(directory, _SAFE_NAME.sub("_", stamped) + ".py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)
    return path


#: Names every generated module binds, whatever it lowers.  ``_GF`` is
#: the one ``GuardFail`` generated code raises: a failed guard is control
#: flow, caught inside the engine step, so no raise site needs its own
#: message.  A latency rule function returns None for a failure at its own
#: level instead; ``_GF`` is raised only in a ``localGuard`` body, a lazy
#: let's thunk, a user method and count-mode attempts.
#: Raising an exception extends the traceback it still holds, so every
#: generated ``except GuardFail:`` clears it; no traceback outlives its
#: handler and pins the frames it passed through.
_BASE_BINDINGS: Dict[str, Any] = {
    "_GF": GuardFail(),
    "GuardFail": GuardFail,
    "RawStruct": RawStruct,
    "SimulationError": SimulationError,
    "DoubleWriteError": DoubleWriteError,
    "ElaborationError": ElaborationError,
}


def _header(name: str, rule: Optional[Rule]) -> str:
    """A generated module's header line: it names the module and, for a
    rule unit, the rule; the text below it depends only on the shape."""
    subject = f" -- rule {rule.full_name}" if rule is not None else ""
    return f"# generated by repro.core.pycodegen -- {name}{subject}\n"


class _ModuleBuilder:
    """Accumulates functions and deterministic namespace bindings.

    Symbol names come from a monotonically increasing counter in lowering
    order, so the same shape always produces byte-identical text below the
    header (the bound *objects* differ per instance; the *text* does not).
    Only the header line names the module and, for a rule unit, the rule.
    """

    def __init__(self, name: str, rule: Optional[Rule] = None):
        self.name = name
        self.chunks: List[str] = [_header(name, rule)]
        self.bindings: Dict[str, Any] = dict(_BASE_BINDINGS)
        self._by_id: Dict[Any, str] = {}
        #: Binding name -> how to remake an object the lowerer made itself
        #: (an error message's text), for the lowering cache.
        self.made: Dict[str, tuple] = {}
        self._counter = 0
        self._fn_counter = 0
        #: Set when a lazy let is forced: only then is ``_force`` emitted.
        self.uses_force = False
        #: Set when latency-mode lowering emits an FSM charge anywhere in
        #: the module (thunks and user methods included).
        self.latency_charged = False
        #: id(action) -> its static write set (see :meth:`writes_of`).
        self._writes: Dict[int, frozenset] = {}
        #: A one-update dict literal's text -> its (key, value) texts.
        self.single_updates: Dict[str, Tuple[str, str]] = {}

    def single_update(self, key: str, value: str) -> str:
        """The dict literal ``{key: value}``, remembered so a ``Par``
        merging it can store the one item instead."""
        text = f"{{{key}: {value}}}"
        self.single_updates[text] = (key, value)
        return text

    def bind(self, obj: Any, prefix: str = "o", key: Any = None) -> str:
        """Bind ``obj`` into the namespace under a deterministic name.

        Bindings are shared by object identity, or by ``key`` when one is
        given: a primitive's depth or size binds per instance, so two
        instances get two names even where their values are one object.
        """
        if key is None:
            key = id(obj)
        name = self._by_id.get(key)
        if name is None:
            name = f"_{prefix}{self._counter}"
            self._counter += 1
            self._by_id[key] = name
            self.bindings[name] = obj
        return name

    def writes_of(self, action: Action) -> frozenset:
        """The registers ``action`` may write (``analysis.write_set``),
        memoised per node so each action of the unit is visited once."""
        writes = self._writes.get(id(action))
        if writes is None:
            if isinstance(action, RegWrite):
                writes = frozenset((action.reg,))
            elif isinstance(action, MethodCallA):
                from repro.core.analysis import _method_write_set

                writes = _method_write_set(action.instance, action.method)
            else:
                writes = frozenset().union(
                    *[self.writes_of(sub) for sub in action.children() if isinstance(sub, Action)]
                )
            self._writes[id(action)] = writes
        return writes

    def fn_name(self, stem: str) -> str:
        self._fn_counter += 1
        return f"_{stem}{self._fn_counter}"

    def add(self, lines: List[str]) -> None:
        self.chunks.append("\n".join(lines) + "\n\n")

    def build(self) -> GeneratedModule:
        chunks = self.chunks
        if self.uses_force:
            chunks = chunks[:1] + [_FORCE_HELPER + "\n"] + chunks[1:]
        return GeneratedModule(self.name, "".join(chunks), self.bindings)


#: An integer charge line: indentation, sink and ``+=`` (group 1), amount.
_INT_CHARGE = re.compile(r"(\s*\S+ \+= )(\d+)$")


class _FnWriter:
    """Emits one generated function, with statement-level charge coalescing.

    An integer charge (``sink += 3``) directly after another to the same
    sink at the same indentation merges into it, whether it is emitted here
    or arrives among captured statements (``emit_lines``).
    """

    def __init__(self, name: str, params: List[str]):
        self.lines: List[str] = [f"def {name}({', '.join(params)}):"]
        self.indent = 1
        self._tmp = 0

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def emit(self, stmt: str) -> None:
        self._append("    " * self.indent + stmt)

    def emit_lines(self, lines: List[str]) -> None:
        for line in lines:
            self._append(line)

    def charge(self, sink: str, amount: int) -> None:
        """Emit ``sink += amount`` (nothing for zero)."""
        if amount:
            self.emit(f"{sink} += {amount}")

    def _append(self, line: str) -> None:
        if " += " in line and self.lines:
            match = _INT_CHARGE.match(line)
            if match is not None:
                prev = _INT_CHARGE.match(self.lines[-1])
                if prev is not None and prev.group(1) == match.group(1):
                    total = int(prev.group(2)) + int(match.group(2))
                    self.lines[-1] = f"{match.group(1)}{total}"
                    return
        self.lines.append(line)


def _reindent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


@functools.lru_cache(maxsize=256)
def _template_fields(
    guard: Optional[str], result: Optional[str], writes: Tuple[Tuple[str, str], ...]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The ``str.format`` fields a native template's guard names, and those
    only its result or updates name, each in first-use order."""

    def fields(pieces: List[Optional[str]], skip: Tuple[str, ...] = ()) -> Tuple[str, ...]:
        names: List[str] = []
        for piece in pieces:
            for _, name, _, _ in string.Formatter().parse(piece or ""):
                if name is not None and name not in names and name not in skip:
                    names.append(name)
        return tuple(names)

    in_guard = fields([guard])
    return in_guard, fields([result] + [value for _, value in writes], in_guard)


class _Unsupported(Exception):
    """A subtree the lowerer cannot translate (see :func:`_lowering`)."""


def _is_literal(value: Any) -> bool:
    """Whether a constant lowers to a literal (else it is a binding)."""
    return (
        value is None
        or value is True
        or value is False
        or (type(value) is int and -(2**31) <= value <= 2**31)
    )


def _forces_first(node: Any, name: str) -> bool:
    """Whether evaluating ``node`` starts by evaluating ``Var(name)``.

    The walk follows the child each node evaluates first: the first
    operand, argument, action or condition, a guard before its body, and
    a nested let's body -- or its value, when that body forces it first.
    A ``localGuard`` stops it."""
    while True:
        kind = type(node)
        if kind is Var:
            return node.name == name
        if kind is WhenE or kind is WhenA:
            node = node.guard
        elif kind is LetE or kind is LetA:
            node = node.value if _forces_first(node.body, node.name) else node.body
        elif kind is LocalGuard:
            return False
        else:
            children = node.children()
            if not children:
                return False
            node = children[0]


#: Nodes that evaluate every child whenever they are evaluated, on the
#: state they see (a ``&&`` or ``||`` excepted).
_STRICT_NODES = (
    Par, WhenA, WhenE, RegWrite, MethodCallA, MethodCallE, KernelCall, UnOp, BinOp, FieldSelect
)


def _unconditional_children(node: Any) -> List[Any]:
    """The children of ``node`` that a latency rule function evaluates
    whenever it evaluates ``node``, on the state ``node`` sees.

    A strict node's children (a method call's are its arguments: a user
    method's body is a function of its own), a ``seq``'s first action (the
    tail runs on what the head wrote), the condition of a ``mux`` or
    ``if`` and the left operand of a ``&&`` or ``||`` (the rest runs under
    a condition), a ``let``'s body, and its value when the let binds
    strictly (a lazy value runs only if forced, in its thunk).  Nothing
    else: a ``loop`` re-runs under its overlay, a ``localGuard`` body's
    failure is caught, and a node not listed here lifts nothing.
    """
    kind = type(node)
    if kind is BinOp and node.op in ("&&", "||"):
        return [node.left]
    if kind in _STRICT_NODES:
        return node.children()
    if kind is Seq:
        return node.actions[:1]
    if kind is Mux or kind is IfA:
        return [node.cond]
    if kind is LetE or kind is LetA:
        return [node.value, node.body] if _forces_first(node.body, node.name) else [node.body]
    return []


def _lifted_conditions(action: Action) -> Optional[Dict[tuple, tuple]]:
    """The implicit conditions a latency rule function tests once: before
    its first kernel (:meth:`_Lowerer._lower_kernel`), or where the first
    call met before any kernel stands.

    They are the guards of the native calls it evaluates unconditionally
    on its pre-state (:func:`_unconditional_children`) whose guard names no
    method parameter, so reads only its instance's state: a FIFO's
    ``notFull`` for ``enq``, ``notEmpty`` for ``first`` and ``deq``.  A
    later call with the same instance and guard reuses the test's reads,
    kernel or not.  Keyed ``(id(instance), guard)``, valued ``(instance,
    guard, guard fields)``; None when there is no such guard.
    """
    conditions: Dict[tuple, tuple] = {}
    stack = [action]
    while stack:
        node = stack.pop()
        kind = type(node)
        if (kind is MethodCallA or kind is MethodCallE) and isinstance(
            node.instance, PrimitiveModule
        ):
            params = node.instance.get_method(node.method).params
            template = node.instance.get_native(node.method).template
            if template is not None and template.guard is not None:
                attrs = _template_fields(template.guard, template.result, template.writes)[0]
                if not any(attr in params for attr in attrs):
                    key = (id(node.instance), template.guard)
                    conditions[key] = (node.instance, template.guard, attrs)
        stack += reversed(_unconditional_children(node))
    return conditions or None


def _lowering(rule: Rule, mode: str, lower: Callable[[], Any]) -> Any:
    """Run ``lower()``; an untranslatable node is an ``ElaborationError``
    naming the rule, the generation mode and the node."""
    try:
        return lower()
    except _Unsupported as exc:
        raise ElaborationError(
            f"rule {rule.full_name}: cannot lower {exc} to source "
            f"(generation mode {mode!r})"
        ) from None


# --------------------------------------------------------------------------
# expression / action lowering
# --------------------------------------------------------------------------

#: Binary operators that lower to Python infix with identical semantics.
_INFIX = {
    "+": "+", "-": "-", "*": "*", "//": "//", "/": "/", "%": "%",
    "<<": "<<", ">>": ">>", "&": "&", "|": "|", "^": "^",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "!=": "!=",
}
_UNARY = {"-": "-", "~": "~", "!": "not "}


class _Lowerer:
    """Lowers one rule (or method) tree into a flat generated function.

    ``mode`` is ``latency`` or ``count``; the emitted statements
    reproduce the tree walker's evaluation order and charge points
    exactly.  Both modes thread a one-element charge cell (``_cl``)
    through thunks and user methods.
    """

    def __init__(
        self,
        module: _ModuleBuilder,
        mode: str,
        max_loop_iterations: int = 1_000_000,
        sw_params: Any = None,
        methods: Optional[Dict[Tuple[int, bool], Tuple[str, List[str]]]] = None,
    ):
        self.module = module
        self.mode = mode
        self.counting = mode == "count"
        self.timing = mode == "latency"
        self.max_loop_iterations = max_loop_iterations
        self.params = sw_params
        # (id(method), is_action) -> (guard_fn_name, body_fn_name, param names)
        self.methods = methods if methods is not None else {}
        self.w: Optional[_FnWriter] = None
        #: name -> ("strict"|"thunk", python local name); insertion-ordered.
        self.scope: Dict[str, Tuple[str, str]] = {}
        self.read = "read"
        #: where cost charges go: a local ("_cc") or a cell slot ("_cl[0]").
        self.sink = "_cc"
        #: True while inside a statically costed region (charges pre-folded).
        self.charging = self.counting
        #: True while lowering a latency rule function's own body outside
        #: any ``localGuard``: a failed guard returns None there, and a let
        #: whose body forces it first binds strictly (see :meth:`_lower_let`).
        self.rule_level = False
        #: Where a latency rule function evaluates a node unconditionally on
        #: its pre-state, the implicit conditions it lifts and has not yet
        #: tested (:func:`_lifted_conditions`); None anywhere else.
        self.lift: Optional[Dict[tuple, tuple]] = None
        #: The lifted conditions tested so far: key -> their guard's fields.
        self.tested: Dict[tuple, Dict[str, str]] = {}

    # -- plumbing ----------------------------------------------------------

    def _capture(
        self, fn: Callable[[], str], conditional: bool = False
    ) -> Tuple[List[str], str]:
        """Lower ``fn()`` into a statement list of its own; nothing lifts
        out of it when it is evaluated only ``conditional``-ly."""
        saved, lift = self.w.lines, self.lift
        self.w.lines = []
        if conditional:
            self.lift = None
        expr = fn()
        captured = self.w.lines
        self.w.lines, self.lift = saved, lift
        return captured, expr

    def _materialize(self, parts: List[Tuple[List[str], str]]) -> List[str]:
        """Emit each part's statements and pin its value into a temp, in order.

        Used whenever sibling operands cannot all stay inline: the tree
        walker evaluates operands strictly left to right, and charges /
        guard failures make that order observable.
        """
        names = []
        for stmts, expr in parts:
            self.w.emit_lines(stmts)
            if expr.isidentifier():
                names.append(expr)
            else:
                t = self.w.tmp()
                self.w.emit(f"{t} = {expr}")
                names.append(t)
        return names

    def _operands(self, nodes: List[Any]) -> List[str]:
        """Lower ``nodes`` in order; returns inline exprs or temps as needed."""
        parts = [self._capture(lambda n=n: self.lower_expr(n)) for n in nodes]
        if any(stmts for stmts, _ in parts):
            return self._materialize(parts)
        return [expr for _, expr in parts]

    def _charge(self, amount: int) -> None:
        if self.charging:
            self.w.charge(self.sink, amount)

    def _static_cost(self, node: Any) -> Optional[int]:
        return static_cost(node, self.scope, self.params)

    def _const(self, value: Any) -> str:
        return repr(value) if _is_literal(value) else self.module.bind(value, "c")

    def _guard(self, test: str) -> None:
        """Emit the failure unless ``test`` holds: ``return None`` at rule
        level, else a raise of the shared ``GuardFail``."""
        self.w.emit(f"if not {test}:")
        self.w.emit("    return None" if self.rule_level else "    raise _GF")

    # -- expressions -------------------------------------------------------

    def lower_expr(self, expr: Expr) -> str:
        if self.counting and self.charging:
            cost = self._static_cost(expr)
            if cost is not None:
                # Straight-line subtree: one folded add, then hook-free code.
                self._charge(cost)
                self.charging = False
                try:
                    return self.lower_expr(expr)
                finally:
                    self.charging = True
        return self._lower_expr(expr)

    def _lower_expr(self, expr: Expr) -> str:
        w = self.w

        if isinstance(expr, Const):
            return self._const(expr.value)

        if isinstance(expr, Var):
            entry = self.scope.get(expr.name)
            if entry is None:
                name = self.module.bind(expr.name, "c", key=("unbound", expr.name))
                self.module.made[name] = (_VALUE, expr.name)
                w.emit(f"raise ElaborationError('unbound variable %r' % ({name},))")
                return "None"
            kind, local = entry
            if kind == "thunk":
                self.module.uses_force = True
                return f"_force({local})"
            return local

        if isinstance(expr, RegRead):
            reg = self.module.bind(expr.reg, "r")
            return f"{self.read}({reg})"

        if isinstance(expr, UnOp):
            self._charge_alu()
            (operand,) = self._operands([expr.operand])
            op = _UNARY.get(expr.op)
            if op is None:
                raise _Unsupported(f"unary operator {expr.op!r}")
            return f"({op}{operand})"

        if isinstance(expr, BinOp):
            if expr.op in ("&&", "||"):
                return self._lower_shortcircuit(expr)
            self._charge_alu()
            left, right = self._operands([expr.left, expr.right])
            op = _INFIX.get(expr.op)
            if op is None:
                raise _Unsupported(f"binary operator {expr.op!r}")
            return f"({left} {op} {right})"

        if isinstance(expr, Mux):
            self._charge_alu()
            cond_stmts, cond = self._capture(lambda: self.lower_expr(expr.cond))
            then_stmts, then = self._capture(lambda: self.lower_expr(expr.then), True)
            else_stmts, orelse = self._capture(lambda: self.lower_expr(expr.orelse), True)
            if not cond_stmts and not then_stmts and not else_stmts:
                return f"({then} if {cond} else {orelse})"
            w.emit_lines(cond_stmts)
            t = w.tmp()
            w.emit(f"if {cond}:")
            w.emit_lines(_reindent(then_stmts))
            w.emit(f"    {t} = {then}")
            w.emit("else:")
            w.emit_lines(_reindent(else_stmts))
            w.emit(f"    {t} = {orelse}")
            return t

        if isinstance(expr, WhenE):
            self._guard(self.lower_expr(expr.guard))
            return self.lower_expr(expr.body)

        if isinstance(expr, LetE):
            return self._lower_let(expr, self.lower_expr)

        if isinstance(expr, FieldSelect):
            self._charge_alu()
            (operand,) = self._operands([expr.operand])
            field = expr.field
            if isinstance(field, int):
                return f"{operand}[{field}]"
            if not operand.isidentifier():
                t = w.tmp()
                w.emit(f"{t} = {operand}")
                operand = t
            if field.isidentifier() and not keyword.iskeyword(field):
                attr = f"{operand}.{field}"
            else:
                attr = f"getattr({operand}, {field!r})"
            return (
                f"({operand}[{field!r}] if isinstance({operand}, (dict, RawStruct)) else {attr})"
            )

        if isinstance(expr, KernelCall):
            return self._lower_kernel(expr)

        if isinstance(expr, MethodCallE):
            return self._lower_method_call(expr, is_action=False)

        raise _Unsupported(f"expression node {type(expr).__name__}")

    def _charge_alu(self) -> None:
        if self.counting and self.charging:
            self._charge(self.params.alu_op)

    def _lower_shortcircuit(self, expr: BinOp) -> str:
        w = self.w
        self._charge_alu()
        left_stmts, left = self._capture(lambda: self.lower_expr(expr.left))
        right_stmts, right = self._capture(lambda: self.lower_expr(expr.right), True)
        if not left_stmts and not right_stmts:
            if expr.op == "&&":
                return f"(bool({right}) if {left} else False)"
            return f"(True if {left} else bool({right}))"
        w.emit_lines(left_stmts)
        t = w.tmp()
        if expr.op == "&&":
            w.emit(f"if not {left}:")
            w.emit(f"    {t} = False")
        else:
            w.emit(f"if {left}:")
            w.emit(f"    {t} = True")
        w.emit("else:")
        w.emit_lines(_reindent(right_stmts))
        w.emit(f"    {t} = bool({right})")
        return t

    def _lower_let(self, let: Any, lower_body: Callable[[Any], str]) -> str:
        """Lower a ``LetE``/``LetA`` binding, then its body with ``lower_body``.

        The binding is lazy: its local holds a thunk cell.  The tree
        walker's ``_Thunk`` captures the binding-site ``read`` and hooks;
        the generated thunk does the same by passing ``read`` and the
        charge cell ``_cl`` into a module-level value function explicitly,
        so a thunk forced under a ``Seq``/``Loop`` overlay still reads
        through the binding-site view and charges the binding-site cell.

        At rule level the binding is strict when the first node its body
        evaluates is the variable (:func:`_forces_first`): the value is
        then computed before the body, through the same ``read``, with its
        kernels called in the same order, and a failed value returns from
        the rule function instead of raising out of a thunk.  Only charges
        move: a node entered on the way down to the variable (a memory
        method's read latency, an operator's software cost) charges before
        its operands, so a failing value now comes first.  At rule level a
        failure discards the charge.  Where charges made before a failure
        are kept -- a ``localGuard`` body, a thunk or user method (which may
        run under one), a ``count``-mode attempt -- lets stay lazy.
        """
        w = self.w
        if self.rule_level and _forces_first(let.body, let.name):
            entry = ("strict", self._materialize([([], self.lower_expr(let.value))])[0])
        else:
            value_fn = self._lower_scoped_fn("lv", let.value, is_action=False)
            free = [local for _, (_, local) in self._free_scope(let.value)]
            cell = w.tmp()
            captured = ", ".join(["_cl"] + free)
            w.emit(f"{cell} = [False, None, {value_fn}, {self.read}, ({captured},)]")
            entry = ("thunk", cell)
        saved = self.scope.get(let.name)
        self.scope[let.name] = entry
        try:
            return lower_body(let.body)
        finally:
            if saved is None:
                del self.scope[let.name]
            else:
                self.scope[let.name] = saved

    def _lower_scoped_fn(self, stem: str, node: Any, is_action: bool) -> str:
        """Lower ``node`` as a module-level function over its free scope vars.

        The function's signature is ``(read, _ctx, *free_locals)`` where
        ``_ctx`` is the charge cell list; call sites pass the binding-site
        values explicitly, which reproduces the tree walker's creation-time
        capture without relying on late-bound outer locals.
        """
        free_nodes = self._free_scope(node)
        fn = self.module.fn_name(stem)
        params = ["read", "_ctx"] + [local for _, (_, local) in free_nodes]
        sub = _Lowerer(
            self.module,
            self.mode,
            self.max_loop_iterations,
            self.params,
            self.methods,
        )
        sub.scope = {name: entry for name, entry in free_nodes}
        sub.w = _FnWriter(fn, params)
        sub.w.emit("_cl = _ctx")
        sub.sink = "_cl[0]"
        body = sub.lower_action(node) if is_action else sub.lower_expr(node)
        sub.w.emit(f"return {body}")
        self.module.add(sub.w.lines)
        return fn

    def _free_scope(self, node: Any) -> List[Tuple[str, Tuple[str, str]]]:
        used = set()
        for sub in node.walk():
            if isinstance(sub, Var):
                used.add(sub.name)
        return [(name, entry) for name, entry in self.scope.items() if name in used]

    def _lower_kernel(self, expr: KernelCall) -> str:
        w = self.w
        fn = self.module.bind(expr.fn, "k")
        if self.counting and self.charging:
            values = self._kernel_args(expr)
            if callable(expr.sw_cycles):
                cost_fn = self.module.bind(expr.sw_cycles, "k")
                self.w.emit(
                    f"{self.sink} += int({cost_fn}({values})) + "
                    f"{self.params.kernel_dispatch}"
                )
            else:
                self._charge(int(expr.sw_cycles) + self.params.kernel_dispatch)
            return f"{fn}({values})"
        if not self.timing:
            return f"{fn}({', '.join(self._operands(list(expr.args)))})"
        # ``HwLatencyAccumulator.on_kernel``, folded: the kernel's FSM adds
        # ``hw_cycles - 1`` cycles once its arguments are evaluated, and
        # the lifted conditions are tested before either.
        cycles = expr.hw_cycles
        extra = None if callable(cycles) else max(0, int(cycles) - 1)
        if extra == 0:
            values = ", ".join(self._operands(list(expr.args)))
        else:
            values = self._kernel_args(expr)
            self.module.latency_charged = True
        if self.lift:
            # A rule that cannot fire must not reach its kernel.
            for condition in list(self.lift):
                self._test_condition(condition)
        if extra is None:
            cost_fn = self.module.bind(cycles, "k")
            w.emit(f"{self.sink} += max(0, int({cost_fn}({values})) - 1)")
        else:
            w.charge(self.sink, extra)
        return f"{fn}({values})"

    def _kernel_args(self, expr: KernelCall) -> str:
        """Evaluate the arguments into names, in order (a charge or hook
        follows them); returns the argument list."""
        args = self._operands(list(expr.args))
        return ", ".join(self._materialize([([], a) for a in args]))

    # -- actions -----------------------------------------------------------

    def lower_action(self, action: Action) -> str:
        if self.counting and self.charging:
            cost = self._static_cost(action)
            if cost is not None:
                self._charge(cost)
                self.charging = False
                try:
                    return self.lower_action(action)
                finally:
                    self.charging = True
        return self._lower_action(action)

    def _lower_action(self, action: Action) -> str:
        w = self.w

        if isinstance(action, NoAction):
            return "{}"

        if isinstance(action, RegWrite):
            reg = self.module.bind(action.reg, "r")
            if self.counting and self.charging:
                (value,) = self._operands([action.value])
                if not value.isidentifier():
                    t = w.tmp()
                    w.emit(f"{t} = {value}")
                    value = t
                self._charge(self.params.reg_write)
                return self.module.single_update(reg, value)
            (value,) = self._operands([action.value])
            return self.module.single_update(reg, value)

        if isinstance(action, IfA):
            cond_stmts, cond = self._capture(lambda: self.lower_expr(action.cond))
            then_stmts, then = self._capture(lambda: self.lower_action(action.then), True)
            if action.orelse is None:
                else_stmts, orelse = [], "{}"
            else:
                else_stmts, orelse = self._capture(
                    lambda: self.lower_action(action.orelse), True
                )
            if not cond_stmts and not then_stmts and not else_stmts:
                return f"({then} if {cond} else {orelse})"
            w.emit_lines(cond_stmts)
            t = w.tmp()
            w.emit(f"if {cond}:")
            w.emit_lines(_reindent(then_stmts))
            w.emit(f"    {t} = {then}")
            w.emit("else:")
            w.emit_lines(_reindent(else_stmts))
            w.emit(f"    {t} = {orelse}")
            return t

        if isinstance(action, WhenA):
            self._guard(self.lower_expr(action.guard))
            return self.lower_action(action.body)

        if isinstance(action, Par):
            subs = list(action.actions)
            if len(subs) == 1:
                return self.lower_action(subs[0])
            merged = self.w.tmp()
            first = self.lower_action(subs[0])
            w.emit(f"{merged} = {first}")
            writes = [self.module.writes_of(sub) for sub in subs]
            if sum(map(len, writes)) == len(frozenset().union(*writes)):
                # Pairwise disjoint static write sets: no double write.
                for sub in subs[1:]:
                    value = self.lower_action(sub)
                    item = self.module.single_updates.get(value)
                    if item is None:
                        w.emit(f"{merged}.update({value})")
                    else:
                        w.emit(f"{merged}[{item[0]}] = {item[1]}")
                return merged
            for sub in subs[1:]:
                value = self.lower_action(sub)
                k, v = w.tmp(), w.tmp()
                w.emit(f"for {k}, {v} in {value}.items():")
                w.emit(f"    if {k} in {merged}:")
                w.emit(
                    "        raise DoubleWriteError(f\"parallel composition "
                    f"writes register {{{k}.full_name}} twice\")"
                )
                w.emit(f"    {merged}[{k}] = {v}")
            return merged

        if isinstance(action, Seq):
            subs = list(action.actions)
            overlay = w.tmp()
            w.emit(f"{overlay} = {{}}")
            saved = self.read, self.lift
            if not _seq_never_reads_back(subs):
                self.read = self._emit_overlay_read(overlay)
            try:
                for sub in subs:
                    value = self.lower_action(sub)
                    w.emit(f"{overlay}.update({value})")
                    # The tail runs on what the head wrote: nothing lifts.
                    self.lift = None
            finally:
                self.read, self.lift = saved
            return overlay

        if isinstance(action, LetA):
            return self._lower_let(action, self.lower_action)

        if isinstance(action, Loop):
            limit = min(action.max_iterations, self.max_loop_iterations)
            overlay = w.tmp()
            w.emit(f"{overlay} = {{}}")
            ov_read = self._emit_overlay_read(overlay)
            iters = w.tmp()
            w.emit(f"{iters} = 0")
            saved = self.read, self.lift
            self.read, self.lift = ov_read, None
            try:
                w.emit("while True:")
                w.indent += 1
                cond = self.lower_expr(action.cond)
                w.emit(f"if not {cond}:")
                w.emit("    break")
                value = self.lower_action(action.body)
                w.emit(f"{overlay}.update({value})")
                w.emit(f"{iters} += 1")
                w.emit(f"if {iters} >= {limit}:")
                w.emit(
                    f"    raise SimulationError(\"loop exceeded {limit} "
                    "iterations; either the bound is too small or the loop "
                    "does not terminate\")"
                )
                w.indent -= 1
            finally:
                self.read, self.lift = saved
            return overlay

        if isinstance(action, LocalGuard):
            t = w.tmp()
            w.emit("try:")
            rule_level, self.rule_level = self.rule_level, False
            body_stmts, body = self._capture(lambda: self.lower_action(action.body), True)
            self.rule_level = rule_level
            w.emit_lines(_reindent(body_stmts))
            w.emit(f"    {t} = {body}")
            w.emit("except GuardFail:")
            w.emit("    _GF.__traceback__ = None")
            w.emit(f"    {t} = {{}}")
            return t

        if isinstance(action, MethodCallA):
            return self._lower_method_call(action, is_action=True)

        raise _Unsupported(f"action node {type(action).__name__}")

    def _emit_overlay_read(self, overlay: str) -> str:
        """Emit a sequential-overlay read view over the current read fn."""
        name = self.w.tmp()
        self.w.emit(
            f"def {name}(reg, _o={overlay}, _r={self.read}):"
        )
        self.w.emit("    if reg in _o:")
        self.w.emit("        return _o[reg]")
        self.w.emit("    return _r(reg)")
        return name

    # -- method calls ------------------------------------------------------

    def _lower_method_call(self, call: Any, is_action: bool) -> str:
        w = self.w
        instance: Module = call.instance
        method: Method = instance.get_method(call.method)
        if len(call.args) != len(method.params):
            raise ElaborationError(
                f"method {instance.name}.{call.method} expects "
                f"{len(method.params)} arguments, got {len(call.args)}"
            )
        method_name = call.method

        if isinstance(instance, PrimitiveModule):
            template = instance.get_native(method_name).template
            if template is None:
                raise _Unsupported(
                    f"native method {instance.name}.{method_name} (it has no inline template)"
                )
            self._on_method(instance, method_name)
            if self.counting and self.charging:
                overhead = self.params.native_method_overhead
                if hasattr(instance, "read_latency"):
                    overhead += self.params.regfile_access
                self._charge(overhead)
            values = self._materialize(
                [self._capture(lambda a=a: self.lower_expr(a)) for a in call.args]
            )
            return self._lower_native(instance, method, template, values, is_action)

        # User-defined method: one generated module-level function pair per
        # (method, mode), pre-registered so recursive methods terminate.
        guard_name, body_name = self._user_method(method, is_action)
        self._on_method(instance, method_name)
        if self.counting and self.charging:
            self._charge(self.params.method_call_overhead)
        values = self._materialize(
            [self._capture(lambda a=a: self.lower_expr(a)) for a in call.args]
        )
        arglist = ", ".join([self.read, "_cl"] + values)
        self._guard(f"{guard_name}({arglist})")
        t = w.tmp()
        w.emit(f"{t} = {body_name}({arglist})")
        return t

    def _lower_native(
        self,
        instance: PrimitiveModule,
        method: Method,
        template: Any,
        args: List[str],
        is_action: bool,
    ) -> str:
        """Emit a native method inline from its :class:`NativeTemplate`.

        Each state register the template names is read once, after the
        arguments: the guard's before the guard, the rest after it, as the
        native functions read them.  Any other instance attribute it names
        binds per instance.  An action's count-mode write charge follows
        the guard, since the body cannot fail.

        A lifted condition (:func:`_lifted_conditions`) is read and tested
        once per rule function: here, unless a kernel before this point
        (one in the arguments included) has tested it already.  Either
        way a later call with the same instance and guard (``deq`` after
        ``first``) skips its test and reuses the guard's reads.
        """
        bind = self.module.bind
        fields = dict(zip(method.params, args))
        in_guard, in_body = _template_fields(template.guard, template.result, template.writes)
        condition = (id(instance), template.guard)
        if self.lift is not None and condition in self.lift:
            fields.update(self._test_condition(condition))
        elif self.lift is not None and condition in self.tested:
            fields.update(self.tested[condition])
        else:
            self._state_fields(instance, in_guard, fields)
            if template.guard is not None:
                self._guard(f"({template.guard.format(**fields)})")
        self._state_fields(instance, in_body, fields)
        if not is_action:
            return f"({template.result.format(**fields)})"
        if self.counting and self.charging:
            self._charge(self.params.reg_write * len(template.writes))
        items = [
            (bind(getattr(instance, attr), "r"), value.format(**fields))
            for attr, value in template.writes
        ]
        if len(items) == 1:
            return self.module.single_update(*items[0])
        return "{" + ", ".join(f"{key}: {value}" for key, value in items) + "}"

    def _state_fields(
        self, instance: PrimitiveModule, attrs: Tuple[str, ...], fields: Dict[str, str]
    ) -> None:
        """Add each of ``attrs`` missing from ``fields``: a state register
        read now, any other instance attribute bound per instance."""
        for attr in attrs:
            if attr not in fields:
                value = getattr(instance, attr)
                if isinstance(value, Register):
                    fields[attr] = t = self.w.tmp()
                    self.w.emit(f"{t} = {self.read}({self.module.bind(value, 'r')})")
                else:
                    fields[attr] = self.module.bind(value, "c", key=(id(instance), attr))

    def _test_condition(self, condition: tuple) -> Dict[str, str]:
        """Read and test a lifted ``condition``; its guard's fields."""
        instance, guard, attrs = self.lift.pop(condition)
        fields: Dict[str, str] = {}
        self._state_fields(instance, attrs, fields)
        self._guard(f"({guard.format(**fields)})")
        self.tested[condition] = fields
        return fields

    def _on_method(self, instance: Module, method_name: str) -> None:
        """The method entry's folded latency: a memory whose
        ``read_latency`` is above 1 adds ``read_latency - 1`` cycles, as
        ``HwLatencyAccumulator.on_method`` does."""
        if self.timing:
            read_latency = getattr(instance, "read_latency", None)
            if read_latency is not None and read_latency > 1:
                self.w.charge(self.sink, read_latency - 1)
                self.module.latency_charged = True

    def _user_method(self, method: Method, is_action: bool) -> Tuple[str, str]:
        key = (id(method), is_action)
        entry = self.methods.get(key)
        if entry is not None:
            return entry
        guard_name = self.module.fn_name("mg")
        body_name = self.module.fn_name("mb")
        self.methods[key] = (guard_name, body_name)
        param_locals = [f"_p{i}" for i in range(len(method.params))]
        for stem, node, action_node in (
            (guard_name, method.guard, False),
            (body_name, method.body, is_action),
        ):
            sub = _Lowerer(
                self.module,
                self.mode,
                self.max_loop_iterations,
                self.params,
                self.methods,
            )
            sub.scope = {
                p: ("strict", param_locals[i]) for i, p in enumerate(method.params)
            }
            sub.w = _FnWriter(stem, ["read", "_ctx"] + param_locals)
            sub.sink = "_ctx[0]"
            sub.w.emit("_cl = _ctx")
            if node is None:
                owner = method.module.name if method.module is not None else "?"
                text = f"{method.kind} method {owner}.{method.name} has no body"
                msg = self.module.bind(text, "c")
                self.module.made[msg] = (_VALUE, text)
                sub.w.emit(f"raise ElaborationError({msg})")
            else:
                result = (
                    sub.lower_action(node) if action_node else sub.lower_expr(node)
                )
                sub.w.emit(f"return {result}")
            self.module.add(sub.w.lines)
        return guard_name, body_name


# --------------------------------------------------------------------------
# lowering cache: each rule shape is lowered once per interpreter
# --------------------------------------------------------------------------

#: How the lowering cache remakes one binding for another instance of a
#: shape: the object placed at a position, an attribute of a placed
#: primitive, a fixed value.
_POS, _ATTR, _VALUE = range(3)

#: Structural key -> (text below the header, binding recipe, whether the
#: lowering charged FSM latency).  Bounded like ``_CODE_CACHE``; it holds
#: texts, flags and recipes (names, positions, fixed values), no design
#: object.
_LOWER_CACHE: Dict[tuple, Tuple[str, tuple, bool]] = {}
_LOWER_CACHE_LIMIT = 256


class _ShapeDigest:
    """The structural key of one rule unit, and the objects it places.

    One walk over everything lowering reads.  Registers, instances,
    methods, kernel callables and non-literal constants are *placed*: the
    key holds the position of their first occurrence, so aliasing (one
    register read twice, or two registers) is part of it, and ``objects``
    lists them so that a reuse binds this instance's.  What lowering folds
    into text is held as is: node kinds, operators, literal constants,
    field, let and parameter names, loop bounds, each native method's
    template and each user method's body, and what the generation mode
    reads: constant ``sw_cycles`` for ``count``, constant ``hw_cycles``
    and each instance's ``read_latency`` for ``latency`` (``hw``).  A
    node kind it does not know raises, and the unit is lowered fresh.
    """

    __slots__ = ("tokens", "objects", "index", "_cycles", "_hw")

    def __init__(self, hw: bool):
        self.tokens: List[Any] = []
        self.objects: List[Any] = []
        #: id(object) -> its position in ``objects``.
        self.index: Dict[int, int] = {}
        self._hw = hw
        #: Which kernel cost annotation the mode folds.
        self._cycles = "hw_cycles" if hw else "sw_cycles"

    def _put(self, obj: Any) -> bool:
        """Append ``obj``'s position; True at its first occurrence."""
        position = self.index.get(id(obj))
        if position is None:
            position = self.index[id(obj)] = len(self.objects)
            self.objects.append(obj)
            self.tokens.append(position)
            return True
        self.tokens.append(position)
        return False

    def node(self, n: Any) -> None:
        tokens = self.tokens
        kind = type(n)
        tokens.append(kind)
        if kind is RegRead or kind is RegWrite:
            self._put(n.reg)
            if kind is RegWrite:
                self.node(n.value)
        elif kind is Const:
            value = n.value
            if _is_literal(value):
                tokens.append(repr(value))
            else:
                self._put(value)
        elif kind is Var:
            tokens.append(n.name)
        elif kind is BinOp or kind is UnOp:
            tokens.append(n.op)
            for child in n.children():
                self.node(child)
        elif kind is Par or kind is Seq:
            tokens.append(len(n.actions))
            for child in n.actions:
                self.node(child)
        elif kind is MethodCallA or kind is MethodCallE:
            self._call(n)
        elif kind is KernelCall:
            tokens.append(len(n.args))
            self._put(n.fn)
            cycles = getattr(n, self._cycles)
            if callable(cycles):
                self._put(cycles)
            else:
                tokens.append(repr(cycles))
            for child in n.args:
                self.node(child)
        elif kind is LetA or kind is LetE:
            tokens.append(n.name)
            self.node(n.value)
            self.node(n.body)
        elif kind is FieldSelect:
            tokens.append(repr(n.field))
            self.node(n.operand)
        elif kind is IfA:
            tokens.append(n.orelse is None)
            for child in n.children():
                self.node(child)
        elif kind is Loop:
            tokens.append(repr(n.max_iterations))
            self.node(n.cond)
            self.node(n.body)
        elif kind is Mux or kind is LocalGuard or kind is WhenA or kind is WhenE:
            for child in n.children():
                self.node(child)
        elif kind is not NoAction:
            raise _Unsupported(f"node {kind.__name__}")

    def _call(self, call: Any) -> None:
        tokens = self.tokens
        instance = call.instance
        tokens += (call.method, len(call.args))
        if self._put(instance):
            timed = hasattr(instance, "read_latency")
            tokens += (
                isinstance(instance, PrimitiveModule),
                timed,
                repr(instance.read_latency) if timed and self._hw else None,
            )
        method = instance.get_method(call.method)
        if self._put(method):
            if isinstance(instance, PrimitiveModule):
                self._native(instance, method)
            else:
                self._user(method)
        for arg in call.args:
            self.node(arg)

    def _native(self, instance: PrimitiveModule, method: Method) -> None:
        """What inlining a native method reads: its template and the
        primitive's attributes it names (a state register is placed, any
        other attribute binds per instance), plus its read and write sets."""
        native = instance.get_native(method.name)
        template = native.template
        if template is None:
            raise _Unsupported(f"native method {method.name} without a template")
        self.tokens += (template.guard, template.result, template.writes, tuple(method.params))
        in_guard, in_body = _template_fields(template.guard, template.result, template.writes)
        for attr in in_guard + in_body:
            if attr not in method.params:
                value = getattr(instance, attr)
                if isinstance(value, Register):
                    self._put(value)
                else:
                    self.tokens.append(None)
        for attr, _ in template.writes:
            self._put(getattr(instance, attr))
        for registers in (native.reads, native.writes):
            self.tokens.append(len(registers))
            for reg in registers:
                self._put(reg)

    def _user(self, method: Method) -> None:
        """A user method's body and guard, lowered where it is called."""
        self.tokens += (method.kind, tuple(method.params), method.body is None)
        self.node(method.guard)
        if method.body is None:
            owner = method.module.name if method.module is not None else "?"
            self.tokens += (owner, method.name)
        else:
            self.node(method.body)


def _shape_key(
    head: tuple, mode: str, *nodes: Any
) -> Tuple[Optional[tuple], Optional[_ShapeDigest]]:
    """The lowering-cache key of a unit over ``nodes`` in ``mode``, and
    its digest; ``(None, None)`` when the digest cannot key it (the unit is
    then lowered fresh, and fresh lowering reports any error in it)."""
    digest = _ShapeDigest(mode == "latency")
    try:
        for n in nodes:
            digest.node(n)
    except Exception:
        return None, None
    return (head, tuple(digest.tokens)), digest


def _recipe(module: _ModuleBuilder, digest: _ShapeDigest) -> Optional[tuple]:
    """How to remake each of a fresh lowering's bindings from another
    instance's placed objects; None if one binds an object it cannot place."""
    if len(module.bindings) != len(_BASE_BINDINGS) + len(module._by_id):
        return None
    index = digest.index
    recipe = []
    for key, name in module._by_id.items():
        made = module.made.get(name)
        if made is not None:
            entry = (name,) + made
        elif type(key) is tuple:  # a native method's instance attribute
            position = index.get(key[0])
            entry = None if position is None else (name, _ATTR, position, key[1])
        else:
            position = index.get(key)
            entry = None if position is None else (name, _POS, position)
        if entry is None:
            return None
        recipe.append(entry)
    return tuple(recipe)


def _rebind(recipe: tuple, objects: List[Any]) -> Dict[str, Any]:
    """The bindings ``recipe`` makes from one instance's placed ``objects``."""
    bindings = dict(_BASE_BINDINGS)
    for entry in recipe:
        how = entry[1]
        if how == _POS:
            value = objects[entry[2]]
        elif how == _ATTR:
            value = getattr(objects[entry[2]], entry[3])
        else:
            value = entry[2]
        bindings[entry[0]] = value
    return bindings


def _lower_unit(
    name: str,
    rule: Rule,
    key: Optional[tuple],
    digest: Optional[_ShapeDigest],
    lower: Callable[[_ModuleBuilder], None],
) -> Tuple[GeneratedModule, bool]:
    """Build ``rule``'s unit ``name`` and say whether it charges FSM latency.

    A cached lowering under ``key`` is reused: its text under this rule's
    header, its bindings remade from ``digest``'s objects.  Otherwise
    ``lower`` fills a fresh builder, and its text, recipe and flag are
    cached when every binding can be placed.
    """
    if key is not None:
        entry = _LOWER_CACHE.get(key)
        if entry is not None:
            body, recipe, charged = entry
            source = _header(name, rule) + body
            return GeneratedModule(name, source, _rebind(recipe, digest.objects)), charged
    module = _ModuleBuilder(name, rule)
    lower(module)
    gen = module.build()
    if key is not None:
        recipe = _recipe(module, digest)
        if recipe is not None:
            if len(_LOWER_CACHE) >= _LOWER_CACHE_LIMIT:
                _LOWER_CACHE.pop(next(iter(_LOWER_CACHE)))
            body = gen.source.partition("\n")[2]
            _LOWER_CACHE[key] = (body, recipe, module.latency_charged)
    return gen, module.latency_charged


# --------------------------------------------------------------------------
# function-level generation: rule wrappers, counting attempts
# --------------------------------------------------------------------------

_FORCE_HELPER = '''\
def _force(cell):
    """Force a lazy let binding (mirrors semantics._Thunk's memoisation)."""
    if cell[0]:
        return cell[1]
    value = cell[2](cell[3], *cell[4])
    cell[1] = value
    cell[0] = True
    return value
'''


def _lower_rule_fn(
    module: _ModuleBuilder, name: str, action: Action, max_loop_iterations: int
) -> None:
    """Emit ``def name(read, _cl)`` executing ``action`` flat in latency
    mode (see :class:`SourceRuleExec`)."""
    low = _Lowerer(module, "latency", max_loop_iterations)
    low.w = _FnWriter(name, ["read", "_cl"])
    low.sink = "_cl[0]"
    low.rule_level = True
    low.lift = _lifted_conditions(action)
    result = low.lower_action(action)
    low.w.emit(f"return {result}")
    module.add(low.w.lines)


class SourceRuleExec:
    """The generated entry point for one rule: ``latency(read, cell)``.

    ``latency`` is a plain generated function returning the rule's
    updates, or None when a guard fails at its own level.  It tests its
    FIFOs' implicit conditions before its first kernel
    (:func:`_lifted_conditions`), so a rule that cannot fire calls no
    kernel, and a firing rule calls the reference's kernels in the
    reference's order.  It adds the rule's FSM cycles beyond the first to
    ``cell[0]`` (a one-element list): the constant and callable
    ``hw_cycles`` of its kernels and the ``read_latency`` of its memories,
    folded at generation, exactly as ``HwLatencyAccumulator`` counts them
    (the ``Simulator`` discards the charge; a failed rule's charge is
    discarded too).  ``fixed_latency`` is True when that lowering charged
    nothing, through thunks and user methods included: the rule always
    takes one cycle and its ``latency`` function never touches the cell.
    ``raises`` is True when the unit still has a raise site of the shared
    ``GuardFail`` (in a ``localGuard`` body, a lazy let's thunk or a user
    method), so a failure may also arrive as that exception; a foreign
    kernel never raises it.
    """

    __slots__ = ("rule", "latency", "fixed_latency", "raises")

    def __init__(self, rule: Rule, latency, fixed_latency: bool, raises: bool):
        self.rule = rule
        self.latency = latency
        self.fixed_latency = fixed_latency
        self.raises = raises


def generate_rule_execs(
    rules: List[Rule],
    design_name: str,
    max_loop_iterations: int = 1_000_000,
) -> Tuple[List[SourceRuleExec], Tuple[GeneratedModule, ...]]:
    """Generate flat executors for raw rule actions (``Simulator``,
    ``HwEngine``).

    Each rule is one ``<design_name>.rules`` unit holding ``_rule_latency``,
    so its text is the same in every design that has the rule, and each
    rule shape is lowered once per interpreter (:func:`_lower_unit`).
    """
    name = f"{design_name}.rules"
    head = ("rules", repr(max_loop_iterations))
    execs, units = [], []
    for rule in rules:

        def lower(module: _ModuleBuilder, rule: Rule = rule) -> None:
            _lowering(
                rule,
                "latency",
                lambda: _lower_rule_fn(module, "_rule_latency", rule.action, max_loop_iterations),
            )

        gen, charged = _lower_unit(name, rule, *_shape_key(head, "latency", rule.action), lower)
        units.append(gen)
        raises = "raise _GF" in gen.source
        execs.append(SourceRuleExec(rule, gen.namespace["_rule_latency"], not charged, raises))
    return execs, tuple(units)


# --------------------------------------------------------------------------
# software engine: generated counting attempts and fused superstep
# --------------------------------------------------------------------------


def _float_lit(value: float) -> str:
    return repr(float(value))


def _emit_attempt(
    module: _ModuleBuilder,
    name: str,
    compiled_rule: Any,
    params: Any,
    config: Any,
    max_loop_iterations: int,
) -> None:
    """Emit ``def name(read)`` -> ``(cpu_cost, updates_or_None)``.

    The whole of ``SwEngine._attempt`` folds into one generated function:
    guard, setup, body and commit costs are pre-folded constants, the
    guard/body trees are lowered inline in counting mode, and the
    ``GuardFail`` control flow stays in-frame.
    """
    cr = compiled_rule
    w = _FnWriter(name, ["read"])
    w.emit("_cl = [0]")
    w.emit("_cc = 0")
    w.emit("try:")
    low = _Lowerer(module, "count", max_loop_iterations, params)
    low.w = w
    w.indent += 1
    guard_stmts, guard = low._capture(lambda: low.lower_expr(cr.guard))
    w.emit_lines(guard_stmts)
    w.emit(f"_g = {guard}")
    w.indent -= 1
    w.emit("except GuardFail:")
    w.emit("    _GF.__traceback__ = None")
    w.emit("    _g = False")
    w.emit(f"_cost = {_float_lit(params.rule_attempt_overhead)} + _cc + _cl[0]")
    w.emit("if not _g:")
    w.emit("    return _cost, None")
    if cr.can_fail:
        setup = 0.0
        if config.inline_methods:
            setup += params.branch_guard_handling
        else:
            setup += params.try_catch_setup
        setup += len(cr.shadow_registers) * params.shadow_per_register
        w.emit(f"_cost += {_float_lit(setup)}")
    w.emit("_cl[0] = 0")
    w.emit("_cc = 0")
    w.emit("try:")
    w.indent += 1
    body_stmts, body = low._capture(lambda: low.lower_action(cr.body))
    w.emit_lines(body_stmts)
    w.emit(f"_u = {body}")
    w.indent -= 1
    w.emit("except GuardFail:")
    w.emit("    _GF.__traceback__ = None")
    w.emit("    _cost += _cc + _cl[0]")
    w.emit(f"    _cost += {params.rollback_base}")
    w.emit(f"    _cost += {len(cr.shadow_registers) * params.rollback_per_register}")
    w.emit("    return _cost, None")
    w.emit("_cost += _cc + _cl[0]")
    if cr.can_fail:
        w.emit(f"_cost += len(_u) * {params.commit_per_register}")
    w.emit("return _cost, _u")
    module.add(w.lines)


def generate_counting_attempts(
    rules: List[Rule],
    compiled: Dict[Rule, Any],
    params: Any,
    config: Any,
    design_name: str,
    max_loop_iterations: int = 1_000_000,
) -> Tuple[List[Callable], Tuple[GeneratedModule, ...]]:
    """Generated ``attempt(read) -> (cost, updates|None)`` per rule, each
    rule its own ``<design_name>.attempts`` unit defining ``_attempt``, and
    each compiled-rule shape lowered once per interpreter."""
    name = f"{design_name}.attempts"
    head = ("attempts", repr(params), repr(config), repr(max_loop_iterations))
    units = []
    for rule in rules:
        cr = compiled[rule]

        def lower(module: _ModuleBuilder, rule: Rule = rule, cr: Any = cr) -> None:
            _lowering(
                rule,
                "count",
                lambda: _emit_attempt(module, "_attempt", cr, params, config, max_loop_iterations),
            )

        key, digest = _shape_key(
            head + (cr.can_fail, len(cr.shadow_registers)), "count", cr.guard, cr.body
        )
        units.append(_lower_unit(name, rule, key, digest, lower)[0])
    return [gen.namespace["_attempt"] for gen in units], tuple(units)


#: ``_commit(u)``, emitted into every engine step module: the engine's one
#: commit path for generated code (its step, and the pumps that drain its
#: producer endpoints).  It stores the updates with the plain ``dict``
#: method and wakes, per written key, the rules that read it -- exactly
#: what ``WakingStore.update`` does, without a callback per key.
_COMMIT = """\
def _commit(u):
    _dict_update(_store, u)
    for _reg in u:
        _ids = _wakers_get(_reg)
        if _ids is not None:
            for _i in _ids:
                if _sleeping[_i]:
                    _sleeping[_i] = 0
                    _wakeup.n_sleeping -= 1
"""


def _bind_commit(module: _ModuleBuilder, engine: Any) -> None:
    """Bind what :data:`_COMMIT` uses and emit it."""
    wakeup = engine._wakeup
    module.bindings.update(
        _store=engine.store,
        _dict_update=dict.update,
        _wakers_get=wakeup.wakers.get,
        _sleeping=wakeup.sleeping,
        _wakeup=wakeup,
    )
    module.chunks.append(_COMMIT + "\n")


def generate_sw_step(engine: Any, attempts: List[Callable]) -> GeneratedModule:
    """Fuse ``SwEngine.step`` into one generated function bound to ``engine``.

    Pre-binds only identity-stable collaborators (the wrapped store, the
    wakeup arrays, the fire-count / fail-cost dicts); every field
    ``restore()`` rebinds is reached through ``self`` so resident serving
    keeps working.  The schedule's candidate order after each last-fired
    rule is static, so it is one precomputed table of ``(index, rule)``
    pairs.  Commits go through the module's ``_commit`` (which wakes the
    readers of each written register directly), and a failed attempt puts
    its rule to sleep inline; parked deliveries still land through the
    store's ``__setitem__``.
    """
    module = _ModuleBuilder(f"{engine.name}.swstep")
    n = len(engine.rules)
    b = module.bindings
    b["_self"] = engine
    _bind_commit(module, engine)
    if n:
        index_of = engine._wakeup.index_of
        candidates = engine.schedule.candidates
        b["_read"] = engine.store.__getitem__
        b["_order"] = {
            last: tuple((index_of[rule], rule) for rule in candidates(last))
            for last in [None] + engine.rules
        }
        b["_lfc"] = engine._last_fail_cost
        b["_fire_counts"] = engine.fire_counts
        b["_names"] = tuple(r.full_name for r in engine.rules)
        b["_attempts"] = list(attempts)
        b["_cpu_to_fpga"] = engine.platform.cpu_to_fpga_cycles
        b["_n_rules"] = n
    lines = ["def step(now):"]
    if not n:
        lines.append("    return False")
    else:
        lines += [
            "    if now < _self.busy_until:",
            "        return False",
            "    progress = False",
            "    _pu = _self._pending_updates",
            "    if _pu is not None:",
            "        _commit(_pu)",
            "        _self._pending_updates = None",
            "        progress = True",
            "    _pd = _self._pending_deliveries",
            "    if _pd:",
            "        for _reg, _item in _pd:",
            "            _store[_reg] = tuple(_store[_reg]) + (_item,)",
            "        _self._pending_deliveries = []",
            "    if _wakeup.n_sleeping == _n_rules:",
            "        _self.guard_failures += _n_rules",
            "        return progress",
            "    _wasted = 0.0",
            "    for _i, _rule in _order[_self._last_fired]:",
            "        if _sleeping[_i]:",
            "            _wasted += _lfc[_rule]",
            "            _self.guard_failures += 1",
            "            continue",
            "        _cost, _u = _attempts[_i](_read)",
            "        if _u is not None:",
            "            _self.cpu_cycles_useful += _cost",
            "            _self.cpu_cycles_wasted += _wasted",
            "            _dur = _cpu_to_fpga(_cost + _wasted)",
            "            _self.busy_until = now + _dur",
            "            _self.busy_fpga_cycles += _dur",
            "            _self._pending_updates = _u",
            "            _self._last_fired = _rule",
            "            _fire_counts[_names[_i]] += 1",
            "            _self.total_firings += 1",
            "            return True",
            "        _sleeping[_i] = 1",
            "        _wakeup.n_sleeping += 1",
            "        _lfc[_rule] = _cost",
            "        _wasted += _cost",
            "        _self.guard_failures += 1",
            "    return progress",
        ]
    module.chunks.append("\n".join(lines) + "\n")
    return module.build()


# --------------------------------------------------------------------------
# hardware engine: generated latency executors and fused step_cycle
# --------------------------------------------------------------------------


def _rule_path(rule: Rule) -> str:
    """The rule's name below the design's top module (``ifft.stage0``),
    the same in every design that has the rule."""
    parts = [rule.name]
    module = rule.module
    while module is not None and module.parent is not None:
        parts.append(module.name)
        module = module.parent
    return ".".join(reversed(parts))


def generate_hw_step(engine: Any, execs: Dict[Rule, Any]) -> GeneratedModule:
    """Compile ``HwEngine.step_cycle`` and the engine's static schedule into
    one generated function.

    Same pre-binding discipline as :func:`generate_sw_step`: the busy
    table, locked set, store and wakeup arrays keep their identity
    across ``restore()``; rebindable scalars go through ``self``.  The
    schedule is static, so the cycle is straight-line code:

    * **Candidates**, one block per rule in engine order, so kernel calls
      (and the kernel memo's FIFO) keep the reference order.  A rule is a
      candidate when it is not asleep and its write set misses the locked
      registers; a busy rule has locked its own write set, so only a rule
      with an empty write set needs the busy test.  Its ``latency``
      function (:class:`SourceRuleExec`) returns its updates and leaves its
      FSM latency in the charge cell, or returns None when it fails, which
      puts it to sleep.  Only a unit that still has a raise site
      (``SourceRuleExec.raises``) is called under ``try``/``except
      GuardFail``, whose handler stands in for the None; this relies on
      foreign kernels, pure functions, never raising ``GuardFail``.
    * **Selection**: ``HwSchedule.select``'s greedy pass in urgency order,
      unrolled into one boolean per rule: enabled, and no earlier chosen
      rule conflicts with it.
    * **Commit**, in urgency order.  A chosen rule is skipped when an
      earlier rule of the cycle deferred its updates onto a register the
      rule writes (the in-cycle lock), and re-evaluated when an earlier
      rule committed to a register it reads.  Both tests are emitted only
      for rule pairs whose static ``rule_write_set`` / ``rule_read_set``
      overlap, and never for a conflicting pair (at most one of them is
      chosen).  The candidate test has already shown that a chosen rule's
      write set misses the registers locked when the cycle began.  Updates
      commit through the module's ``_commit``, which wakes the readers of
      each written register directly; a failed re-evaluation marks its
      rule asleep inline.
    * **Fixed-latency rules**: a rule whose ``latency`` lowering charged
      nothing (``SourceRuleExec.fixed_latency``) always takes one cycle.
      Its block drops the charge cell and the lock branch, it never
      locks out a later rule, and with an empty write set it needs no busy
      test, since it is never busy.
    * **Busy-only cycles**: only candidates are put to sleep, so a busy rule
      is never asleep; when every rule is asleep or busy once due rules
      have finished, no rule is a candidate and the step returns at once.

    The text is shape-only: a block's comment names its rule by its path
    below the top module, and fire-count keys are bindings, so designs
    that differ only in their name share one compiled step.
    """
    module = _ModuleBuilder(f"{engine.name}.hwstep")
    rules = engine.rules
    n = len(rules)
    b = module.bindings
    b["_self"] = engine
    _bind_commit(module, engine)
    if not n:
        module.chunks.append("def step_cycle(now):\n    return False\n")
        return module.build()
    b.update(
        _read=engine.store.__getitem__,
        _busy=engine.busy,
        _locked=engine._locked,
        _fire_counts=engine.fire_counts,
        _flush=engine._flush_pending_deliveries,
        _lock=engine._lock_rule,
        _unlock=engine._unlock_rule,
        _raise_missing=raise_for_missing_register,
        _cl=[0],
    )
    wsets = [engine._write_sets[rule] for rule in rules]
    rsets = [engine._read_sets[rule] for rule in rules]
    fixed = [execs[rule].fixed_latency for rule in rules]
    raises = [execs[rule].raises for rule in rules]
    for i, rule in enumerate(rules):
        b[f"_R{i}"] = rule
        b[f"_L{i}"] = execs[rule].latency
        b[f"_W{i}"] = frozenset(wsets[i])
        b[f"_F{i}"] = rule.full_name

    def evaluate(i: int, indent: str) -> List[str]:
        # A candidate is awake, so a failure puts it to sleep as is.
        call = f"_u{i} = _L{i}(_read, {'None' if fixed[i] else '_cl'})"
        lines = [] if fixed[i] else ["_cl[0] = 0"]
        if raises[i]:
            lines += ["try:", f"    {call}", "except GuardFail:"]
            lines += ["    _GF.__traceback__ = None", f"    _u{i} = None"]
        else:
            lines.append(call)
        lines += [f"if _u{i} is None:", f"    _sleeping[{i}] = 1", "    _wakeup.n_sleeping += 1"]
        if not fixed[i]:
            lines += ["else:", f"    _l{i} = 1 + _cl[0]"]
        return [indent + line for line in lines]

    body: List[str] = []
    for i, rule in enumerate(rules):
        if wsets[i]:
            free = f" and (not _busy or _locked.isdisjoint(_W{i}))"
        elif fixed[i]:
            free = ""  # never busy
        else:
            free = f" and _R{i} not in _busy"
        body += [f"# {_rule_path(rule)}", f"_u{i} = None", f"if not _sleeping[{i}]{free}:"]
        body += evaluate(i, "    ")

    # Static schedule: for each rule in urgency order, the earlier rules
    # that exclude it from the chosen set, whose deferred updates lock it
    # out, and whose committed updates it must re-read.
    index = {rule: i for i, rule in enumerate(rules)}
    order = [index[rule] for rule in engine.schedule.rules]
    conflict = engine.schedule.conflict_matrix.conflict
    plan = []
    for pos, k in enumerate(order):
        earlier = order[:pos]
        excluders = [j for j in earlier if conflict(rules[j], rules[k])]
        compatible = [j for j in earlier if j not in excluders]
        lockers = [j for j in compatible if not fixed[j] and wsets[j] & wsets[k]]
        writers = [
            (j, sorted(wsets[j] & rsets[k], key=lambda reg: reg.full_name))
            for j in compatible
            if wsets[j] & rsets[k]
        ]
        plan.append((k, excluders, lockers, writers))
    chosen_ref = {j for _, excluders, _, _ in plan for j in excluders}
    deferred_ref = {j for _, _, lockers, _ in plan for j in lockers}
    committed_ref = {j for _, _, _, writers in plan for j, _ in writers}

    def unless(stem: str, js: List[int]) -> str:
        names = " or ".join(f"{stem}{j}" for j in js)
        return f" and not {names}" if len(js) == 1 else f" and not ({names})"

    for k, excluders, lockers, writers in plan:
        chosen = f"_u{k} is not None"
        if excluders:
            chosen += unless("_c", excluders)
        if k in chosen_ref:
            body.append(f"_c{k} = {chosen}")
            chosen = f"_c{k}"
        if k in deferred_ref:
            body.append(f"_d{k} = False")
        if k in committed_ref:
            body.append(f"_m{k} = ()")
        if lockers:
            chosen += unless("_d", lockers)
        body.append(f"if {chosen}:")
        indent = "    "
        if writers:
            reread = " or ".join(
                f"{module.bind(reg, 'r')} in _m{j}" for j, regs in writers for reg in regs
            )
            body.append(f"    if {reread}:")
            body += evaluate(k, "        ")
            body.append(f"    if _u{k} is not None:")
            indent = "        "
        fire = [
            f"_fire_counts[_F{k}] += 1",
            "_self.total_firings += 1",
            "progress = True",
        ]
        commit = [f"_commit(_u{k})"]
        if k in committed_ref:
            commit.append(f"_m{k} = _u{k}")
        if fixed[k]:
            fire += commit
        else:
            fire += [f"if _l{k} <= 1:"] + ["    " + line for line in commit]
            fire += ["else:", f"    _lock(_R{k}, now + _l{k}, _u{k})"]
            if k in deferred_ref:
                fire.append(f"    _d{k} = True")
        body += [indent + line for line in fire]

    lines = [
        "def step_cycle(now):",
        "    if _self.last_cycle_stepped == now:",
        "        return False",
        "    _self.last_cycle_stepped = now",
        "    progress = False",
        "    _nf = _self._next_finish",
        "    if _nf is not None and _nf <= now:",
        "        for _r in [r for r, (f, _) in _busy.items() if f <= now]:",
        "            _commit(_unlock(_r))",
        "            progress = True",
        "        if _self._pending_deliveries:",
        "            _flush()",
        f"    if _wakeup.n_sleeping + len(_busy) == {n}:",
        "        if progress:",
        "            _self.cycles_active += 1",
        "        return progress",
        "    try:",
    ]
    lines += ["        " + line for line in body]
    lines += [
        "    except KeyError as _exc:",
        "        _raise_missing(_exc)",
        "        raise",
        "    if progress:",
        "        _self.cycles_active += 1",
        "    return progress",
    ]
    module.chunks.append("\n".join(lines) + "\n")
    return module.build()


# --------------------------------------------------------------------------
# transport routes: generated pump / delivery functions
# --------------------------------------------------------------------------


def _locked_test(engine: str, reg: str, view: Optional[str]) -> str:
    """Text that is true when the producer engine ``engine`` holds ``reg``
    locked, as ``engine.locked_registers()`` would say, without the call:
    a hardware engine's locked set (bound as ``view``; its identity
    survives ``restore()``), or, with no view, a software engine's pending
    updates."""
    if view is None:
        return f"({engine}._pending_updates is not None and {reg} in {engine}._pending_updates)"
    return f"{reg} in {view}"


#: The wake loop of a delivery that appended to register ``_data_reg``,
#: whose readers in the target engine are ``_ids`` (``RuleWakeup.wakers``).
_DELIVERY_WAKE = [
    "for _w in _ids:",
    "    if _sleeping[_w]:",
    "        _sleeping[_w] = 0",
    "        _wakeup.n_sleeping -= 1",
]


def generate_transport_pump(
    data_reg,
    depth: int,
    producer,
    consumer_store,
    vc,
    direction,
    sw_producer: bool = False,
    occupancy_of=None,
    name: str = "route",
) -> Callable[[float], bool]:
    """Generate one producer-side transport route as ``pump(now) -> bool``.

    The pump launches as many queued elements as the consumer's credit
    window allows, in one batch: the window
    ``depth - consumer_occupancy - in_flight`` is computed once (occupancy
    cannot change mid-pump -- deliveries happen in a separate phase), the
    drained prefix is committed with one tuple re-slice through the
    ``producer`` engine's generated ``_commit`` (which wakes the producer
    rules waiting on a full FIFO), and each element is packed by the
    virtual channel's layout-compiled ``encode_batch`` straight into the
    link's :class:`~repro.platform.channel.MessagePool` rings -- no
    per-message object.  A locked endpoint returns False; an empty window
    counts a credit stall and returns False, as the reference pump does.
    Per-route constants (credit depth, words per element, occupancy and
    latency cycles, the vc id and, for a software producer, the CPU cycles
    and FPGA-cycle duration of driving one message,
    ``SwEngine.driver_cost``) are pre-bound names like the mutable
    collaborators (stores, pool rings, stats), so every route of one shape
    has the same text and compiles once.  Counters commit
    once per batch, while ``busy_cycles``, due times and driver charges
    accumulate per element, so results stay bitwise identical to the
    interpreted per-element transport
    (``repro.sim.cosim._pump_routes_interp``).

    ``occupancy_of`` overrides where the consumer occupancy is read from:
    by default ``len(consumer_store[data_reg])``; a distributed route whose
    consumer lives in another process passes a reader over the consumer's
    published occupancy cell, leaving the credit arithmetic unchanged.
    """
    module = _ModuleBuilder(f"{name}.pump")
    b = module.bindings
    words = vc.words_per_element
    occupancy = direction.params.occupancy_cycles(words, direction.burst)
    latency = direction.params.one_way_latency_cycles
    pool = direction.pool
    b["_pstore"] = producer.store
    b["_peng"] = producer
    b["_commit"] = producer._step_gen.namespace["_commit"]
    b["_cstore"] = consumer_store
    b["_dreg"] = data_reg
    b["_vc"] = vc
    b["_vcs"] = vc.stats
    b["_dir"] = direction
    b["_stats"] = direction.stats
    b["_per_vc"] = direction.stats.per_vc_messages
    b["_encode_batch"] = vc.encode_batch
    b["_pool_words"] = pool.words
    b["_words_extend"] = pool.words.extend
    b["_vc_extend"] = pool.vc_ids.extend
    b["_bounds_extend"] = pool.bounds.extend
    b["_due_append"] = pool.due.append
    b["_compact"] = pool.compact
    b["_depth"] = depth
    b["_words"] = words
    b["_vc_id"] = vc.vc_id
    b["_occupancy"] = occupancy
    b["_latency"] = latency
    if not sw_producer:
        b["_locked"] = producer._locked
    if occupancy_of is not None:
        b["_occ"] = occupancy_of
    if sw_producer:
        b["_drv_cpu"], b["_drv_dur"] = producer.driver_cost(words)
    occ_expr = "_occ()" if occupancy_of is not None else "len(_cstore[_dreg])"
    lines = [
        "def pump(now):",
        "    _q = _pstore[_dreg]",
        "    if not _q:",
        "        return False",
        f"    if {_locked_test('_peng', '_dreg', None if sw_producer else '_locked')}:",
        "        return False",
        f"    _win = _depth - {occ_expr} - _vc.in_flight",
        "    if _win <= 0:",
        "        _vcs.stalled_on_credit += 1",
        "        return False",
        "    _n = len(_q)",
        "    if _win < _n:",
        "        _n = _win",
        "    _compact()",
        "    _words_extend(_encode_batch(_q[:_n]))",
        "    _end = len(_pool_words)",
        "    _bounds_extend(range(_end - (_n - 1) * _words, _end + 1, _words))",
        "    _vc_extend([_vc_id] * _n)",
        "    _busy = _dir.busy_until",
        "    _bc = _stats.busy_cycles",
    ]
    if sw_producer:
        # SwEngine.charge_driver per element, on locals written back once.
        lines += [
            "    _cpu = _peng.cpu_cycles_driver",
            "    _pbu = _peng.busy_until",
            "    _pbf = _peng.busy_fpga_cycles",
        ]
    lines += [
        "    for _ in range(_n):",
        "        _start = _busy if _busy > now else now",
        "        _busy = _start + _occupancy",
        "        _due_append(_busy + _latency)",
        "        _bc += _occupancy",
    ]
    if sw_producer:
        lines += [
            "        _cpu += _drv_cpu",
            "        _pbu = (now if now > _pbu else _pbu) + _drv_dur",
            "        _pbf += _drv_dur",
            "    _peng.cpu_cycles_driver = _cpu",
            "    _peng.busy_until = _pbu",
            "    _peng.busy_fpga_cycles = _pbf",
        ]
    lines += [
        "    _dir.busy_until = _busy",
        "    _stats.busy_cycles = _bc",
        "    _stats.messages += _n",
        "    _stats.words += _n * _words",
        "    _per_vc[_vc_id] = _per_vc.get(_vc_id, 0) + _n",
        "    _vc.credits = _win - _n",
        "    _vc.in_flight += _n",
        "    _vcs.messages_sent += _n",
        "    _vcs.words_sent += _n * _words",
        "    _commit({_dreg: _q[_n:]})",
        "    if _n < len(_q):",
        "        _vcs.stalled_on_credit += 1",
        "    return True",
    ]
    module.chunks.append("\n".join(lines) + "\n")
    return module.build().namespace["pump"]


def generate_transport_delivery(
    direction,
    vc_by_id,
    target,
    sw_target: bool,
    name: str = "route",
) -> Callable[[float], bool]:
    """Generate one topology link's consumer side as ``deliver_due(now) -> bool``.

    Due messages are decoded in place from the link's pool rings (the
    virtual channel's layout-compiled ``decode``, no per-message object)
    and appended to the ``target`` engine's endpoint register with the
    plain ``dict`` method, waking the target rules that read it directly
    (their indices per vc are bound at generation) -- or parked on the
    engine's ``_pending_deliveries``, as its ``deliver`` would park them.
    A hardware target, whose parking condition (the endpoint locked by an
    in-flight rule) cannot change mid-sweep, takes a run of same-vc
    messages as one endpoint append and commits its credit/stat updates
    once.  A software target takes them one at a time, each followed by
    ``SwEngine.charge_driver``'s charge, folded into per-vc constants:
    every charge makes the engine busy, which parks the next delivery, so
    batching would change credit timing.
    """
    module = _ModuleBuilder(f"{name}.deliver")
    b = module.bindings
    pool = direction.pool
    wakeup = target._wakeup
    b["_pool"] = pool
    b["_due"] = pool.due
    b["_vc_ids"] = pool.vc_ids
    b["_bounds"] = pool.bounds
    b["_pool_words"] = pool.words
    b["_tgt"] = target
    b["_tstore"] = target.store
    b["_dict_set"] = dict.__setitem__
    b["_sleeping"] = wakeup.sleeping
    b["_wakeup"] = wakeup
    info = {}
    for vc_id, vc in vc_by_id.items():
        reg = vc.sync.data
        info[vc_id] = (vc, vc.decode, vc.decode_run, reg, wakeup.wakers.get(reg, ()))
        if sw_target:
            info[vc_id] += target.driver_cost(vc.words_per_element)
    b["_info"] = info
    if not sw_target:
        b["_locked"] = target._locked
        lines = [
            "def deliver_due(now):",
            "    _head = _pool.head",
            "    _end = len(_due)",
            "    if _head >= _end:",
            "        return False",
            "    _cut = _head",
            "    while _cut < _end and _due[_cut] <= now:",
            "        _cut += 1",
            "    if _cut == _head:",
            "        return False",
            "    _start = _pool.word_head",
            "    _i = _head",
            "    while _i < _cut:",
            "        _vc_id = _vc_ids[_i]",
            "        _j = _i + 1",
            "        while _j < _cut and _vc_ids[_j] == _vc_id:",
            "            _j += 1",
            "        _vc, _decode, _decode_run, _data_reg, _ids = _info[_vc_id]",
            "        _k = _j - _i",
            "        if _k == 1:",
            "            _items = (_decode(_pool_words, _start + 1),)",
            "        else:",
            "            _items = tuple(_decode_run(_pool_words, _start, _k))",
            "        _start = _bounds[_j - 1]",
            "        if _data_reg in _locked:",
            "            _tgt._pending_deliveries.extend([(_data_reg, _item) for _item in _items])",
            "        else:",
            "            _dict_set(_tstore, _data_reg, tuple(_tstore[_data_reg]) + _items)",
        ]
        lines += ["            " + line for line in _DELIVERY_WAKE]
        lines += [
            "        _vc.in_flight -= _k",
            "        _vc.stats.messages_delivered += _k",
            "        _i = _j",
            "    _pool.head = _cut",
            "    _pool.word_head = _start",
            "    return True",
        ]
    else:
        lines = [
            "def deliver_due(now):",
            "    _head = _pool.head",
            "    _end = len(_due)",
            "    if _head >= _end:",
            "        return False",
            "    _start = _pool.word_head",
            "    _i = _head",
            "    while _i < _end and _due[_i] <= now:",
            "        _vc, _decode, _decode_run, _data_reg, _ids, _cpu, _dur = _info[_vc_ids[_i]]",
            "        _item = _decode(_pool_words, _start + 1)",
            "        _bu = _tgt.busy_until",
            "        if now < _bu or _tgt._pending_updates is not None:",
            "            _tgt._pending_deliveries.append((_data_reg, _item))",
            "        else:",
            "            _dict_set(_tstore, _data_reg, tuple(_tstore[_data_reg]) + (_item,))",
        ]
        lines += ["            " + line for line in _DELIVERY_WAKE]
        lines += [
            "        _vc.in_flight -= 1",
            "        _vc.stats.messages_delivered += 1",
            "        _tgt.cpu_cycles_driver += _cpu",
            "        _tgt.busy_until = (now if now > _bu else _bu) + _dur",
            "        _tgt.busy_fpga_cycles += _dur",
            "        _start = _bounds[_i]",
            "        _i += 1",
            "    if _i == _head:",
            "        return False",
            "    _pool.head = _i",
            "    _pool.word_head = _start",
            "    return True",
        ]
    module.chunks.append("\n".join(lines) + "\n")
    return module.build().namespace["deliver_due"]


# --------------------------------------------------------------------------
# group sub-fabrics: generated event loop
# --------------------------------------------------------------------------


def generate_group_loop(group: Any, name: str = "group") -> GeneratedModule:
    """Generate a group sub-fabric's event loop as one function, ``run``.

    ``run(done, checks, max_cycles, max_iterations)`` is the interpreted
    ``_GroupFabric.run`` loop with the group's delivery routes, engines and
    pumps unrolled: the same phase order (done check, deliveries, hardware
    engines, software engines, pumps, idle skip) and the same float
    arithmetic.  It makes the same calls, except those the callee would
    answer with False without changing anything:

    * a delivery whose pool head is not yet due;
    * a hardware engine whose rules are all asleep or busy, none of the
      busy ones due (the skip still records ``last_cycle_stepped``, as the
      step does; a busy rule is never asleep, so no rule is a candidate);
    * a software engine with ``now < busy_until``;
    * a pump whose producer FIFO is empty or whose endpoint its producer
      engine holds locked;
    * the step of an engine without rules.

    A pump with an empty credit window would count a credit stall and
    return False: the loop tests the window itself, counts the stall on
    the channel's ``stalled_on_credit`` and leaves the call out, so a pump
    is called only when it can send.

    Only the loop's own delivery and pump calls touch the group's pools
    while it runs, so each pool's next due time (its head's, ``_INF``
    when it is empty) lives in a local: read once per run, and again
    after a delivery (which advances the head) or a pump (which appends,
    so the pool is not empty) that returned True.  The delivery tests and
    the idle scan compare locals instead of testing each due ring's length
    and indexing it every iteration.

    Engine ``step`` / ``step_cycle`` attributes are read once per run, in
    the prologue, so wrappers installed after elaboration are the ones
    called.  ``checks`` (``(mapping, register, minimum)`` triples, or None)
    replaces the per-iteration ``done(fabric)`` call with inline
    ``mapping[register] >= minimum`` tests, a single triple unpacked into
    locals once per run; ``done`` is still called wherever the
    interpreted loop calls it outside the loop top.  Returns the
    completion flag; an exhausted budget raises ``group.budget_error``.
    The clock lives in a local and is written back to ``group.now`` on
    every change.
    """
    module = _ModuleBuilder(f"{name}.loop")
    bind = module.bind
    module.bindings["_group"] = group
    module.bindings["_fabric"] = group.fabric
    module.bindings["_INF"] = float("inf")
    # id(pool) -> the local holding its next due time.  A route's link is
    # attributed to the group its endpoints lie in, so every pool the
    # routes use is one of the group's.
    next_due = {id(pool): f"_n{j}" for j, pool in enumerate(group._pools)}

    def read_next_due(pool: Any) -> List[str]:
        p, due = bind(pool, "q"), bind(pool.due, "d")
        return [f"_h = {p}.head", f"{next_due[id(pool)]} = {due}[_h] if _h < len({due}) else _INF"]

    prologue: List[str] = []
    phases: List[str] = []
    for (direction, _target, _sw), deliver in zip(group.delivery_routes, group.deliver_fns):
        phases += [
            f"if {next_due[id(direction.pool)]} <= now and {bind(deliver, 'f')}(now):",
            "    progress = True",
        ]
        phases += ["    " + line for line in read_next_due(direction.pool)]
    for i, engine in enumerate(group.hw_engines):
        if not engine.rules:
            continue
        step, e, n_rules = f"_hstep{i}", bind(engine, "e"), f"_hrules{i}"
        module.bindings[n_rules] = len(engine.rules)
        prologue.append(f"{step} = {e}.step_cycle")
        phases += [
            f"if {bind(engine._wakeup, 'w')}.n_sleeping + len({bind(engine.busy, 'b')}) "
            f"== {n_rules} and ({e}._next_finish is None or "
            f"{e}._next_finish > now):",
            f"    {e}.last_cycle_stepped = now",
            f"elif {step}(now):",
            "    progress = True",
        ]
    for i, engine in enumerate(group.sw_engines):
        if not engine.rules:
            continue
        step = f"_sstep{i}"
        prologue.append(f"{step} = {bind(engine, 'e')}.step")
        phases += [
            f"if not now < {bind(engine, 'e')}.busy_until and {step}(now):",
            "    progress = True",
        ]
    for route, pump in zip(group.routes, group.pump_fns):
        sync, vc, producer, producer_store, consumer_store, direction, sw = route
        reg = bind(sync.data, "r")
        view = None if sw else bind(producer._locked, "v")
        locked = _locked_test(bind(producer, "e"), reg, view)
        depth = bind(sync.depth, "c", key=(id(sync), "depth"))
        channel = bind(vc, "vc")
        pool = direction.pool
        phases += [
            f"if {bind(producer_store, 's')}[{reg}] and not {locked}:",
            f"    if {depth} - len({bind(consumer_store, 's')}[{reg}]) - {channel}.in_flight <= 0:",
            f"        {bind(vc.stats, 'vs')}.stalled_on_credit += 1",
            f"    elif {bind(pump, 'f')}(now):",
            "        progress = True",
            f"        {next_due[id(pool)]} = {bind(pool.due, 'd')}[{bind(pool, 'q')}.head]",
        ]
    # The idle skip's running minimum visits the candidates in the order
    # the interpreted loop lists them, so ties resolve identically.
    scanned = list(next_due.values())
    scan = [f"_nt = {scanned[0] if scanned else '_INF'}"]
    for local in scanned[1:]:
        scan += [f"if {local} < _nt:", f"    _nt = {local}"]
    for engine in group.hw_engines:
        scan += [
            f"_t = {bind(engine, 'e')}._next_finish",
            "if _t is not None and _t < _nt:",
            "    _nt = _t",
        ]
    for engine in group.sw_engines:
        e = bind(engine, "e")
        scan += [
            f"_t = {e}.busy_until",
            f"if (now < _t or {e}._pending_updates is not None) and _t < _nt:",
            "    _nt = _t",
        ]
    for pool in group._pools:
        prologue += read_next_due(pool)
    body = "\n".join(
        ["def run(done, checks, max_cycles, max_iterations):"]
        + ["    " + line for line in prologue]
        + [
            "    _one = checks is not None and len(checks) == 1",
            "    if _one:",
            "        ((_cmap, _creg, _cmin),) = checks",
            "    now = _group.now",
            "    completed = False",
            "    iterations = 0",
            "    while now <= max_cycles and iterations < max_iterations:",
            "        iterations += 1",
            "        if _one:",
            "            if _cmap[_creg] >= _cmin:",
            "                completed = True",
            "                break",
            "        elif checks is not None:",
            "            for _map, _reg, _min in checks:",
            "                if not _map[_reg] >= _min:",
            "                    break",
            "            else:",
            "                completed = True",
            "                break",
            "        elif done is not None and done(_fabric):",
            "            completed = True",
            "            break",
            "        progress = False",
        ]
        + ["        " + line for line in phases]
        + [
            "        if progress:",
            "            now += 1.0",
            "            _group.now = now",
            "            continue",
        ]
        + ["        " + line for line in scan]
        + [
            "        if _nt == _INF:",
            "            completed = True if done is None else done(_fabric)",
            "            break",
            "        _t = now + 1.0",
            "        now = _nt if _nt > _t else _t",
            "        _group.now = now",
            "    else:",
            "        raise _group.budget_error(done, now, iterations)",
            "    if not completed and done is not None:",
            "        completed = done(_fabric)",
            "    return completed",
        ]
    )
    module.chunks.append(body + "\n")
    return module.build()
