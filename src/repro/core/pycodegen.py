"""Source-lowered execution tier: flat generated Python per rule and route.

The engines have two rule backends: ``interp``, the tree-walking
:class:`~repro.core.semantics.Evaluator` (the semantic reference oracle),
and ``source``, generated here.  Each *already elaborated*
``Expr``/``Action`` tree is lowered once to flat Python source --
operators inlined as Python infix, environment frames become local
variables, registers / native methods / kernel functions resolved to
direct names in the module namespace, ``GuardFail`` raised from prebuilt
singletons -- and the module is ``exec``-compiled at elaboration time.

Three generation modes reproduce the tree walker's observable behaviour
bit-for-bit:

* ``fast``    -- hook-free evaluation (``Simulator``);
* ``latency`` -- folded hardware FSM latency, no hooks: each kernel adds
  ``max(0, hw_cycles - 1)`` (a constant folded at generation, a callable
  called inline before the kernel) and each memory with ``read_latency``
  above 1 adds ``read_latency - 1`` to a one-element charge cell, which is
  exactly what the HW engine's ``HwLatencyAccumulator`` counts;
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
every requested mode), and every per-instance value -- registers,
kernels, stores, a route's credit depth or vc id, an engine's rule count
-- is a namespace binding, so the text below a module's header line
depends only on the shape it lowers.  Each distinct text is compiled once
per interpreter into a template that never runs; every instance execs
its own copy of it (:func:`_private_copy`), so instances keep their own
adaptive bytecode and their own filename.

Debugging: set ``REPRO_DUMP_SOURCE=<dir>`` to write every generated module
to disk; all modules are registered with :mod:`linecache` so tracebacks
through generated functions show real source lines.
"""

from __future__ import annotations

import hashlib
import keyword
import linecache
import os
import re
from types import CodeType
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

    def dump(self, directory: str) -> str:
        """Write the generated source to ``directory`` and return the path
        (see :func:`dump_source`)."""
        return dump_source(directory, self.name, self.digest, self.source)


def register_source(name: str, source: str) -> Tuple[str, str]:
    """Make the generated text ``source`` of module ``name`` debuggable.

    Returns its content digest and the ``<repro-generated:name#digest>``
    filename to compile it under, registers it with :mod:`linecache` (so
    tracebacks through its functions show real source lines) and writes it
    to ``$REPRO_DUMP_SOURCE`` when that is set.  The digest keeps distinct
    designs that share a module name (two engines both called "HW") from
    clobbering each other's linecache entry or dump file; identical source
    still maps to one filename.
    """
    digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:8]
    filename = f"<repro-generated:{name}#{digest}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    dump_dir = os.environ.get("REPRO_DUMP_SOURCE")
    if dump_dir:
        dump_source(dump_dir, name, digest, source)
    return digest, filename


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


class _ModuleBuilder:
    """Accumulates functions and deterministic namespace bindings.

    Symbol names come from a monotonically increasing counter in lowering
    order, so the same shape always produces byte-identical text below the
    header (the bound *objects* differ per instance; the *text* does not).
    Only the header line names the module and, for a rule unit, the rule.
    """

    def __init__(self, name: str, rule: Optional[Rule] = None):
        self.name = name
        subject = f" -- rule {rule.full_name}" if rule is not None else ""
        self.chunks: List[str] = [
            f"# generated by repro.core.pycodegen -- {name}{subject}\n"
        ]
        self.bindings: Dict[str, Any] = {
            "GuardFail": GuardFail,
            "RawStruct": RawStruct,
            "SimulationError": SimulationError,
            "DoubleWriteError": DoubleWriteError,
            "ElaborationError": ElaborationError,
        }
        self._by_id: Dict[int, str] = {}
        self._counter = 0
        self._fn_counter = 0
        #: Set when a lazy let is forced: only then is ``_force`` emitted.
        self.uses_force = False

    def bind(self, obj: Any, prefix: str = "o") -> str:
        """Bind ``obj`` into the namespace under a deterministic name."""
        key = id(obj)
        name = self._by_id.get(key)
        if name is None:
            name = f"_{prefix}{self._counter}"
            self._counter += 1
            self._by_id[key] = name
            self.bindings[name] = obj
        return name

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


class _Unsupported(Exception):
    """A subtree the lowerer cannot translate (see :func:`_lowering`)."""


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

    ``mode`` is one of ``fast``/``latency``/``count``; the emitted
    statements reproduce the tree walker's evaluation order and (for
    ``count``) charge points exactly.
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
        #: count and latency thread a one-element charge cell (``_cl``)
        #: through thunks and user methods.
        self.cells = self.counting or self.timing
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

    # -- plumbing ----------------------------------------------------------

    def _capture(self, fn: Callable[[], str]) -> Tuple[List[str], str]:
        saved = self.w.lines
        self.w.lines = []
        expr = fn()
        captured = self.w.lines
        self.w.lines = saved
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
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) is int:
            return repr(value) if -(2**31) <= value <= 2**31 else self.module.bind(value, "c")
        return self.module.bind(value, "c")

    def _fail(self, message: str) -> str:
        return self.module.bind(GuardFail(message), "x")

    def _raise_fail(self, fail_name: str) -> None:
        self.w.emit(f"{fail_name}.__traceback__ = None")
        self.w.emit(f"raise {fail_name}")

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
                name = self.module.bind(expr.name, "c")
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
            then_stmts, then = self._capture(lambda: self.lower_expr(expr.then))
            else_stmts, orelse = self._capture(lambda: self.lower_expr(expr.orelse))
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
            fail = self._fail(f"expression guard failed at {expr!r}")
            guard = self.lower_expr(expr.guard)
            w.emit(f"if not {guard}:")
            w.indent += 1
            self._raise_fail(fail)
            w.indent -= 1
            return self.lower_expr(expr.body)

        if isinstance(expr, LetE):
            local = self._lower_let(expr.name, expr.value)
            saved = self.scope.get(expr.name)
            self.scope[expr.name] = ("thunk", local)
            try:
                return self.lower_expr(expr.body)
            finally:
                if saved is None:
                    del self.scope[expr.name]
                else:
                    self.scope[expr.name] = saved

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
        right_stmts, right = self._capture(lambda: self.lower_expr(expr.right))
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

    def _lower_let(self, name: str, value: Expr) -> str:
        """Emit a lazy binding; returns the local holding the thunk cell.

        The tree walker's ``_Thunk`` captures the binding-site ``read`` and
        hooks; the generated thunk does the same by passing ``read`` and the
        charge cell (:meth:`_call_ctx`) into a module-level value function
        explicitly, so a thunk forced under a ``Seq``/``Loop`` overlay still
        reads through the binding-site view and charges the binding-site
        cell.
        """
        w = self.w
        value_fn = self._lower_scoped_fn("lv", value, is_action=False)
        free = self._free_locals(value)
        cell = w.tmp()
        captured = ", ".join([self._call_ctx()] + free)
        w.emit(f"{cell} = [False, None, {value_fn}, {self.read}, ({captured},)]")
        return cell

    def _free_locals(self, node: Any) -> List[str]:
        used = set()
        for sub in node.walk():
            if isinstance(sub, Var):
                used.add(sub.name)
        return [local for name, (_, local) in self.scope.items() if name in used]

    def _lower_scoped_fn(self, stem: str, node: Any, is_action: bool) -> str:
        """Lower ``node`` as a module-level function over its free scope vars.

        The function's signature is ``(read, _ctx, *free_locals)`` where
        ``_ctx`` is the charge cell list (count/latency) or None (fast);
        call sites pass the binding-site values
        explicitly, which reproduces the tree walker's creation-time
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
        if self.cells:
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
        if self.timing:
            # ``HwLatencyAccumulator.on_kernel``, folded: the kernel's FSM
            # adds ``hw_cycles - 1`` cycles once its arguments are evaluated.
            if callable(expr.hw_cycles):
                values = self._kernel_args(expr)
                cost_fn = self.module.bind(expr.hw_cycles, "k")
                w.emit(f"{self.sink} += max(0, int({cost_fn}({values})) - 1)")
                return f"{fn}({values})"
            extra = max(0, int(expr.hw_cycles) - 1)
            if extra:
                values = self._kernel_args(expr)
                w.charge(self.sink, extra)
                return f"{fn}({values})"
        args = self._operands(list(expr.args))
        return f"{fn}({', '.join(args)})"

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
                return f"{{{reg}: {value}}}"
            (value,) = self._operands([action.value])
            return f"{{{reg}: {value}}}"

        if isinstance(action, IfA):
            cond_stmts, cond = self._capture(lambda: self.lower_expr(action.cond))
            then_stmts, then = self._capture(lambda: self.lower_action(action.then))
            if action.orelse is None:
                else_stmts, orelse = [], "{}"
            else:
                else_stmts, orelse = self._capture(
                    lambda: self.lower_action(action.orelse)
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
            fail = self._fail(f"action guard failed at {action!r}")
            guard = self.lower_expr(action.guard)
            w.emit(f"if not {guard}:")
            w.indent += 1
            self._raise_fail(fail)
            w.indent -= 1
            return self.lower_action(action.body)

        if isinstance(action, Par):
            subs = list(action.actions)
            if len(subs) == 1:
                return self.lower_action(subs[0])
            merged = self.w.tmp()
            first = self.lower_action(subs[0])
            w.emit(f"{merged} = {first}")
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
            if _seq_never_reads_back(subs):
                for sub in subs:
                    value = self.lower_action(sub)
                    w.emit(f"{overlay}.update({value})")
                return overlay
            ov_read = self._emit_overlay_read(overlay)
            saved_read = self.read
            self.read = ov_read
            try:
                for sub in subs:
                    value = self.lower_action(sub)
                    w.emit(f"{overlay}.update({value})")
            finally:
                self.read = saved_read
            return overlay

        if isinstance(action, LetA):
            local = self._lower_let(action.name, action.value)
            saved = self.scope.get(action.name)
            self.scope[action.name] = ("thunk", local)
            try:
                return self.lower_action(action.body)
            finally:
                if saved is None:
                    del self.scope[action.name]
                else:
                    self.scope[action.name] = saved

        if isinstance(action, Loop):
            limit = min(action.max_iterations, self.max_loop_iterations)
            overlay = w.tmp()
            w.emit(f"{overlay} = {{}}")
            ov_read = self._emit_overlay_read(overlay)
            iters = w.tmp()
            w.emit(f"{iters} = 0")
            saved_read = self.read
            self.read = ov_read
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
                self.read = saved_read
            return overlay

        if isinstance(action, LocalGuard):
            t = w.tmp()
            w.emit("try:")
            body_stmts, body = self._capture(lambda: self.lower_action(action.body))
            w.emit_lines(_reindent(body_stmts))
            w.emit(f"    {t} = {body}")
            w.emit("except GuardFail:")
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
        fail = self._fail(
            f"{'action' if is_action else 'value'} method "
            f"{instance.name}.{method_name} is not ready"
        )

        if isinstance(instance, PrimitiveModule):
            native = instance.get_native(method_name)
            guard_fn = self.module.bind(native.guard_fn, "g")
            body_fn = self.module.bind(native.body_fn, "b")
            self._on_method(instance, method_name)
            if self.counting and self.charging:
                overhead = self.params.native_method_overhead
                if hasattr(instance, "read_latency"):
                    overhead += self.params.regfile_access
                self._charge(overhead)
            values = self._materialize(
                [self._capture(lambda a=a: self.lower_expr(a)) for a in call.args]
            )
            arglist = ", ".join([self.read] + values)
            w.emit(f"if not {guard_fn}({arglist}):")
            w.indent += 1
            self._raise_fail(fail)
            w.indent -= 1
            t = w.tmp()
            if is_action:
                w.emit(f"{t}, _ = {body_fn}({arglist})")
                if self.counting and self.charging:
                    self.w.emit(
                        f"{self.sink} += {self.params.reg_write} * len({t})"
                    )
                return t
            w.emit(f"_, {t} = {body_fn}({arglist})")
            return t

        # User-defined method: one generated module-level function pair per
        # (method, mode), pre-registered so recursive methods terminate.
        guard_name, body_name = self._user_method(method, is_action)
        self._on_method(instance, method_name)
        if self.counting and self.charging:
            self._charge(self.params.method_call_overhead)
        values = self._materialize(
            [self._capture(lambda a=a: self.lower_expr(a)) for a in call.args]
        )
        ctx = self._call_ctx()
        arglist = ", ".join([self.read, ctx] + values)
        w.emit(f"if not {guard_name}({arglist}):")
        w.indent += 1
        self._raise_fail(fail)
        w.indent -= 1
        t = w.tmp()
        w.emit(f"{t} = {body_name}({arglist})")
        return t

    def _on_method(self, instance: Module, method_name: str) -> None:
        """The method entry's folded latency: a memory whose
        ``read_latency`` is above 1 adds ``read_latency - 1`` cycles, as
        ``HwLatencyAccumulator.on_method`` does."""
        if self.timing:
            read_latency = getattr(instance, "read_latency", None)
            if read_latency is not None and read_latency > 1:
                self.w.charge(self.sink, read_latency - 1)

    def _call_ctx(self) -> str:
        """Second argument threaded into generated method/thunk functions.

        Thunks and methods need a mutable charge cell: the rule wrappers
        always provide ``_cl`` (a one-element list); in count mode its slot
        0 is folded into the local ``_cc`` at the boundaries."""
        return "_cl" if self.cells else "None"

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
            if self.cells:
                sub.sink = "_ctx[0]"
                sub.w.emit("_cl = _ctx")
            if node is None:
                owner = method.module.name if method.module is not None else "?"
                msg = self.module.bind(
                    f"{method.kind} method {owner}.{method.name} has no body", "c"
                )
                sub.w.emit(f"raise ElaborationError({msg})")
            else:
                result = (
                    sub.lower_action(node) if action_node else sub.lower_expr(node)
                )
                sub.w.emit(f"return {result}")
            self.module.add(sub.w.lines)
        return guard_name, body_name


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


#: Parameters of the generated rule function per mode.
_RULE_FN_PARAMS = {
    "fast": ["read"],
    "latency": ["read", "_cl"],
}


def _lower_rule_fn(
    module: _ModuleBuilder,
    name: str,
    action: Action,
    mode: str,
    max_loop_iterations: int,
) -> None:
    """Emit ``def name(read, ...)`` executing ``action`` flat (see
    :class:`SourceRuleExec` for the per-mode signature)."""
    low = _Lowerer(module, mode, max_loop_iterations)
    low.w = _FnWriter(name, _RULE_FN_PARAMS[mode])
    low.sink = "_cl[0]"
    result = low.lower_action(action)
    low.w.emit(f"return {result}")
    module.add(low.w.lines)


class SourceRuleExec:
    """Generated fast/latency entry points for one rule.

    The call sites the engines use are ``fast(read)`` and
    ``latency(read, cell)``; each attribute is a plain generated function
    (``None`` for a mode that was not generated).  ``latency`` adds the rule's FSM cycles beyond the first
    to ``cell[0]`` (a one-element list): the constant and callable
    ``hw_cycles`` of its kernels and the ``read_latency`` of its memories,
    folded at generation, exactly as ``HwLatencyAccumulator`` counts them.
    """

    __slots__ = ("rule", "fast", "latency")

    def __init__(self, rule: Rule, fast=None, latency=None):
        self.rule = rule
        self.fast = fast
        self.latency = latency


def generate_rule_execs(
    rules: List[Rule],
    design_name: str,
    max_loop_iterations: int = 1_000_000,
    *,
    modes: Tuple[str, ...],
) -> Tuple[List[SourceRuleExec], Tuple[GeneratedModule, ...]]:
    """Generate flat executors for raw rule actions in ``modes``
    (``Simulator``: fast; ``HwEngine``: latency).

    Each rule is one ``<design_name>.rules`` unit holding ``_rule_<mode>``
    per mode, so its text is the same in every design that has the rule.
    """
    execs, units = [], []
    for rule in rules:
        module = _ModuleBuilder(f"{design_name}.rules", rule)
        for mode in modes:
            _lowering(
                rule,
                mode,
                lambda: _lower_rule_fn(
                    module, f"_rule_{mode}", rule.action, mode, max_loop_iterations
                ),
            )
        gen = module.build()
        units.append(gen)
        execs.append(
            SourceRuleExec(rule, **{mode: gen.namespace[f"_rule_{mode}"] for mode in modes})
        )
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
    rule its own ``<design_name>.attempts`` unit defining ``_attempt``."""
    units = []
    for rule in rules:
        module = _ModuleBuilder(f"{design_name}.attempts", rule)
        _lowering(
            rule,
            "count",
            lambda: _emit_attempt(
                module, "_attempt", compiled[rule], params, config, max_loop_iterations
            ),
        )
        units.append(module.build())
    return [gen.namespace["_attempt"] for gen in units], tuple(units)


def generate_sw_step(engine: Any, attempts: List[Callable]) -> GeneratedModule:
    """Fuse ``SwEngine.step`` into one generated function bound to ``engine``.

    Pre-binds only identity-stable collaborators (the wrapped store, the
    wakeup arrays, the fire-count / fail-cost dicts, the schedule's
    candidate cache); every field ``restore()`` rebinds is reached through
    ``self`` so resident serving keeps working.
    """
    module = _ModuleBuilder(f"{engine.name}.swstep")
    n = len(engine.rules)
    b = module.bindings
    b["_self"] = engine
    if n:
        wakeup = engine._wakeup
        b["_store"] = engine.store
        b["_read"] = engine.store.__getitem__
        b["_sleeping"] = wakeup.sleeping
        b["_index_of"] = wakeup.index_of
        b["_wakeup"] = wakeup
        b["_sleep"] = wakeup.sleep_index
        b["_candidates"] = engine.schedule.candidates
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
            "        _store.update(_pu)",
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
            "    for _rule in _candidates(_self._last_fired):",
            "        _i = _index_of[_rule]",
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
            "        _sleep(_i)",
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


def generate_hw_step(engine: Any, execs: Dict[Rule, Any]) -> GeneratedModule:
    """Compile ``HwEngine.step_cycle`` and the engine's static schedule into
    one generated function.

    Same pre-binding discipline as :func:`generate_sw_step`: the busy
    table, locked-count view, store and wakeup arrays keep their identity
    across ``restore()``; rebindable scalars go through ``self``.  The
    schedule is static, so the cycle is straight-line code:

    * **Candidates**, one block per rule in engine order, so kernel calls
      (and the kernel memo's FIFO) keep the reference order.  A rule is a
      candidate when it is not asleep and its write set misses the locked
      registers; a busy rule has locked its own write set, so only a rule
      with an empty write set needs the busy test.  Its ``latency``
      function (:class:`SourceRuleExec`) returns its updates and leaves its
      FSM latency in the charge cell; a ``GuardFail`` puts it to sleep.
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
      write set misses the registers locked when the cycle began.
    * **Busy-only cycles**: only candidates are put to sleep, so a busy rule
      is never asleep; when every rule is asleep or busy once due rules
      have finished, no rule is a candidate and the step returns at once.
    """
    module = _ModuleBuilder(f"{engine.name}.hwstep")
    rules = engine.rules
    n = len(rules)
    b = module.bindings
    b["_self"] = engine
    if not n:
        module.chunks.append("def step_cycle(now):\n    return False\n")
        return module.build()
    wakeup = engine._wakeup
    b.update(
        _store=engine.store,
        _read=engine.store.__getitem__,
        _sleeping=wakeup.sleeping,
        _sleep=wakeup.sleep_index,
        _wakeup=wakeup,
        _busy=engine.busy,
        _locked=engine._locked_count.keys(),
        _fire_counts=engine.fire_counts,
        _flush=engine._flush_pending_deliveries,
        _lock=engine._lock_rule,
        _unlock=engine._unlock_rule,
        _raise_missing=raise_for_missing_register,
        _cl=[0],
    )
    wsets = [engine._write_sets[rule] for rule in rules]
    rsets = [engine._read_sets[rule] for rule in rules]
    for i, rule in enumerate(rules):
        b[f"_R{i}"] = rule
        b[f"_L{i}"] = execs[rule].latency
        b[f"_W{i}"] = frozenset(wsets[i])

    def evaluate(i: int, indent: str, on_fail: List[str]) -> List[str]:
        return [
            f"{indent}_cl[0] = 0",
            f"{indent}try:",
            f"{indent}    _u{i} = _L{i}(_read, _cl)",
            f"{indent}    _l{i} = 1 + _cl[0]",
            f"{indent}except GuardFail:",
            f"{indent}    _sleep({i})",
        ] + [f"{indent}    {line}" for line in on_fail]

    body: List[str] = []
    for i, rule in enumerate(rules):
        if wsets[i]:
            free = f"(not _busy or _locked.isdisjoint(_W{i}))"
        else:
            free = f"_R{i} not in _busy"
        body += [f"# {rule.full_name}", f"_u{i} = None", f"if not _sleeping[{i}] and {free}:"]
        body += evaluate(i, "    ", [])

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
        lockers = [j for j in compatible if wsets[j] & wsets[k]]
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
            body += evaluate(k, "        ", [f"_u{k} = None"])
            body.append(f"    if _u{k} is not None:")
            indent = "        "
        fire = [
            f"_fire_counts[{rules[k].full_name!r}] += 1",
            "_self.total_firings += 1",
            "progress = True",
            f"if _l{k} <= 1:",
            f"    _store.update(_u{k})",
        ]
        if k in committed_ref:
            fire.append(f"    _m{k} = _u{k}")
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
        "            _store.update(_unlock(_r))",
        "            progress = True",
        "        _flush()",
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


def generate_transport_pump(
    data_reg,
    depth: int,
    producer_store,
    consumer_store,
    vc,
    direction,
    locked,
    charge_driver=None,
    occupancy_of=None,
    name: str = "route",
) -> Callable[[float], bool]:
    """Generate one producer-side transport route as ``pump(now) -> bool``.

    The pump launches as many queued elements as the consumer's credit
    window allows, in one batch: the window
    ``depth - consumer_occupancy - in_flight`` is computed once (occupancy
    cannot change mid-pump -- deliveries happen in a separate phase), the
    drained prefix is committed with one tuple re-slice, and each element
    is packed by the virtual channel's layout-compiled ``encode_batch``
    straight into the link's :class:`~repro.platform.channel.MessagePool`
    rings -- no per-message object.  Per-route constants (credit depth,
    words per element, occupancy and latency cycles, the vc id) are
    pre-bound names like the mutable collaborators (stores, pool rings,
    stats), so every route of one shape has the same text and compiles
    once.  Counters commit once per batch, while ``busy_cycles`` and due
    times accumulate per element, so results stay bitwise identical to
    the interpreted per-element transport
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
    b["_pstore"] = producer_store
    b["_cstore"] = consumer_store
    b["_dreg"] = data_reg
    b["_vc"] = vc
    b["_vcs"] = vc.stats
    b["_dir"] = direction
    b["_stats"] = direction.stats
    b["_per_vc"] = direction.stats.per_vc_messages
    b["_locked"] = locked
    b["_encode_batch"] = vc.encode_batch
    b["_note_stall"] = vc.note_credit_stall
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
    if occupancy_of is not None:
        b["_occ"] = occupancy_of
    if charge_driver is not None:
        b["_charge"] = charge_driver
    occ_expr = "_occ()" if occupancy_of is not None else "len(_cstore[_dreg])"
    lines = [
        "def pump(now):",
        "    _q = _pstore[_dreg]",
        "    if not _q:",
        "        return False",
        "    if _dreg in _locked():",
        "        return False",
        f"    _win = _depth - {occ_expr} - _vc.in_flight",
        "    if _win <= 0:",
        "        _note_stall()",
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
        "    for _ in range(_n):",
        "        _start = _busy if _busy > now else now",
        "        _busy = _start + _occupancy",
        "        _due_append(_busy + _latency)",
        "        _bc += _occupancy",
    ]
    if charge_driver is not None:
        lines.append("        _charge(_words, now)")
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
        "    _pstore[_dreg] = _q[_n:]",
        "    if _n < len(_q):",
        "        _note_stall()",
        "    return True",
    ]
    module.chunks.append("\n".join(lines) + "\n")
    return module.build().namespace["pump"]


def generate_transport_delivery(
    direction,
    vc_by_id,
    deliver,
    deliver_batch=None,
    charge_driver=None,
    name: str = "route",
) -> Callable[[float], bool]:
    """Generate one topology link's consumer side as ``deliver_due(now) -> bool``.

    Due messages are decoded in place from the link's pool rings (the
    virtual channel's layout-compiled ``decode``, no per-message object).
    With ``deliver_batch`` (hardware targets, whose parking condition
    cannot change mid-sweep) a run of same-vc messages lands as one
    endpoint append and commits its credit/stat updates once.  Software
    targets deliver per element with a ``charge_driver`` call each: every
    charge makes the engine busy, which parks the next delivery, so
    batching would change credit timing.
    """
    if deliver_batch is not None and charge_driver is not None:
        raise ValueError("deliver_batch and charge_driver are mutually exclusive")
    module = _ModuleBuilder(f"{name}.deliver")
    b = module.bindings
    pool = direction.pool
    b["_pool"] = pool
    b["_due"] = pool.due
    b["_vc_ids"] = pool.vc_ids
    b["_bounds"] = pool.bounds
    b["_pool_words"] = pool.words
    b["_info"] = {
        vc_id: (vc, vc.decode, vc.decode_run, vc.sync.data, vc.words_per_element)
        for vc_id, vc in vc_by_id.items()
    }
    if deliver_batch is not None:
        b["_deliver_batch"] = deliver_batch
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
            "        _vc, _decode, _decode_run, _data_reg, _words = _info[_vc_id]",
            "        _k = _j - _i",
            "        if _k == 1:",
            "            _items = (_decode(_pool_words, _start + 1),)",
            "        else:",
            "            _items = tuple(_decode_run(_pool_words, _start, _k))",
            "        _start = _bounds[_j - 1]",
            "        _deliver_batch(_data_reg, _items, now)",
            "        _vc.in_flight -= _k",
            "        _vc.stats.messages_delivered += _k",
            "        _i = _j",
            "    _pool.head = _cut",
            "    _pool.word_head = _start",
            "    return True",
        ]
    else:
        b["_deliver"] = deliver
        if charge_driver is not None:
            b["_charge"] = charge_driver
        lines = [
            "def deliver_due(now):",
            "    _head = _pool.head",
            "    _end = len(_due)",
            "    if _head >= _end:",
            "        return False",
            "    _start = _pool.word_head",
            "    _i = _head",
            "    while _i < _end and _due[_i] <= now:",
            "        _vc_id = _vc_ids[_i]",
            "        _vc, _decode, _decode_run, _data_reg, _words = _info[_vc_id]",
            "        _deliver(_data_reg, _decode(_pool_words, _start + 1), now)",
            "        _vc.on_deliver()",
        ]
        if charge_driver is not None:
            lines.append("        _charge(_words, now)")
        lines += [
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
    * a pump whose producer FIFO is empty;
    * the step of an engine without rules.

    Engine ``step`` / ``step_cycle`` attributes are read once per run, in
    the prologue, so wrappers installed after elaboration are the ones
    called.  ``checks`` (``(mapping, register, minimum)`` triples, or None)
    replaces the per-iteration ``done(fabric)`` call with inline
    ``mapping[register] >= minimum`` tests; ``done`` is still called
    wherever the interpreted loop calls it outside the loop top.  Returns
    the completion flag; an exhausted budget raises
    ``group.budget_error``.  The clock lives in a local and is written
    back to ``group.now`` on every change.
    """
    module = _ModuleBuilder(f"{name}.loop")
    bind = module.bind
    module.bindings["_group"] = group
    module.bindings["_fabric"] = group.fabric
    prologue: List[str] = []
    phases: List[str] = []
    for (direction, _target, _sw), deliver in zip(group.delivery_routes, group.deliver_fns):
        pool, due = bind(direction.pool, "q"), bind(direction.pool.due, "d")
        phases += [
            f"_h = {pool}.head",
            f"if _h < len({due}) and {due}[_h] <= now and {bind(deliver, 'f')}(now):",
            "    progress = True",
        ]
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
    for (sync, _vc, _engine, producer_store, *_rest), pump in zip(group.routes, group.pump_fns):
        phases += [
            f"if {bind(producer_store, 's')}[{bind(sync.data, 'r')}] "
            f"and {bind(pump, 'f')}(now):",
            "    progress = True",
        ]
    # The idle skip's running minimum visits the candidates in the order
    # the interpreted loop lists them, so ties resolve identically.
    scan: List[str] = []
    for pool in group._pools:
        p, due = bind(pool, "q"), bind(pool.due, "d")
        scan += [
            f"_h = {p}.head",
            f"if _h < len({due}) and (_nt is None or {due}[_h] < _nt):",
            f"    _nt = {due}[_h]",
        ]
    for engine in group.hw_engines:
        scan += [
            f"_t = {bind(engine, 'e')}._next_finish",
            "if _t is not None and (_nt is None or _t < _nt):",
            "    _nt = _t",
        ]
    for engine in group.sw_engines:
        e = bind(engine, "e")
        scan += [
            f"_t = {e}.busy_until",
            f"if (now < _t or {e}._pending_updates is not None) "
            "and (_nt is None or _t < _nt):",
            "    _nt = _t",
        ]
    body = "\n".join(
        ["def run(done, checks, max_cycles, max_iterations):"]
        + ["    " + line for line in prologue]
        + [
            "    now = _group.now",
            "    completed = False",
            "    iterations = 0",
            "    while now <= max_cycles and iterations < max_iterations:",
            "        iterations += 1",
            "        if checks is not None:",
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
            "        _nt = None",
        ]
        + ["        " + line for line in scan]
        + [
            "        if _nt is None:",
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
