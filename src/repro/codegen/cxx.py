"""C++ code generation for software partitions (Section 6.2/6.3).

The generator emits one C++ class per module, one member function per rule,
and a ``run_scheduler`` driver.  The *structure* of the emitted rule bodies
depends on the optimisation configuration exactly as Figures 9 and 10
describe:

* without optimisation a rule body is a ``try { ... commit } catch { rollback }``
  block operating on shadow copies of every register it may touch;
* with guard lifting + inlining the rule first checks its hoisted guard, then
  executes in place, and only rules whose residual body can still fail keep
  an explicit ``goto rollback`` path with partial shadows.

The output is compilable-looking C++ text; the tests check its structural
properties (presence/absence of try/catch, shadow declarations, guard
checks) rather than compiling it, since the measured implementation in this
reproduction is the cost-modelled interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
from repro.core.guards import is_true_const
from repro.core.module import Design, Module, Rule
from repro.core.optimize import CompiledRule, OptimizationConfig, compile_rule
from repro.core.partition import PartitionedProgram
from repro.platform.marshal import layout_for, wire_header


def _cxx_expr(expr: Expr) -> str:
    """Render an expression as C++."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        return repr(expr.value) if not isinstance(expr.value, (int, float)) else str(expr.value)
    if isinstance(expr, Var):
        return expr.name.replace("$", "_")
    if isinstance(expr, RegRead):
        return f"{expr.reg.name}.read()"
    if isinstance(expr, UnOp):
        op = {"!": "!", "-": "-", "~": "~"}[expr.op]
        return f"({op}{_cxx_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({_cxx_expr(expr.left)} {expr.op} {_cxx_expr(expr.right)})"
    if isinstance(expr, Mux):
        return f"({_cxx_expr(expr.cond)} ? {_cxx_expr(expr.then)} : {_cxx_expr(expr.orelse)})"
    if isinstance(expr, WhenE):
        return f"bcl::when({_cxx_expr(expr.guard)}, {_cxx_expr(expr.body)})"
    if isinstance(expr, LetE):
        return f"[&]{{ auto {expr.name.replace('$', '_')} = {_cxx_expr(expr.value)}; return {_cxx_expr(expr.body)}; }}()"
    if isinstance(expr, FieldSelect):
        if isinstance(expr.field, int):
            return f"std::get<{expr.field}>({_cxx_expr(expr.operand)})"
        return f"{_cxx_expr(expr.operand)}.{expr.field}"
    if isinstance(expr, KernelCall):
        args = ", ".join(_cxx_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, MethodCallE):
        args = ", ".join(_cxx_expr(a) for a in expr.args)
        return f"{expr.instance.name}.{expr.method}({args})"
    raise TypeError(f"cannot render expression {expr!r} as C++")


def _cxx_action(action: Action, indent: str, shadow_suffix: str = "") -> List[str]:
    """Render an action as C++ statements."""
    lines: List[str] = []
    if isinstance(action, NoAction):
        return lines
    if isinstance(action, RegWrite):
        lines.append(f"{indent}{action.reg.name}{shadow_suffix}.write({_cxx_expr(action.value)});")
        return lines
    if isinstance(action, IfA):
        lines.append(f"{indent}if ({_cxx_expr(action.cond)}) {{")
        lines.extend(_cxx_action(action.then, indent + "  ", shadow_suffix))
        if action.orelse is not None:
            lines.append(f"{indent}}} else {{")
            lines.extend(_cxx_action(action.orelse, indent + "  ", shadow_suffix))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(action, WhenA):
        lines.append(f"{indent}if (!({_cxx_expr(action.guard)})) throw GuardFailure();")
        lines.extend(_cxx_action(action.body, indent, shadow_suffix))
        return lines
    if isinstance(action, (Par, Seq)):
        for sub in action.actions:
            lines.extend(_cxx_action(sub, indent, shadow_suffix))
        return lines
    if isinstance(action, LetA):
        lines.append(
            f"{indent}auto {action.name.replace('$', '_')} = {_cxx_expr(action.value)};"
        )
        lines.extend(_cxx_action(action.body, indent, shadow_suffix))
        return lines
    if isinstance(action, Loop):
        lines.append(f"{indent}while ({_cxx_expr(action.cond)}) {{")
        lines.extend(_cxx_action(action.body, indent + "  ", shadow_suffix))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(action, LocalGuard):
        lines.append(f"{indent}try {{")
        lines.extend(_cxx_action(action.body, indent + "  ", shadow_suffix))
        lines.append(f"{indent}}} catch (GuardFailure&) {{ /* localGuard: noAction */ }}")
        return lines
    if isinstance(action, MethodCallA):
        args = ", ".join(_cxx_expr(a) for a in action.args)
        lines.append(f"{indent}{action.instance.name}{shadow_suffix}.{action.method}({args});")
        return lines
    raise TypeError(f"cannot render action {action!r} as C++")


def generate_rule(compiled: CompiledRule) -> str:
    """Generate the C++ member function of one rule.

    Returns the Figure-9 style (try/catch over full shadows) or Figure-10
    style (guard check up front, goto rollback, partial shadows) depending on
    the compiled rule's optimisation configuration.
    """
    rule = compiled.rule
    config = compiled.config
    lines: List[str] = [f"bool {rule.name}() {{"]

    if config.lift_guards and not is_true_const(compiled.guard):
        lines.append(f"  if (!({_cxx_expr(compiled.guard)})) return false;  // lifted guard")

    if not compiled.can_fail:
        # In-place execution: no shadows, no exception handling at all.
        lines.extend(_cxx_action(compiled.body, "  "))
        lines.append("  return true;")
        lines.append("}")
        return "\n".join(lines)

    shadows = sorted(reg.name for reg in compiled.shadow_registers)
    for name in shadows:
        lines.append(f"  auto {name}_s = {name}.shadow();")

    if config.inline_methods:
        # Figure 10: explicit branch to rollback, no try/catch.
        lines.append("  // inlined methods: guard failures branch to rollback")
        body = _cxx_action(compiled.body, "  ", shadow_suffix="_s")
        body = [line.replace("throw GuardFailure();", "goto rollback;") for line in body]
        lines.extend(body)
        for name in shadows:
            lines.append(f"  {name}.commit({name}_s);")
        lines.append("  return true;")
        lines.append("rollback:")
        for name in shadows:
            lines.append(f"  {name}_s.rollback({name});")
        lines.append("  return false;")
    else:
        # Figure 9: try/catch with commit in the try block and rollback in the catch.
        lines.append("  try {")
        lines.extend(_cxx_action(compiled.body, "    ", shadow_suffix="_s"))
        for name in shadows:
            lines.append(f"    {name}.commit({name}_s);")
        lines.append("    return true;")
        lines.append("  } catch (GuardFailure&) {")
        for name in shadows:
            lines.append(f"    {name}_s.rollback({name});")
        lines.append("    return false;")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def generate_module_class(module: Module, compiled: Dict[Rule, CompiledRule]) -> str:
    """Generate one C++ class for a module (state members + rule member functions)."""
    lines = [f"class {module.name} {{", "public:"]
    for reg in module.registers:
        lines.append(f"  bcl::Reg<{reg.ty!r}> {reg.name};")
    for sub in module.submodules:
        lines.append(f"  {sub.name} {sub.name}_inst;")
    lines.append("")
    for rule in module.rules:
        if rule in compiled:
            body = generate_rule(compiled[rule])
            lines.extend("  " + line for line in body.splitlines())
            lines.append("")
    lines.append("};")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# C marshaling loops (rendered from the canonical MessageLayout)
# --------------------------------------------------------------------------


def _c_hex(value: int, word_bits: int) -> str:
    """A fixed-width unsigned hex literal for one link word."""
    digits = (word_bits + 3) // 4
    suffix = "u" if word_bits <= 32 else "ull"
    return f"0x{value:0{digits}X}{suffix}"


def generate_field_macros(ch, macro_prefix: str = "BCL") -> List[str]:
    """Per-field position macros of one channel's payload packing.

    Rendered from the channel type's :class:`~repro.platform.marshal.MessageLayout`:
    for every leaf field its LSB offset and width within the payload bit
    vector, plus the element stride of repeated (vector) fields -- the
    constants a hand-written C implementation needs to address packed
    fields without re-deriving the layout.  Scalar fields that land inside
    one payload word additionally get ``_WORD``/``_SHIFT`` macros (from the
    layout's :meth:`~repro.platform.marshal.MessageLayout.word_spans`), so
    ``(payload[WORD] >> SHIFT) & mask`` reads them directly.  Channels
    without a concrete type (synthetic specs) render nothing.
    """
    if getattr(ch, "ty", None) is None:
        return []
    layout = layout_for(ch.ty, ch.word_bits)
    spans = {}
    for span in layout.word_spans(max_instances=1):
        spans.setdefault(span.path, []).append(span)
    lines: List[str] = []
    stem = f"{macro_prefix}_{ch.macro.upper()}"
    for leaf in layout.fields:
        field = leaf.path.replace("[*]", "").replace(".", "_").replace("[", "_").replace("]", "")
        field = field.strip("_").upper() or "VALUE"
        lines.append(f"#define {stem}_{field}_LSB {leaf.bit_offset}")
        lines.append(f"#define {stem}_{field}_BITS {leaf.bit_width}")
        if leaf.count > 1:
            lines.append(f"#define {stem}_{field}_COUNT {leaf.count}")
            lines.append(f"#define {stem}_{field}_STRIDE {leaf.stride}")
        elif len(spans.get(leaf.path, ())) == 1:
            span = spans[leaf.path][0]
            lines.append(f"#define {stem}_{field}_WORD {span.word}")
            lines.append(f"#define {stem}_{field}_SHIFT {span.shift}")
    return lines


def generate_pack_function(ch, word_ty: str, fn_prefix: str) -> List[str]:
    """The C pack loop of one channel: frame a payload into a wire message.

    The header word is a compile-time constant (a channel's payload length
    is fixed by its type), taken from the same
    :func:`~repro.platform.marshal.wire_header` formula the simulator's
    dataplane stamps on every message -- the two layers cannot disagree.
    """
    header = _c_hex(wire_header(ch.vc_id, ch.payload_words), ch.word_bits)
    n, m = ch.payload_words, ch.message_words
    return [
        f"/* marshal one {ch.name} element: header + {n} payload word(s) */",
        f"static inline void {fn_prefix}_pack_{ch.macro}({word_ty} msg[{m}], "
        f"const {word_ty} payload[{n}]) {{",
        f"  msg[0] = {header};  /* wire vc {ch.vc_id}, length {n} */",
        f"  for (unsigned i = 0; i < {n}u; ++i) {{",
        "    msg[1u + i] = payload[i];",
        "  }",
        "}",
    ]


def generate_unpack_function(ch, word_ty: str, fn_prefix: str) -> List[str]:
    """The C unpack loop of one channel: validate the header, copy the payload.

    A header mismatch (wrong vc or length) returns ``-1`` without touching
    the output buffer -- the loud failure Section 2.3 argues for instead of
    silently reinterpreting bytes.
    """
    header = _c_hex(wire_header(ch.vc_id, ch.payload_words), ch.word_bits)
    n, m = ch.payload_words, ch.message_words
    return [
        f"/* demarshal one {ch.name} message; returns 0, or -1 on a header mismatch */",
        f"static inline int {fn_prefix}_unpack_{ch.macro}(const {word_ty} msg[{m}], "
        f"{word_ty} payload[{n}]) {{",
        f"  if (msg[0] != {header}) {{",
        "    return -1;  /* wrong vc or length: reject, do not reinterpret */",
        "  }",
        f"  for (unsigned i = 0; i < {n}u; ++i) {{",
        "    payload[i] = msg[1u + i];",
        "  }",
        "  return 0;",
        "}",
    ]


def _endpoint_lines(program: PartitionedProgram, spec) -> List[str]:
    """Synchronizer endpoint stubs, resolved against the link-granular spec.

    One send stub per out-endpoint and one receive stub per in-endpoint,
    each annotated with the point-to-point link its route is mapped onto,
    the channel's slot in that link's own virtual-channel numbering and the
    transactor implementing it (declared in the per-domain C header).
    """
    lines: List[str] = []
    endpoints = [(s, "send") for s in program.produces_to] + [
        (s, "recv") for s in program.consumes_from
    ]
    for sync, verb in endpoints:
        ch = spec.channel(sync.name)
        annotation = spec.endpoint_annotation(sync.name, verb)
        if ch is None or annotation is None:
            continue
        if not lines:
            lines.append("// Synchronizer endpoints (link-granular interface):")
        lines.append(f"//   bcl_{verb}_{ch.macro}: {annotation}")
    if lines:
        lines.append("")
    return lines


def generate_sw_partition(
    design: Design,
    program: Optional[PartitionedProgram] = None,
    config: Optional[OptimizationConfig] = None,
    spec=None,
    partitioning=None,
    domain=None,
) -> str:
    """Generate the complete C++ translation unit for one software partition.

    When ``program`` is ``None`` the whole design is treated as software
    (the paper's full-software use case); alternatively pass
    ``partitioning`` and a ``domain`` to resolve the slice here.  With an
    :class:`~repro.codegen.interface.InterfaceSpec` in ``spec`` the
    partition's synchronizer endpoints are documented against the
    link-granular interface (which link, which per-link virtual channel,
    which transactor).
    """
    if program is None and partitioning is not None and domain is not None:
        program = partitioning.program(domain)
    config = config or OptimizationConfig.all()
    rules = program.rules if program is not None else design.all_rules()
    # Only this partition's rules are emitted, so only they are compiled;
    # the register list is the software engine's memo key, so a fabric of
    # the same design reuses these compilations.
    all_registers = design.all_registers()
    compiled = {rule: compile_rule(rule, config, all_registers) for rule in rules}
    modules = (
        program.modules
        if program is not None and program.modules
        else [m for m in design.all_modules() if m.rules]
    )

    header = [
        "// Generated by the BCL software compiler",
        f"// design: {design.name}",
        f"// optimisations: {config.describe()}",
        '#include "bcl_runtime.h"',
        "",
    ]
    body: List[str] = []
    if spec is not None and program is not None:
        body.extend(_endpoint_lines(program, spec))
    for module in modules:
        module_compiled = {r: c for r, c in compiled.items() if r.module is module}
        if module.rules:
            body.append(generate_module_class(module, module_compiled))
            body.append("")

    scheduler = ["int run_scheduler() {", "  bool any = true;", "  while (any) {", "    any = false;"]
    for rule in rules:
        scheduler.append(f"    any |= {rule.module.name}_inst.{rule.name}();")
    scheduler.extend(["  }", "  return 0;", "}"])
    return "\n".join(header + body + scheduler) + "\n"
