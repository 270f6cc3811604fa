"""Cost models for the generated software and hardware implementations.

The evaluation reports execution times in FPGA cycles.  The hardware side is
cycle-accurate by construction (one rule firing per clock, multi-cycle
kernels occupy their rule for their latency).  The software side models the
generated C++ of Section 6.2/6.3: every rule attempt pays a scheduling
overhead, guard evaluation costs whatever the guard expression touches, and
-- depending on which optimisations are enabled -- a rule execution
additionally pays for try/catch setup, shadow-state creation, commit and
rollback.  The constants live in :class:`SwCostParams` so ablation
benchmarks can vary them; the defaults are calibrated to the PPC440-class
embedded processor of the paper's platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.expr import BinOp, FieldSelect, KernelCall, Mux, UnOp
from repro.core.module import Module, PrimitiveModule, Register
from repro.core.semantics import EvalHooks

#: AST nodes that cost one ALU operation when evaluated (all other nodes are
#: structural and free).
COSTED_NODES = (BinOp, UnOp, Mux, FieldSelect)


@dataclass(frozen=True)
class SwCostParams:
    """CPU-cycle costs of the software runtime's primitive operations."""

    #: Cost of the scheduler selecting and dispatching one rule attempt.
    rule_attempt_overhead: int = 12
    #: Cost per register read / write reached during evaluation.
    reg_read: int = 2
    reg_write: int = 2
    #: Cost per primitive ALU operation / mux / comparison.
    alu_op: int = 1
    #: Call overhead of a (non-inlined) user-module method invocation.
    method_call_overhead: int = 8
    #: Call overhead of a primitive (FIFO, RegFile, wire) method invocation.
    native_method_overhead: int = 6
    #: Dispatch overhead of a foreign compute kernel (argument marshaling etc.).
    kernel_dispatch: int = 4
    #: Extra cost per access to an indexed memory (RegFile) -- processor-side
    #: memories live in cached DRAM, not registers.
    regfile_access: int = 10
    #: Cost of setting up a C++ try/catch block around a rule body (Figure 9).
    try_catch_setup: int = 60
    #: Cost of the explicit branch-to-rollback handling used once methods are
    #: inlined and try/catch can be avoided (Figure 10).
    branch_guard_handling: int = 6
    #: Cost of creating shadow state, per shadowed register.
    shadow_per_register: int = 14
    #: Cost of committing one shadowed register back to the live state.
    commit_per_register: int = 8
    #: Base cost of a rollback after a mid-rule guard failure.
    rollback_base: int = 40
    #: Cost of rolling back one shadowed register.
    rollback_per_register: int = 6
    #: Fixed processor-side cost of launching or receiving one channel message
    #: (driver call, DMA descriptor setup, cache management).  Hardware-side
    #: marshaling is dedicated logic and is modelled as free.
    driver_per_message: int = 500
    #: Processor-side marshaling cost per transferred channel word (packing /
    #: copying into or out of the DMA buffer).
    driver_per_word: int = 5


class SwCostAccumulator(EvalHooks):
    """Accumulates CPU cycles while the evaluator walks a rule.

    One accumulator is used per rule attempt; the engine reads
    :attr:`cpu_cycles` afterwards and decides what to add for shadowing,
    commit or rollback based on the rule's compiled form.
    """

    def __init__(self, params: SwCostParams):
        self.params = params
        self.cpu_cycles = 0
        self.kernel_cycles = 0
        self.guard_failed = False
        self.nodes_visited = 0

    def on_node(self, node) -> None:
        self.nodes_visited += 1
        # Arithmetic-ish nodes; structural nodes (Seq/Par/Let/...) are free.
        if isinstance(node, COSTED_NODES):
            self.cpu_cycles += self.params.alu_op

    def on_kernel(self, kernel: KernelCall, arg_values: Sequence[Any]) -> None:
        cost = kernel.cost("sw", arg_values)
        self.kernel_cycles += cost
        self.cpu_cycles += cost + self.params.kernel_dispatch

    def on_method(self, module: Module, method: str) -> None:
        if isinstance(module, PrimitiveModule):
            self.cpu_cycles += self.params.native_method_overhead
            if hasattr(module, "read_latency"):
                self.cpu_cycles += self.params.regfile_access
        else:
            self.cpu_cycles += self.params.method_call_overhead

    def on_guard_fail(self, node) -> None:
        self.guard_failed = True

    def on_register_read(self, reg: Register) -> None:
        self.cpu_cycles += self.params.reg_read

    def on_register_write(self, reg: Register) -> None:
        self.cpu_cycles += self.params.reg_write


class HwLatencyAccumulator(EvalHooks):
    """Computes the latency, in FPGA cycles, of one hardware rule firing.

    A rule is combinational (1 cycle) unless it invokes multi-cycle kernels
    or indexed memories; kernel latencies add up (they execute within the
    rule's FSM), and each memory access contributes its ``read_latency``.
    """

    def __init__(self):
        self.extra_cycles = 0

    def on_kernel(self, kernel: KernelCall, arg_values: Sequence[Any]) -> None:
        self.extra_cycles += max(0, kernel.cost("hw", arg_values) - 1)

    def on_method(self, module: Module, method: str) -> None:
        read_latency = getattr(module, "read_latency", None)
        if read_latency is not None and read_latency > 1:
            self.extra_cycles += read_latency - 1

    @property
    def latency(self) -> int:
        return 1 + self.extra_cycles
