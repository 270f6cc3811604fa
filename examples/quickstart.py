"""Quickstart: write a small BCL design, partition it, and co-simulate it.

This example builds the smallest interesting hardware/software codesign: a
software producer, a hardware compute kernel, and a software consumer, glued
together by two synchronizing FIFOs.  It then

1. runs the *unpartitioned* design under the reference one-rule-at-a-time
   semantics,
2. partitions it by domain and prints the generated HW/SW interface, and
3. co-simulates the partitioned system on the ML507 platform model and
   reports execution time in FPGA cycles.

Both runs must deliver the sum of the squares; the script exits non-zero
when either total is wrong or the co-simulation does not complete.

Run with:  python examples/quickstart.py
"""

from repro.core.action import par
from repro.core.domains import HW, SW
from repro.core.expr import BinOp, Const, KernelCall, RegRead
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module
from repro.core.partition import partition_design
from repro.core.synchronizers import SyncFifo
from repro.core.types import UIntT
from repro.codegen.interface import build_interface_spec
from repro.platform.platform import Platform
from repro.sim.cosim import Cosimulator

N_ITEMS = 16
#: The sum of the squares of the produced items.
EXPECTED_TOTAL = sum(i * i for i in range(N_ITEMS))


def build_design():
    """A producer (SW) -> square accelerator (HW) -> consumer (SW) pipeline."""
    top = Module("quickstart")
    sw_side = top.add_submodule(Module("sw_side", domain=SW))
    hw_side = top.add_submodule(Module("hw_side", domain=HW))

    # The partition boundary is expressed *in the source* with synchronizers.
    to_hw = top.add_submodule(SyncFifo("to_hw", UIntT(32), SW, HW, depth=2))
    to_sw = top.add_submodule(SyncFifo("to_sw", UIntT(32), HW, SW, depth=2))

    counter = sw_side.add_register("counter", UIntT(32), 0)
    total = sw_side.add_register("total", UIntT(32), 0)
    received = sw_side.add_register("received", UIntT(32), 0)

    sw_side.add_rule(
        "produce",
        par(
            to_hw.call("enq", RegRead(counter)),
            counter.write(BinOp("+", RegRead(counter), Const(1))),
        ).when(BinOp("<", RegRead(counter), Const(N_ITEMS))),
    )

    square = KernelCall(
        "square", lambda x: x * x, [to_hw.value("first")], sw_cycles=60, hw_cycles=4
    )
    hw_side.add_rule("accelerate", par(to_sw.call("enq", square), to_hw.call("deq")))

    sw_side.add_rule(
        "consume",
        par(
            total.write(BinOp("+", RegRead(total), to_sw.value("first"))),
            to_sw.call("deq"),
            received.write(BinOp("+", RegRead(received), Const(1))),
        ),
    )
    return Design(top, "quickstart"), total, received


def main():
    design, total, received = build_design()

    # 1. Reference semantics: one rule at a time, no timing.
    sim = Simulator(design)
    sim.run(10_000)
    print(f"[reference simulator] total = {sim.read(total)} (expected {EXPECTED_TOTAL})")

    # 2. Partition by domain and show the automatically generated interface.
    partitioning = partition_design(design, default_domain=SW)
    print()
    print(partitioning.summary())
    print()
    print(build_interface_spec(partitioning).report())

    # 3. Co-simulate on the embedded platform of the paper's evaluation.
    design2, total2, received2 = build_design()
    cosim = Cosimulator(design2, platform=Platform.ml507())
    result = cosim.run(lambda c: c.read_sw(received2) >= N_ITEMS)
    print()
    print(f"[co-simulation] {result.fpga_cycles:.0f} FPGA cycles, "
          f"{result.channel_messages} channel messages, "
          f"software busy {result.sw_busy_fpga_cycles:.0f} cycles")
    print(f"[co-simulation] total = {cosim.read_sw(total2)}")

    failures = [
        f"{where} total is {value}, expected {EXPECTED_TOTAL}"
        for where, value in (
            ("reference simulator", sim.read(total)),
            ("co-simulation", cosim.read_sw(total2)),
        )
        if value != EXPECTED_TOTAL
    ]
    if not result.completed:
        failures.append("co-simulation did not complete")
    if failures:
        raise SystemExit("quickstart: " + "; ".join(failures))


if __name__ == "__main__":
    main()
