"""Seeded-defect corpus for the static design verifier.

One deliberately broken design per diagnostic code: each builder returns a
minimal elaborated :class:`~repro.core.module.Design` whose only defect is
the one its code names, so ``verify_design`` must fire **exactly** that
code on it (pinned by ``tests/test_analysis_verifier.py``).  The fabric
builders at the bottom seed the two snapshot-audit defects on a live
two-domain co-simulator.

These are the negative controls of the lint gate: the clean-pass test
proves the verifier accepts every shipped workload, this corpus proves it
is actually *looking*.
"""

import random

from repro.core.action import par
from repro.core.domains import HW, SW
from repro.core.expr import FALSE, BinOp, Const, KernelCall, RegRead
from repro.core.module import Design, Module
from repro.core.synchronizers import SyncFifo
from repro.core.types import UIntT


def build_foreign_read() -> Design:
    """REPRO-E001: a software rule reads hardware-owned state directly."""
    top = Module("foreign_read")
    hw_mod = top.add_submodule(Module("hw", domain=HW))
    sw_mod = top.add_submodule(Module("sw", domain=SW))
    secret = hw_mod.add_register("secret", UIntT(32), 7)
    mirror = sw_mod.add_register("mirror", UIntT(32), 0)
    sw_mod.add_rule("peek", mirror.write(RegRead(secret)))
    return Design(top)


def build_write_race() -> Design:
    """REPRO-E002: two domains write one register with no synchronizer.

    The register's module carries no domain annotation and each rule is
    explicitly domain-annotated, so per-rule inference succeeds -- the
    defect only exists at the whole-design level the race check sees.
    """
    top = Module("write_race")
    shared = top.add_register("shared", UIntT(32), 0)
    top.add_rule("hw_store", shared.write(Const(1)), domain=HW)
    top.add_rule("sw_store", shared.write(Const(2)), domain=SW)
    return Design(top)


def build_credit_cycle() -> Design:
    """REPRO-E003: two channels whose drains atomically require each other.

    ``bounce`` (HW) drains ping while filling pong; ``echo`` (SW) drains
    pong while filling ping.  Both credit windows are finite, and the
    ``inject`` rule fills ping without draining anything, so the windows
    can fill and then neither coupled rule can ever fire again.
    """
    top = Module("credit_cycle")
    sw_mod = top.add_submodule(Module("sw", domain=SW))
    ping = top.add_submodule(SyncFifo("ping", UIntT(32), SW, HW, depth=2))
    pong = top.add_submodule(SyncFifo("pong", UIntT(32), HW, SW, depth=2))
    cnt = sw_mod.add_register("cnt", UIntT(32), 0)
    top.add_rule(
        "inject",
        par(
            ping.call("enq", RegRead(cnt)),
            cnt.write(BinOp("+", RegRead(cnt), Const(1))),
        ).when(BinOp("<", RegRead(cnt), Const(8))),
    )
    top.add_rule("bounce", par(pong.call("enq", ping.value("first")), ping.call("deq")))
    top.add_rule("echo", par(ping.call("enq", pong.value("first")), pong.call("deq")))
    return Design(top)


def build_const_false_guard() -> Design:
    """REPRO-W004: a guard the optimiser folds to constant false."""
    top = Module("const_false")
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule("never", out.write(Const(1)).when(FALSE))
    return Design(top)


def build_frozen_guard() -> Design:
    """REPRO-W005: a rejecting guard whose support no rule ever writes.

    ``flag`` is read by ``frozen``'s guard but written by nothing, so the
    dirty-set wakeup index would put the rule to sleep forever after its
    first rejection.  ``tick`` keeps the design's write set non-empty (the
    check must test disjointness, not emptiness).
    """
    top = Module("frozen_guard")
    flag = top.add_register("flag", UIntT(1), 0)
    acc = top.add_register("acc", UIntT(32), 0)
    cnt = top.add_register("cnt", UIntT(32), 0)
    top.add_rule("frozen", acc.write(Const(1)).when(RegRead(flag)))
    top.add_rule("tick", cnt.write(BinOp("+", RegRead(cnt), Const(1))))
    return Design(top)


_SCRATCH = []


def _leaky_kernel(x):
    _SCRATCH.append(x)
    return (x + 1) & 0xFFFFFFFF


def build_mutating_kernel() -> Design:
    """REPRO-E006: a foreign kernel mutates state outside its arguments."""
    top = Module("mutating_kernel")
    src = top.add_register("src", UIntT(32), 3)
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule(
        "apply",
        out.write(KernelCall("leaky", _leaky_kernel, [RegRead(src)])),
    )
    return Design(top)


def _noisy_kernel(x):
    return (x + int(random.random() * 4)) & 0xFFFFFFFF


def build_nondeterministic_kernel() -> Design:
    """REPRO-E007: a foreign kernel draws on a nondeterminism source."""
    top = Module("nondet_kernel")
    src = top.add_register("src", UIntT(32), 3)
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule(
        "apply",
        out.write(KernelCall("noisy", _noisy_kernel, [RegRead(src)])),
    )
    return Design(top)


#: code -> builder of a design whose ONLY defect is that code.
DESIGN_FIXTURES = {
    "REPRO-E001": build_foreign_read,
    "REPRO-E002": build_write_race,
    "REPRO-E003": build_credit_cycle,
    "REPRO-W004": build_const_false_guard,
    "REPRO-W005": build_frozen_guard,
    "REPRO-E006": build_mutating_kernel,
    "REPRO-E007": build_nondeterministic_kernel,
}


# -- live-fabric fixtures for the snapshot audit ------------------------------


def _clean_two_domain_fabric():
    from repro.sim.cosim import Cosimulator

    top = Module("audit_probe")
    producer = top.add_submodule(Module("producer", domain=SW))
    consumer = top.add_submodule(Module("consumer", domain=HW))
    q = top.add_submodule(SyncFifo("q", UIntT(32), SW, HW, depth=2))
    cnt = producer.add_register("cnt", UIntT(32), 0)
    acc = consumer.add_register("acc", UIntT(32), 0)
    producer.add_rule(
        "produce",
        par(
            q.call("enq", RegRead(cnt)),
            cnt.write(BinOp("+", RegRead(cnt), Const(1))),
        ).when(BinOp("<", RegRead(cnt), Const(4))),
    )
    consumer.add_rule(
        "consume",
        par(acc.write(BinOp("+", RegRead(acc), q.value("first"))), q.call("deq")),
    )
    return Cosimulator(Design(top))


def build_snapshot_gap_fabric():
    """REPRO-E008: a mutable engine field snapshot() knows nothing about."""
    sim = _clean_two_domain_fabric()
    sim.sw._forgotten_counter = 0
    return sim
