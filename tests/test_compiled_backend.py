"""Differential tests: the source tier against the tree walker.

The tree-walking :class:`~repro.core.semantics.Evaluator` is the semantic
reference oracle; the source-lowered backend (:mod:`repro.core.pycodegen`),
paired with dirty-set scheduling (:class:`~repro.core.scheduler.RuleWakeup`),
must be *observationally equivalent*: identical final stores, identical
fire counts, identical guard-failure counts and identical cost statistics
-- on the reference simulator under every scheduling policy, and on the
full HW/SW co-simulation of both applications.  The kitchen-sink design
exercises every kernel-grammar construct, in every generation mode.
"""

from dataclasses import asdict

import pytest

from repro.core.action import IfA, LetA, LocalGuard, Loop, Par, RegWrite, Seq, WhenA, par, seq
from repro.core.expr import (
    BinOp,
    Const,
    FieldSelect,
    KernelCall,
    LetE,
    Mux,
    RegRead,
    UnOp,
    Var,
    WhenE,
)
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module
from repro.core.optimize import OptimizationConfig
from repro.core.primitives import Fifo, RegFile
from repro.core.types import BoolT, OpaqueT, RawStruct, StructT, UIntT
from repro.platform.platform import Platform
from repro.sim.cosim import Cosimulator
from repro.sim.swsim import SwEngine


# --------------------------------------------------------------------------
# design corpus
# --------------------------------------------------------------------------


def build_fifo_pipeline():
    """Producer/consumer over a FIFO: guards, primitive methods, Par."""
    top = Module("top")
    fifo = top.add_submodule(Fifo("q", UIntT(32), depth=2))
    cnt = top.add_register("cnt", UIntT(32), 0)
    total = top.add_register("total", UIntT(32), 0)
    top.add_rule(
        "produce",
        par(fifo.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
        .when(BinOp("<", RegRead(cnt), Const(17))),
    )
    top.add_rule(
        "consume",
        par(total.write(BinOp("+", RegRead(total), fifo.value("first"))), fifo.call("deq")),
    )
    return Design(top, name="fifo_pipeline")


#: A struct whose raw form the kitchen sink's field selects read.
NESTED_PAIR_T = StructT(
    "Outer", [("tag", UIntT(16)), ("pair", StructT("Pair", [("lo", UIntT(2)), ("hi", UIntT(2))]))]
)


def build_kitchen_sink():
    """One design touching every kernel-grammar construct.

    Loops, sequential composition, localGuard, non-strict lets, muxes,
    guarded expressions, field selects, kernel calls (constant and dynamic
    cost), a RegFile, and a user-module method with a guard.
    """
    top = Module("top")
    mem = top.add_submodule(RegFile("mem", UIntT(32), size=8, init=list(range(8))))
    helper = top.add_submodule(Module("helper"))
    hval = helper.add_register("hval", UIntT(32), 3)
    helper.add_method(
        "bump",
        "action",
        params=["x"],
        body=hval.write(BinOp("+", RegRead(hval), Var("x"))),
        guard=BinOp("<", RegRead(hval), Const(60)),
    )
    helper.add_method(
        "doubled",
        "value",
        params=[],
        body=BinOp("*", RegRead(hval), Const(2)),
        guard=Const(True),
    )

    i = top.add_register("i", UIntT(32), 0)
    acc = top.add_register("acc", UIntT(32), 0)
    flag = top.add_register("flag", BoolT(), False)
    scratch = top.add_register("scratch", UIntT(32), 0)

    kernel = KernelCall(
        "mix",
        lambda a, b: (a * 7 + b) & 0xFFFF,
        [RegRead(acc), RegRead(i)],
        sw_cycles=lambda a, b: 5 + (a & 3),
        hw_cycles=2,
    )
    top.add_rule(
        "step",
        seq(
            acc.write(kernel),
            scratch.write(
                LetE(
                    "t",
                    BinOp("+", RegRead(acc), Const(1)),
                    Mux(RegRead(flag), Var("t"), BinOp("*", Var("t"), Const(3))),
                )
            ),
            i.write(BinOp("+", RegRead(i), Const(1))),
        ).when(BinOp("<", RegRead(i), Const(9))),
    )
    top.add_rule(
        "toggle",
        par(
            flag.write(UnOp("!", RegRead(flag))),
            LocalGuard(WhenA(scratch.write(Const(0)), RegRead(flag))),
        ).when(BinOp("==", BinOp("%", RegRead(i), Const(3)), Const(1))),
        urgency=1,
    )
    top.add_rule(
        "memwork",
        Loop(
            BinOp("<", RegRead(scratch), Const(4)),
            seq(
                mem.call(
                    "upd",
                    RegRead(scratch),
                    BinOp("+", mem.value("sub", RegRead(scratch)), RegRead(i)),
                ),
                scratch.write(BinOp("+", RegRead(scratch), Const(1))),
            ),
            max_iterations=64,
        ).when(BinOp("==", RegRead(i), Const(5))),
    )
    # Field selects on both struct value forms: a dict and a raw struct.
    top.add_rule(
        "call_helper",
        helper.call(
            "bump",
            BinOp(
                "+",
                FieldSelect(KernelCall(
                    "pair", lambda a: {"lo": a & 0xF, "hi": a >> 4}, [RegRead(acc)], 2, 1
                ), "lo"),
                FieldSelect(FieldSelect(KernelCall(
                    "raw_pair",
                    lambda a: RawStruct(NESTED_PAIR_T, (a & 0xFFFF, a & 0x3, (a >> 2) & 0x3)),
                    [RegRead(acc)],
                    2,
                    1,
                ), "pair"), "hi"),
            ),
        ).when(BinOp(">", RegRead(i), Const(2))),
    )
    top.add_rule(
        "use_value_method",
        acc.write(WhenE(helper.value("doubled"), RegRead(flag)))
        .when(BinOp("==", RegRead(i), Const(7))),
    )
    return Design(top, name="kitchen_sink")


CORPUS = [build_fifo_pipeline, build_kitchen_sink]

#: The rule-execution backends; ``interp`` is the oracle.
BACKENDS = ("interp", "source")


def final_state(sim: Simulator):
    stores = {reg.full_name: sim.store[reg] for reg in sim.design.all_registers()}
    return stores, dict(sim.fire_counts), sim.firings, sim.guard_failures


# --------------------------------------------------------------------------
# reference simulator equivalence
# --------------------------------------------------------------------------


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("policy", ["round-robin", "priority", "random"])
    @pytest.mark.parametrize("builder", CORPUS, ids=lambda b: b.__name__)
    def test_backends_agree_under_every_policy(self, builder, policy):
        sims = {}
        for backend in BACKENDS:
            sim = Simulator(builder(), policy=policy, seed=1234, backend=backend)
            sim.run(500)
            sims[backend] = final_state(sim)
        assert sims["source"] == sims["interp"]

    @pytest.mark.parametrize("seed", [0, 7, 99, 1234])
    def test_randomized_schedules_agree(self, seed):
        """The random policy consumes its RNG identically in both backends."""
        results = {}
        for backend in BACKENDS:
            sim = Simulator(build_kitchen_sink(), policy="random", seed=seed, backend=backend)
            sim.run(500)
            results[backend] = final_state(sim)
        assert results["source"] == results["interp"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_field_select_reads_raw_structs(self, backend):
        """A field select on a raw struct reads the field by name: a leaf
        raw, or a raw struct over a nested struct's slice."""
        top = Module("top")
        value = RawStruct(NESTED_PAIR_T, (40000, 2, 3))
        src = top.add_register("src", OpaqueT(value))
        out = top.add_register("out", UIntT(32), 0)
        inner = top.add_register("inner", OpaqueT(None))
        top.add_rule(
            "select",
            par(
                out.write(
                    BinOp(
                        "+",
                        FieldSelect(RegRead(src), "tag"),
                        FieldSelect(FieldSelect(RegRead(src), "pair"), "hi"),
                    )
                ),
                inner.write(FieldSelect(RegRead(src), "pair")),
            ).when(BinOp("==", RegRead(out), Const(0))),
        )
        sim = Simulator(Design(top), backend=backend)
        assert sim.run(5) == 1
        assert sim.read(out) == 40003
        assert sim.read(inner) == {"lo": 2, "hi": 3}
        assert type(sim.read(inner)) is RawStruct

    def test_quiescence_and_wakeup(self):
        """Dirty-set sleeping must not miss a test-bench poke."""
        for backend in BACKENDS:
            top = Module("top")
            go = top.add_register("go", BoolT(), False)
            n = top.add_register("n", UIntT(32), 0)
            top.add_rule(
                "tick",
                par(n.write(BinOp("+", RegRead(n), Const(1))), go.write(Const(False)))
                .when(RegRead(go)),
            )
            sim = Simulator(Design(top), backend=backend)
            assert sim.run(10) == 0  # quiescent
            sim.write(go, True)  # external write must wake the rule
            assert sim.run(10) == 1
            assert sim.read(n) == 1

    def test_cost_hooks_identical_cpu_cycles(self):
        """The SW engine's generated counting attempts charge the cycles
        its cost hooks (``SwCostAccumulator``) charge on the tree walker,
        over the design that exercises every kernel-grammar construct."""
        totals = {}
        for backend in BACKENDS:
            design = build_kitchen_sink()
            engine = SwEngine(
                list(design.all_rules()), design.initial_store(), Platform.ml507(), backend=backend
            )
            for _ in range(400):
                engine.step(engine.busy_until)
            totals[backend] = (
                engine.cpu_cycles_total,
                engine.cpu_cycles_wasted,
                engine.total_firings,
                engine.guard_failures,
                dict(engine.fire_counts),
            )
        assert totals["source"] == totals["interp"]
        assert totals["interp"][2] > 0 and totals["interp"][3] > 0


# --------------------------------------------------------------------------
# full co-simulation equivalence (both applications)
# --------------------------------------------------------------------------


def _cosim_result(workload, backend, config=None):
    cosim = Cosimulator(
        workload.design, config=config or OptimizationConfig.all(), backend=backend
    )
    return cosim.run(workload.cosim_done, max_cycles=500_000_000)


class TestCosimEquivalence:
    """Every fig13 partition, interp against source, at 12 Vorbis frames and
    96 triangles at 5x5 (vorbis_G runs at 12 frames in test_fabric.py)."""

    @pytest.mark.parametrize("letter", ["A", "B", "C", "D", "E", "F"])
    def test_vorbis_partitions_bitwise_identical(self, letter):
        from repro.apps.vorbis import partitions as vp
        from repro.apps.vorbis.params import VorbisParams

        workload = vp.build_partition(letter, VorbisParams(n_frames=12))
        results = {b: _cosim_result(workload, b) for b in BACKENDS}
        assert asdict(results["source"]) == asdict(results["interp"])

    @pytest.mark.parametrize("letter", ["A", "B", "C", "D"])
    def test_raytracer_partitions_bitwise_identical(self, letter):
        from repro.apps.raytracer import partitions as rp
        from repro.apps.raytracer.params import RayTracerParams

        workload = rp.build_partition(
            letter, RayTracerParams(n_triangles=96, image_width=5, image_height=5)
        )
        results = {b: _cosim_result(workload, b) for b in BACKENDS}
        assert asdict(results["source"]) == asdict(results["interp"])

    @pytest.mark.parametrize("letter", ["B", "D"])
    def test_raytracer_single_triangle_leaves(self, letter):
        """At ``leaf_size=1`` LeafData and GeomReq carry a Vector#(1, Triangle)
        across the links; both backends render the reference image."""
        from repro.apps.raytracer import partitions as rp
        from repro.apps.raytracer.params import RayTracerParams
        from repro.apps.raytracer.reference import render

        params = RayTracerParams(n_triangles=24, image_width=4, image_height=4, leaf_size=1)
        workload = rp.build_partition(letter, params)
        results, checksums = {}, {}
        for backend in BACKENDS:
            cosim = Cosimulator(workload.design, config=OptimizationConfig.all(), backend=backend)
            results[backend] = cosim.run(workload.cosim_done, max_cycles=500_000_000)
            checksums[backend] = cosim.read_sw(workload.checksum)
        assert asdict(results["source"]) == asdict(results["interp"])
        assert results["source"].channel_words > 0
        assert checksums["source"] == checksums["interp"] == render(params).checksum

    @pytest.mark.parametrize(
        "config",
        [OptimizationConfig.none(), OptimizationConfig(True, False, True, True)],
        ids=["opt_none", "no_inlining"],
    )
    def test_unoptimised_rules_bitwise_identical(self, config):
        """The ablation configs exercise the try/catch + shadow cost paths."""
        from repro.apps.vorbis import partitions as vp
        from repro.apps.vorbis.params import VorbisParams

        workload = vp.build_partition("F", VorbisParams(n_frames=3))
        results = {b: _cosim_result(workload, b, config) for b in BACKENDS}
        assert asdict(results["source"]) == asdict(results["interp"])

    def test_final_stores_identical(self):
        """Beyond statistics: the committed architectural state must match."""
        from repro.apps.vorbis import partitions as vp
        from repro.apps.vorbis.params import VorbisParams

        workload = vp.build_partition("E", VorbisParams(n_frames=3))
        stores = {}
        for backend in BACKENDS:
            cosim = Cosimulator(workload.design, backend=backend)
            cosim.run(workload.cosim_done, max_cycles=500_000_000)
            stores[backend] = {
                reg.full_name: cosim.read(reg) for reg in workload.design.all_registers()
            }
        assert stores["source"] == stores["interp"]
