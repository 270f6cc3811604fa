"""Unit tests for the source-lowering tier's debuggability contract.

The generated modules are first-class debuggable artifacts: they can be
dumped to disk (``REPRO_DUMP_SOURCE`` or :meth:`GeneratedModule.dump`),
tracebacks through generated code show the real generated source lines
(linecache registration), and generation is deterministic -- the same
design elaborates to byte-identical source every time.

The generated group loops also keep the interpreted loop's contract: step
wrappers installed after elaboration run, an exhausted budget raises the
same error, and inline done thresholds read what ``CosimFabric.read`` would.

There is no fallback tier: a node the lowerer cannot translate fails
elaboration loudly, and the default backend is validated, never guessed.
"""

import linecache
import traceback
from dataclasses import asdict

import pytest

from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.core import expr as expr_mod
from repro.core.action import par
from repro.core.errors import ElaborationError, SimulationError
from repro.core.expr import BinOp, Const, KernelCall, RegRead, UnOp
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module
from repro.core.pycodegen import VALID_BACKENDS, default_rule_backend, generate_rule_execs
from repro.core.types import UIntT
from repro.platform.platform import Platform
from repro.sim.cosim import CosimFabric, Cosimulator, ThresholdDone
from repro.sim.costmodel import SwCostAccumulator
from repro.sim.distrib import run_distributed
from repro.sim.hwsim import HwEngine
from repro.sim.pool import PoolTask
from repro.sim.swsim import SwEngine
from repro.sim.serve import FabricServer, Request, serve_fresh
from repro.sim.shard import GroupTask, SweepTask, run_grouped

from test_compiled_backend import build_fifo_pipeline, build_kitchen_sink


def _source_sim(builder=build_fifo_pipeline):
    return Simulator(builder(), backend="source")


# --------------------------------------------------------------------------
# dumping generated source
# --------------------------------------------------------------------------


class TestDumpSource:
    def test_env_var_dumps_on_generation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path))
        sim = _source_sim()
        dumped = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".py") for name in dumped)
        # The dumped text is exactly the module that was exec'd.
        expected = sim._gen.source
        assert any(
            p.read_text() == expected for p in tmp_path.iterdir() if p.suffix == ".py"
        )

    def test_explicit_dump_returns_sanitised_path(self, tmp_path):
        sim = _source_sim()
        path = sim._gen.dump(str(tmp_path))
        assert path.endswith(".py")
        with open(path) as fh:
            assert fh.read() == sim._gen.source
        # Only filename-safe characters survive sanitisation.
        name = path.rsplit("/", 1)[-1]
        assert all(c.isalnum() or c in "._-" for c in name)

    def test_no_dump_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DUMP_SOURCE", raising=False)
        _source_sim()
        assert list(tmp_path.iterdir()) == []

    def test_designs_sharing_engine_names_dump_one_file_per_module(
        self, tmp_path, monkeypatch
    ):
        """vorbis_B and raytracer_B both have engines named ``HW`` and
        ``SW``; elaborated in one process, neither overwrites the other's
        dumps."""
        from repro.apps.raytracer import partitions as rp
        from repro.apps.raytracer.params import RayTracerParams
        from repro.core import pycodegen

        modules = []
        original = pycodegen.GeneratedModule.__init__

        def record(self, *args, **kwargs):
            original(self, *args, **kwargs)
            modules.append(self)

        monkeypatch.setattr(pycodegen.GeneratedModule, "__init__", record)
        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path / "dump"))
        names = []
        for workload in (
            vp.build_partition("B", VorbisParams(n_frames=2)),
            rp.build_partition("B", RayTracerParams(n_triangles=24, image_width=3, image_height=3)),
        ):
            first = len(modules)
            CosimFabric(workload.design, backend="source")
            names.append({m.name for m in modules[first:]})
        assert {"HW.hwstep", "SW.swstep"} <= names[0] & names[1]

        dumped = {p.name: p.read_text() for p in (tmp_path / "dump").iterdir()}
        assert len(dumped) == len({(m.name, m.source) for m in modules})
        for module in modules:
            fname = module.dump(str(tmp_path / "again")).rsplit("/", 1)[-1]
            assert fname.endswith("." + module.name.rsplit(".", 1)[1] + ".py")
            assert dumped[fname] == module.source


# --------------------------------------------------------------------------
# tracebacks through generated code
# --------------------------------------------------------------------------


def build_exploding_design():
    top = Module("top")
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule(
        "boom",
        out.write(KernelCall("explode", lambda: 1 // 0, [], 1, 1)).when(Const(True)),
    )
    return Design(top, name="exploding")


class TestTracebacks:
    def test_traceback_shows_generated_source_lines(self):
        sim = Simulator(build_exploding_design(), backend="source")
        try:
            sim.run(5)
            raise AssertionError("kernel should have raised")
        except ZeroDivisionError:
            tb = traceback.format_exc()
        # The generated frame is attributed to its pseudo-filename...
        assert 'File "<repro-generated:exploding.rules' in tb
        # ...and linecache resolves the actual generated line under it:
        # the source line shown in the traceback is real generated code.
        frame_lines = [
            line.strip()
            for line, prev in zip(tb.splitlines()[1:], tb.splitlines())
            if "<repro-generated:" in prev
        ]
        assert frame_lines
        assert all(line in sim._gen.source for line in frame_lines)

    def test_linecache_registration(self):
        sim = _source_sim(build_kitchen_sink)
        gen = sim._gen
        assert linecache.getlines(gen.filename) == gen.source.splitlines(True)


# --------------------------------------------------------------------------
# deterministic generation
# --------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize(
        "builder", [build_fifo_pipeline, build_kitchen_sink], ids=lambda b: b.__name__
    )
    def test_same_design_generates_identical_source(self, builder):
        first = Simulator(builder(), backend="source")._gen
        second = Simulator(builder(), backend="source")._gen
        assert first.source == second.source
        assert first.filename == second.filename

    @pytest.mark.parametrize(
        "build",
        [
            lambda: vp.build_partition("B", VorbisParams(n_frames=2)),
            lambda: vp.build_group_partition("BC", VorbisParams(n_frames=2)),
        ],
        ids=["vorbis_B", "vorbis_mg_BC"],
    )
    def test_fabric_supersteps_deterministic(self, build):
        sources = []
        for _ in range(2):
            fabric = CosimFabric(build().design, backend="source")
            per_engine = {}
            for domain in fabric.domains:
                engine = fabric.engine(domain.name)
                per_engine[domain.name] = (
                    engine._gen.source if engine._gen is not None else None,
                    engine._step_gen.source if engine._step_gen is not None else None,
                )
            # One generated loop per group: pseudo-filename (content digest)
            # and source text.
            per_engine["group loops"] = [
                (group._loop_gen.filename, group._loop_gen.source) for group in fabric._groups
            ]
            sources.append(per_engine)
        assert len(sources[0]["group loops"]) == fabric.group_count
        assert sources[0] == sources[1]


# --------------------------------------------------------------------------
# generated group loops
# --------------------------------------------------------------------------

VORBIS = VorbisParams(n_frames=3)

#: (id, builder, args, server options): a single-group two-partition design
#: and a two-group design.
GROUP_WORKLOADS = [
    ("vorbis_B", vp.build_partition, ("B", VORBIS), {}),
    ("vorbis_mg_BC", vp.build_group_partition, ("BC", VORBIS), {"fabric_kind": "fabric"}),
]


def _frame_request(workload, start):
    """A request on the design's first (or only) pipeline."""
    pipe = workload.pipes[0] if hasattr(workload, "pipes") else workload
    return pipe.frame_request(start)


def _assert_served_equal(results):
    first = results[0]
    for other in results[1:]:
        assert asdict(other.result) == asdict(first.result)
        assert other.outputs == first.outputs


class TestGroupLoop:
    def test_source_transport_generates_one_loop_per_group(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path))
        wl = vp.build_group_partition("BC", VORBIS)
        fabric = CosimFabric(wl.design, backend="source")
        gens = [group._loop_gen for group in fabric._groups]
        assert len(gens) == 2 and all(gen is not None for gen in gens)
        dumped = {p.read_text() for p in tmp_path.iterdir() if p.name.endswith(".loop.py")}
        assert dumped == {gen.source for gen in gens}
        for gen in gens:
            assert linecache.getlines(gen.filename) == gen.source.splitlines(True)
        interp = CosimFabric(wl.design, backend="interp")
        assert all(group._loop_gen is None for group in interp._groups)

    def test_step_wrappers_installed_after_elaboration_run(self):
        """The loop reads ``step`` / ``step_cycle`` at run time, so wrappers
        put on a built fabric (as a tracer does) are called."""
        wl = vp.build_partition("C", VORBIS)
        reference = CosimFabric(wl.design, backend="source").run(wl.cosim_done)
        fabric = CosimFabric(wl.design, backend="source")
        calls = {}
        for engine in fabric.engines.values():
            attr = "step_cycle" if isinstance(engine, HwEngine) else "step"
            calls[engine.name] = [0, 0]

            def wrapper(now, _inner=getattr(engine, attr), _calls=calls[engine.name]):
                progress = _inner(now)
                _calls[0] += 1
                _calls[1] += bool(progress)
                return progress

            setattr(engine, attr, wrapper)
        result = fabric.run(wl.cosim_done)
        assert asdict(result) == asdict(reference)
        assert result.completed
        # Every engine's wrapper ran and saw its progress steps.
        assert all(made > 0 and progressed > 0 for made, progressed in calls.values())

    @pytest.mark.parametrize(
        "budget", [{"max_cycles": 40.0}, {"max_iterations": 25}], ids=["cycles", "iterations"]
    )
    @pytest.mark.parametrize(
        "wid,builder,args,opts", GROUP_WORKLOADS, ids=[w[0] for w in GROUP_WORKLOADS]
    )
    def test_budget_error_matches_interp(self, wid, builder, args, opts, budget):
        messages, served = [], []
        for backend in ("interp", "source"):
            server = FabricServer(builder, args, backend=backend, **opts)
            request = _frame_request(server.workload, 1)
            fabric = server.fabric
            try:
                for name in sorted(request.writes):
                    fabric.write(server.register(name), request.writes[name])
                with pytest.raises(SimulationError) as err:
                    fabric.run(server._done_for(request), **budget)
            finally:
                server.reset()
            messages.append(str(err.value))
            # The failure leaves nothing behind: the fabric serves bitwise.
            served.append(server.serve(request))
            served.append(serve_fresh(builder, request, args, backend=backend, **opts))
        assert messages[0] == messages[1]
        assert "exceeded its cycle/iteration budget" in messages[0]
        if wid == "vorbis_mg_BC":
            assert " (group 0: HW_P0+SW_P0) " in messages[0]
            assert "scheduler='lockstep'" in messages[0]
        else:
            assert "(group" not in messages[0]
        _assert_served_equal(served)
        assert served[0].result.completed

    def test_cross_group_thresholds_scope_like_read(self):
        """done_min over two groups' registers: while one group runs, the
        other's threshold reads its reset value, inline as through ``read``."""
        args = ("BC", VORBIS)
        served = []
        for backend in ("interp", "source"):
            server = FabricServer(
                vp.build_group_partition, args, backend=backend, fabric_kind="fabric"
            )
            p0, p1 = server.workload.pipes
            request = Request(
                name="both-pipes",
                writes={p0.frame_idx.full_name: 1, p1.frame_idx.full_name: 2},
                done_min={
                    p0.frames_out.full_name: VORBIS.n_frames - 1,
                    p1.frames_out.full_name: VORBIS.n_frames - 2,
                },
                outputs=(p0.checksum.full_name, p1.checksum.full_name),
            )
            server.serve(p1.frame_request(0))  # a resident fabric that has served
            served.append(server.serve(request))
            served.append(
                serve_fresh(
                    vp.build_group_partition, request, args, backend=backend,
                    fabric_kind="fabric",
                )
            )
        _assert_served_equal(served)
        assert served[0].result.completed

    def test_threshold_predicate_is_checked_inline(self, monkeypatch):
        calls = {"n": 0}
        original = ThresholdDone.__call__

        def counting(self, cosim):
            calls["n"] += 1
            return original(self, cosim)

        monkeypatch.setattr(ThresholdDone, "__call__", counting)
        served = []
        for backend in ("interp", "source"):
            calls["n"] = 0
            server = FabricServer(vp.build_partition, ("B", VORBIS), backend=backend)
            served.append(server.serve(server.workload.frame_request(1)))
            # The interpreted loop calls it every iteration; the generated
            # one compares the threshold itself and never needs the call.
            if backend == "interp":
                assert calls["n"] > 10
            else:
                assert calls["n"] == 0
        _assert_served_equal(served)


# --------------------------------------------------------------------------
# no fallback tier: unlowerable nodes and backend selection fail loudly
# --------------------------------------------------------------------------


def build_once_design(update):
    """One rule, ``apply``, that sets ``x := update(RegRead(x))`` once,
    from ``x = 3``."""
    top = Module("top")
    x = top.add_register("x", UIntT(32), 3)
    done = top.add_register("done", UIntT(1), 0)
    top.add_rule(
        "apply",
        par(x.write(update(RegRead(x))), done.write(Const(1))).when(
            BinOp("==", RegRead(done), Const(0))
        ),
    )
    return Design(top, name="once"), x


#: One operator per kind that the tree walker evaluates once registered but
#: the lowerer has no Python spelling for: (operator table, operator,
#: function, ``update`` for :func:`build_once_design`, ``x`` after it fires).
UNLOWERABLE_OPS = {
    "binary": ("BINARY_OPS", "**", lambda a, b: a**b, lambda r: BinOp("**", r, Const(2)), 9),
    "unary": (
        "UNARY_OPS",
        "popcount",
        lambda a: bin(a).count("1"),
        lambda r: UnOp("popcount", r),
        2,
    ),
}

GENERATION_MODES = ("fast", "hooked", "latency", "count")


def _fire_on_oracle(mode, design, x):
    """Fire the rule on the interp engine that ``mode`` stands in for
    (``Simulator`` with and without hooks, the HW and SW engines) and
    return the committed ``x``."""
    rules = list(design.all_rules())
    if mode in ("fast", "hooked"):
        hooks = SwCostAccumulator(Platform.ml507().sw_costs) if mode == "hooked" else None
        sim = Simulator(design, hooks=hooks, backend="interp")
        assert sim.run(10) == 1
        return sim.read(x)
    if mode == "latency":
        engine = HwEngine(rules, design.initial_store(), backend="interp")
        assert engine.step_cycle(0.0)
    else:
        engine = SwEngine(rules, design.initial_store(), Platform.ml507(), backend="interp")
        assert engine.step(0.0)
        engine.step(engine.busy_until)  # commits the fired rule's updates
    assert engine.total_firings == 1
    return engine.store[x]


def _elaborate_source(mode, design):
    """The source-tier elaboration that lowers ``design``'s rules in
    ``mode``.  ``Simulator`` generates ``fast`` before ``hooked``, so the
    hooked mode is generated on its own here."""
    rules = list(design.all_rules())
    if mode == "fast":
        return Simulator(design, backend="source")
    if mode == "hooked":
        return generate_rule_execs(rules, design.name, modes=("hooked",))
    if mode == "latency":
        return HwEngine(rules, design.initial_store(), backend="source")
    return SwEngine(rules, design.initial_store(), Platform.ml507(), backend="source")


class TestNoFallback:
    @pytest.mark.parametrize("kind", sorted(UNLOWERABLE_OPS))
    @pytest.mark.parametrize("mode", GENERATION_MODES)
    def test_unlowerable_operator_is_an_elaboration_error(self, monkeypatch, mode, kind):
        """No mode has a fallback: the interp engine runs the rule, and the
        source tier refuses it at elaboration, naming the rule, the operator
        and the generation mode."""
        table, op, fn, update, expected = UNLOWERABLE_OPS[kind]
        monkeypatch.setitem(getattr(expr_mod, table), op, fn)
        design, x = build_once_design(update)
        assert _fire_on_oracle(mode, design, x) == expected
        with pytest.raises(ElaborationError) as err:
            _elaborate_source(mode, design)
        message = str(err.value)
        assert "rule top.apply:" in message
        assert f"{kind} operator {op!r}" in message
        assert f"generation mode {mode!r}" in message


SMALL = VorbisParams(n_frames=2)


def _rules_and_store():
    design = build_fifo_pipeline()
    return list(design.all_rules()), design.initial_store()


#: Every public constructor that takes ``backend=``, called with only that
#: argument varying; each resolves ``None`` once and keeps the concrete
#: name in ``.backend`` (the pool's resident-cache key relies on it).
BACKEND_CONSTRUCTORS = {
    "Simulator": lambda backend: Simulator(build_fifo_pipeline(), backend=backend),
    "SwEngine": lambda backend: SwEngine(
        *_rules_and_store(), Platform.ml507(), backend=backend
    ),
    "HwEngine": lambda backend: HwEngine(*_rules_and_store(), backend=backend),
    "CosimFabric": lambda backend: CosimFabric(
        vp.build_partition("B", SMALL).design, backend=backend
    ),
    "Cosimulator": lambda backend: Cosimulator(
        vp.build_partition("B", SMALL).design, backend=backend
    ),
    "FabricServer": lambda backend: FabricServer(
        vp.build_partition, ("B", SMALL), backend=backend
    ),
    "PoolTask": lambda backend: PoolTask(
        name="t", builder=vp.build_partition, args=("B", SMALL), backend=backend
    ),
    "SweepTask": lambda backend: SweepTask(
        name="t", builder=vp.build_partition, args=("B", SMALL), backend=backend
    ),
    "GroupTask": lambda backend: GroupTask(
        name="t", builder=vp.build_group_partition, args=("BC", SMALL), backend=backend
    ),
}

#: The entry points that run rather than construct: they validate the
#: backend before elaborating anything.
BACKEND_RUNNERS = {
    "serve_fresh": lambda backend: serve_fresh(
        vp.build_partition, Request(name="r"), ("B", SMALL), backend=backend
    ),
    "run_grouped": lambda backend: run_grouped(
        vp.build_partition, ("B", SMALL), backend=backend, processes=1
    ),
    "run_distributed": lambda backend: run_distributed(
        vp.build_partition, ("B", SMALL), backend=backend, processes=1
    ),
}

BACKEND_ENTRY_POINTS = {**BACKEND_CONSTRUCTORS, **BACKEND_RUNNERS}


class TestDefaultBackend:
    def test_default_is_source(self, monkeypatch):
        monkeypatch.delenv("REPRO_RULE_BACKEND", raising=False)
        assert default_rule_backend() == "source"
        assert Simulator(build_fifo_pipeline()).backend == "source"

    def test_env_selects_the_oracle(self, monkeypatch):
        monkeypatch.setenv("REPRO_RULE_BACKEND", " Interp ")
        assert default_rule_backend() == "interp"
        assert Simulator(build_fifo_pipeline()).backend == "interp"

    @pytest.mark.parametrize("value", ["compiled", "sorce"])
    def test_unknown_env_value_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RULE_BACKEND", value)
        with pytest.raises(ValueError) as err:
            default_rule_backend()
        assert all(name in str(err.value) for name in VALID_BACKENDS)
        with pytest.raises(ValueError):
            Simulator(build_fifo_pipeline())

    @pytest.mark.parametrize("entry", sorted(BACKEND_CONSTRUCTORS))
    def test_none_resolves_at_construction(self, monkeypatch, entry):
        build = BACKEND_CONSTRUCTORS[entry]
        monkeypatch.delenv("REPRO_RULE_BACKEND", raising=False)
        assert build(None).backend == "source"
        monkeypatch.setenv("REPRO_RULE_BACKEND", "interp")
        assert build(None).backend == "interp"
        assert build("source").backend == "source"

    @pytest.mark.parametrize("entry", sorted(BACKEND_ENTRY_POINTS))
    def test_retired_backend_is_rejected(self, monkeypatch, entry):
        """``compiled`` is gone: named explicitly or through the env var it
        is a ``ValueError`` listing the valid backends, never a fallback."""
        call = BACKEND_ENTRY_POINTS[entry]
        monkeypatch.delenv("REPRO_RULE_BACKEND", raising=False)
        with pytest.raises(ValueError, match="expected one of interp, source"):
            call("compiled")
        monkeypatch.setenv("REPRO_RULE_BACKEND", "compiled")
        with pytest.raises(ValueError, match="REPRO_RULE_BACKEND='compiled'"):
            call(None)
