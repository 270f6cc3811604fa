"""Unit tests for the source-lowering tier's debuggability contract.

The generated modules are first-class debuggable artifacts: they can be
dumped to disk (``REPRO_DUMP_SOURCE`` or :meth:`GeneratedModule.dump`),
tracebacks through generated code show the real generated source lines
(linecache registration), and generation is deterministic -- the same
design elaborates to byte-identical source every time.  The text below a
module's header depends only on the shape it lowers, so each distinct
text compiles once, yet every instance runs its own copy of the code
under its own filename.  Each rule shape is lowered once, and a cached
lowering equals a fresh one: same text, same names, same bound objects.
A shipped hardware rule fails by returning None: no rule unit of the
sweep raises or forces a thunk, and no hardware step catches.  Where
generated code still raises, it raises one shared ``GuardFail`` whose
handler clears its traceback, so generated code pins no caller's frames.

The generated group loops also keep the interpreted loop's contract: step
wrappers installed after elaboration run, an exhausted budget raises the
same error, and inline done thresholds read what ``CosimFabric.read`` would.

There is no fallback tier: a node the lowerer cannot translate fails
elaboration loudly, and the default backend is validated, never guessed.
"""

import collections
import cProfile
import gc
import linecache
import pstats
import re
import traceback
import types
import weakref
from dataclasses import asdict

import pytest

from repro.apps.raytracer import partitions as rp
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.core import expr as expr_mod
from repro.core import pycodegen
from repro.codegen.interface import build_interface_spec
from repro.core.action import Loop, par
from repro.core.domains import SW
from repro.core.errors import ElaborationError, GuardFail, SimulationError
from repro.core.expr import BinOp, Const, KernelCall, RegRead, UnOp
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module, PrimitiveModule
from repro.core.optimize import OptimizationConfig
from repro.core.partition import partition_design
from repro.core.primitives import RegFile
from repro.core.pycodegen import VALID_BACKENDS, default_rule_backend
from repro.core.types import StructT, UIntT
from repro.platform import marshal
from repro.platform.platform import Platform
from repro.sim.cosim import CosimFabric, Cosimulator, ThresholdDone
from repro.sim.distrib import run_distributed
from repro.sim.hwsim import HwEngine
from repro.sim.pool import PoolTask, run_grouped
from repro.sim.swsim import SwEngine
from repro.sim.serve import FabricServer, Request, serve_fresh

from test_compiled_backend import build_fifo_pipeline, build_kitchen_sink


def _source_sim(builder=build_fifo_pipeline):
    return Simulator(builder(), backend="source")


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty the process-global caches that generation counts against:
    compiled templates, lowered rule shapes and struct link codecs.  A
    count test must not pass only because earlier tests warmed them."""
    monkeypatch.setattr(pycodegen, "_CODE_CACHE", {})
    monkeypatch.setattr(pycodegen, "_LOWER_CACHE", {})
    monkeypatch.setattr(marshal, "_LAYOUT_CACHE", {})


@pytest.fixture
def fresh_lowerings(monkeypatch):
    """``(module name, rule)`` of every rule unit lowered afresh (not
    served from the lowering cache) while the test runs, in order."""
    fresh = []
    original = pycodegen._ModuleBuilder.__init__

    def record(self, name, rule=None):
        original(self, name, rule)
        if rule is not None:
            fresh.append((name, rule))

    monkeypatch.setattr(pycodegen._ModuleBuilder, "__init__", record)
    return fresh


@pytest.fixture
def recorded_modules(monkeypatch):
    """Every :class:`GeneratedModule` built while the test runs, in order."""
    modules = []
    original = pycodegen.GeneratedModule.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        modules.append(self)

    monkeypatch.setattr(pycodegen.GeneratedModule, "__init__", record)
    return modules


# --------------------------------------------------------------------------
# dumping generated source
# --------------------------------------------------------------------------


class TestDumpSource:
    def test_env_var_dumps_on_generation(self, tmp_path, monkeypatch, cold_caches):
        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path))
        sim = _source_sim()
        dumped = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".py") for name in dumped)
        # The dumped text is exactly the module that was exec'd, for every
        # rule unit.
        texts = [p.read_text() for p in tmp_path.iterdir() if p.suffix == ".py"]
        assert sim._gen
        for unit in sim._gen:
            assert unit.source in texts

    def test_explicit_dump_returns_sanitised_path(self, tmp_path):
        sim = _source_sim()
        assert sim._gen
        for unit in sim._gen:
            path = unit.dump(str(tmp_path))
            assert path.endswith(".py")
            with open(path) as fh:
                assert fh.read() == unit.source
            # Only filename-safe characters survive sanitisation.
            name = path.rsplit("/", 1)[-1]
            assert all(c.isalnum() or c in "._-" for c in name)

    def test_no_dump_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DUMP_SOURCE", raising=False)
        _source_sim()
        assert list(tmp_path.iterdir()) == []

    def test_designs_sharing_engine_names_dump_one_file_per_module(
        self, tmp_path, monkeypatch, cold_caches, recorded_modules
    ):
        """vorbis_B and raytracer_B both have engines named ``HW`` and
        ``SW``; elaborated in one process, neither overwrites the other's
        dumps."""
        modules = recorded_modules
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

        # A struct layout built for the first time in this interpreter also
        # dumps its link codec (``*.codec.py``); only modules count here.
        dumped = {
            p.name: p.read_text()
            for p in (tmp_path / "dump").iterdir()
            if not p.name.endswith(".codec.py")
        }
        assert len(dumped) == len({(m.name, m.source) for m in modules})
        for module in modules:
            fname = module.dump(str(tmp_path / "again")).rsplit("/", 1)[-1]
            assert fname.endswith("." + module.name.rsplit(".", 1)[1] + ".py")
            assert dumped[fname] == module.source


# --------------------------------------------------------------------------
# tracebacks through generated code
# --------------------------------------------------------------------------


def build_exploding_design(name="exploding"):
    top = Module("top")
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule(
        "boom",
        out.write(KernelCall("explode", lambda: 1 // 0, [], 1, 1)).when(Const(True)),
    )
    return Design(top, name=name)


def _generated_frame_lines(tb):
    """The source lines a formatted traceback shows under generated frames."""
    lines = tb.splitlines()
    return [line.strip() for line, prev in zip(lines[1:], lines) if "<repro-generated:" in prev]


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
        frame_lines = _generated_frame_lines(tb)
        assert frame_lines
        assert sim._gen
        for unit in sim._gen:
            assert all(line in unit.source for line in frame_lines)

    def test_linecache_registration(self):
        sim = _source_sim(build_kitchen_sink)
        assert sim._gen
        for gen in sim._gen:
            assert linecache.getlines(gen.filename) == gen.source.splitlines(True)


# --------------------------------------------------------------------------
# deterministic generation
# --------------------------------------------------------------------------


def _content_address(module):
    """A module's filename without its instance serial: ``<repro-generated:
    name#digest>`` (a later instance of one text adds ``~serial``)."""
    return re.sub(r"~\d+>$", ">", module.filename)


class TestDeterminism:
    @pytest.mark.parametrize(
        "builder", [build_fifo_pipeline, build_kitchen_sink], ids=lambda b: b.__name__
    )
    def test_same_design_generates_identical_source(self, builder):
        first = Simulator(builder(), backend="source")._gen
        second = Simulator(builder(), backend="source")._gen
        assert len(first) == len(second) > 0
        for one, other in zip(first, second):
            assert one.source == other.source
            assert one.digest == other.digest
            assert _content_address(one) == _content_address(other)

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
                    [unit.source for unit in engine._gen] if engine._gen is not None else None,
                    engine._step_gen.source if engine._step_gen is not None else None,
                )
            # One generated loop per group: pseudo-filename (content digest)
            # and source text.
            per_engine["group loops"] = [
                (_content_address(group._loop_gen), group._loop_gen.source)
                for group in fabric._groups
            ]
            sources.append(per_engine)
        assert len(sources[0]["group loops"]) == fabric.group_count
        assert sources[0] == sources[1]


#: An integer charge line: indentation, target and ``+=``, then the amount.
INT_CHARGE = re.compile(r"(\s*\S+ \+= )(\d+)$")


class TestChargeMerging:
    def test_fig13_modules_have_no_adjacent_integer_charges(self, recorded_modules):
        """Two integer charges in a row to one sink at one indentation are
        one add, also where the second arrives among captured statements
        (count mode's cost charges and latency mode's FSM cycles alike)."""
        modules = recorded_modules
        for letter in "ABCDEF":
            frames = VorbisParams(n_frames=2)
            CosimFabric(vp.build_partition(letter, frames).design, backend="source")
        scene = RayTracerParams(n_triangles=8, image_width=2, image_height=2)
        for letter in "ABCD":
            CosimFabric(rp.build_partition(letter, scene).design, backend="source")
        charges = 0
        for module in modules:
            lines = module.source.splitlines()
            for prev, line in zip(lines, lines[1:]):
                match = INT_CHARGE.match(line)
                charges += match is not None
                before = INT_CHARGE.match(prev)
                assert not (match and before and before.group(1) == match.group(1)), (
                    f"{module.name}: {prev.strip()!r} then {line.strip()!r}"
                )
        # Both kinds of charge are present, so the check is not vacuous.
        assert charges > 100
        assert any("_cc += " in m.source for m in modules if m.name.endswith(".attempts"))
        assert any("_cl[0] += " in m.source for m in modules if m.name.endswith(".rules"))


# --------------------------------------------------------------------------
# compiled once per shape: shape-only text, one code copy per instance
# --------------------------------------------------------------------------

#: The shipped sweep at TestChargeMerging's sizes: (builder, letter, params)
#: for vorbis A-F, raytracer A-D and the multi-domain vorbis G and H.
SWEEP_DESIGNS = (
    [(vp.build_partition, letter, VorbisParams(n_frames=2)) for letter in "ABCDEF"]
    + [
        (rp.build_partition, letter, RayTracerParams(n_triangles=8, image_width=2, image_height=2))
        for letter in "ABCD"
    ]
    + [(vp.build_multi_partition, letter, VorbisParams(n_frames=2)) for letter in "GH"]
)


def _body(module):
    """The text below a generated module's header line: its compile-cache key."""
    return module.source.partition("\n")[2]


def _kind(module):
    return module.name.rsplit(".", 1)[1]


def _code_tree(code):
    """``code`` and every code object nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_tree(const)


def _generated_functions(fabric):
    """Every generated function of a source fabric: engine steps, rule
    attempts and latency functions, pumps, deliveries and group loops."""
    fns = list(fabric._pump_fns) + list(fabric._deliver_fns)
    for engine in fabric.engines.values():
        if isinstance(engine, HwEngine):
            fns.append(engine.step_cycle)
            fns += [unit.namespace["_rule_latency"] for unit in engine._gen]
        else:
            fns.append(engine.step)
            fns += [unit.namespace["_attempt"] for unit in engine._gen]
    return fns + [group._loop_gen.namespace["run"] for group in fabric._groups]


class TestShapeOnlyText:
    def test_sweep_compiles_each_shape_once(
        self, monkeypatch, cold_caches, recorded_modules, fresh_lowerings
    ):
        """Generated text depends only on the shape it lowers, so the 12
        shipped designs compile far fewer texts than they build modules,
        and lower far fewer rule units than they build."""
        compiled = []

        def counting_compile(source, *args, **kwargs):
            compiled.append(len(source))
            return compile(source, *args, **kwargs)

        codec_texts = []

        def counting_codec_compile(source, *args, **kwargs):
            codec_texts.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(pycodegen, "compile", counting_compile, raising=False)
        monkeypatch.setattr(marshal, "compile", counting_codec_compile, raising=False)
        fabrics = [
            CosimFabric(builder(letter, params).design, backend="source")
            for builder, letter, params in SWEEP_DESIGNS
        ]
        by_kind = collections.defaultdict(set)
        for module in recorded_modules:
            by_kind[_kind(module)].add(_body(module))
        assert 1 <= len(by_kind["pump"]) <= 2
        assert 1 <= len(by_kind["deliver"]) <= 2
        assert len(by_kind["swstep"]) == 1
        # The hardware step names rules by their path below the top module
        # and binds their fire-count keys: designs that differ only in
        # their name share its text.
        assert 1 <= len(by_kind["hwstep"]) <= 10

        # A rule's unit reads the same in every design that has the rule,
        # whichever engine and position it has there.
        bodies = collections.defaultdict(set)
        units = 0
        for fabric in fabrics:
            for engine in fabric.engines.values():
                assert len(engine._gen) == len(engine.rules)
                for rule, unit in zip(engine.rules, engine._gen):
                    path = rule.full_name.split(".", 1)[1]
                    bodies[_kind(unit), path].add(_body(unit))
                    units += 1
        assert not {key: len(b) for key, b in bodies.items() if len(b) > 1}
        assert units > 2 * len(bodies)
        # Each rule shape is lowered once: 120 units, at most 32 lowerings.
        assert units == 120
        assert len(fresh_lowerings) <= 32

        # The lazy-let helper is emitted only where a lazy let is forced.
        for module in recorded_modules:
            defines = "def _force(" in module.source
            calls = re.search(r"\b_force\(_", module.source) is not None
            assert defines == calls, module.name
            assert "_force_added" not in module.namespace
        assert any("def _force(" in module.source for module in recorded_modules)
        # Every shipped hardware rule fails by returning None: its lets
        # bind strictly, so no rule unit raises or forces a thunk, and no
        # hardware step calls a rule under a handler.
        for module in recorded_modules:
            kind = _kind(module)
            if kind == "rules":
                assert "raise _GF" not in module.source, module.name
                assert "def _force(" not in module.source, module.name
            elif kind == "hwstep":
                assert "except GuardFail" not in module.source, module.name
        assert by_kind["rules"] and by_kind["hwstep"]

        assert len(compiled) <= 60
        assert sum(compiled) < 106_400

        # The link codecs are compiled apart from the generated modules:
        # one text per struct layout, the ray tracer's eight channel types.
        struct_layouts = [
            layout for layout in marshal._LAYOUT_CACHE.values() if isinstance(layout.ty, StructT)
        ]
        assert len(codec_texts) == len(struct_layouts) == 8
        assert len(set(codec_texts)) == 8


class TestPrivateCode:
    def test_each_instance_runs_its_own_code_copy(self, recorded_modules):
        """A second elaboration reuses every template but runs its own
        copies, nested code objects included, under its own filenames."""
        params = VorbisParams(n_frames=2)
        first = CosimFabric(vp.build_partition("B", params).design, backend="source")
        start = len(recorded_modules)
        second = CosimFabric(vp.build_partition("B", params).design, backend="source")
        module_of = {id(module.namespace): module for module in recorded_modules[start:]}
        fns = _generated_functions(second)
        assert len({id(fn.__code__) for fn in fns}) == len(fns) > 10
        for one, other in zip(_generated_functions(first), fns, strict=True):
            module = module_of[id(other.__globals__)]
            tree = list(_code_tree(one.__code__))
            copies = list(_code_tree(other.__code__))
            assert len(copies) == len(tree)
            for code, copy in zip(tree, copies):
                assert copy is not code
                assert copy.co_code == code.co_code
                assert copy.co_filename == module.filename
            assert linecache.getlines(module.filename) == module.source.splitlines(True)

    def test_traceback_names_the_instance_module(self):
        """Two designs share the exploding rule's text, hence its template;
        each traceback names its own design's module and shows the real
        generated line."""
        first = Simulator(build_exploding_design("exploding"), backend="source")
        second = Simulator(build_exploding_design("exploding_twin"), backend="source")
        (one,), (other,) = first._gen, second._gen
        assert _body(one) == _body(other)
        assert one.filename != other.filename
        for sim, unit, stranger in ((first, one, other), (second, other, one)):
            with pytest.raises(ZeroDivisionError) as err:
                sim.run(5)
            tb = "".join(traceback.format_exception(err.value))
            assert f'File "{unit.filename}"' in tb
            assert stranger.filename not in tb
            frame_lines = _generated_frame_lines(tb)
            assert frame_lines
            assert all(line in unit.source for line in frame_lines)


# --------------------------------------------------------------------------
# lowered once per shape: the lowering cache against fresh lowering
# --------------------------------------------------------------------------

#: The shipped sweep plus two serve_mixed ray tracer scenes (resident
#: raytracer_B servers of different seeds).
REUSE_DESIGNS = SWEEP_DESIGNS + [
    (rp.build_partition, "B", RayTracerParams(n_triangles=24, image_width=4, image_height=4, seed=s))
    for s in (11, 29)
]


@pytest.fixture
def recorded_units(monkeypatch):
    """``(unit, bindings it was built with)`` for every rule unit built
    while the test runs, in order."""
    units = []
    original = pycodegen.GeneratedModule.__init__

    def record(self, name, source, bindings):
        original(self, name, source, bindings)
        if name.endswith((".rules", ".attempts")):
            units.append((self, dict(bindings)))

    monkeypatch.setattr(pycodegen.GeneratedModule, "__init__", record)
    return units


def _assert_same_lowering(unit, fresh):
    """Two ``(unit, bindings)`` lowerings of one rule agree: same text, same
    binding names, the same bound objects."""
    (one, one_bindings), (other, other_bindings) = unit, fresh
    assert one.source == other.source
    assert one_bindings.keys() == other_bindings.keys()
    for name, value in other_bindings.items():
        assert one_bindings[name] is value, (one.name, name)


def _without_lowering_cache(monkeypatch):
    """Lower every unit afresh: no unit gets a cache key."""
    monkeypatch.setattr(pycodegen, "_shape_key", lambda *args: (None, None))


def _mutant(action, setup=None):
    """One rule, ``top.step``, whose action is ``action(x, y, extra)`` over
    two registers and what ``setup(top)`` adds to the top module."""
    top = Module("top")
    x = top.add_register("x", UIntT(32), 1)
    y = top.add_register("y", UIntT(32), 2)
    extra = setup(top) if setup is not None else None
    top.add_rule("step", action(x, y, extra))
    return Design(top, name="mutant")


def _inc(value):
    return value + 1


def _three(value):
    return 3


def _simulator(design, **kwargs):
    return Simulator(design, backend="source", **kwargs)


def _latency(design):
    return HwEngine(list(design.all_rules()), design.initial_store(), backend="source")


def _count(design, platform=None, config=None):
    return SwEngine(
        list(design.all_rules()),
        design.initial_store(),
        platform or Platform.ml507(),
        config or OptimizationConfig.all(),
        backend="source",
    )


def _looping(x, y, _):
    return Loop(BinOp("<", RegRead(x), Const(5)), x.write(BinOp("+", RegRead(x), Const(1))))


#: Folded input -> ``(make, elaborate)``: ``make(v)`` builds variant
#: ``v`` (0 or 1) and ``elaborate(design, v)`` lowers its one rule.  The
#: variants differ only in that input, so they must miss each other.
KEY_MUTATIONS = {
    "small int const": (
        lambda v: _mutant(lambda x, y, _: x.write(BinOp("+", RegRead(x), Const(1 + v)))),
        lambda design, v: _simulator(design),
    ),
    "const type": (
        lambda v: _mutant(lambda x, y, _: x.write(BinOp("+", RegRead(x), Const((1, True)[v])))),
        lambda design, v: _simulator(design),
    ),
    "hw_cycles constant vs callable": (
        lambda v: _mutant(
            lambda x, y, _: x.write(KernelCall("inc", _inc, [RegRead(x)], 1, (3, _three)[v]))
        ),
        lambda design, v: _latency(design),
    ),
    "read_latency": (
        lambda v: _mutant(
            lambda x, y, mem: x.write(mem.value("sub", Const(0))),
            lambda top: top.add_submodule(RegFile("mem", UIntT(32), 4, read_latency=(1, 3)[v])),
        ),
        lambda design, v: _latency(design),
    ),
    "SwCosts field": (
        lambda v: _mutant(lambda x, y, _: x.write(BinOp("+", RegRead(x), Const(1)))),
        lambda design, v: _count(
            design, platform=(Platform.ml507(), Platform.ml507().with_sw_costs(alu_op=3))[v]
        ),
    ),
    "OptimizationConfig ablation": (
        # A memory update can fail after the lifted guard, so the attempt
        # charges the inlining switch's rollback set-up; the compiled
        # trees of the two configs are the same.
        lambda v: _mutant(
            lambda x, y, mem: mem.call("upd", RegRead(y), RegRead(x)),
            lambda top: top.add_submodule(RegFile("mem", UIntT(32), 4)),
        ),
        lambda design, v: _count(
            design, config=(OptimizationConfig.all(), OptimizationConfig(inline_methods=False))[v]
        ),
    ),
    "max_loop_iterations": (
        lambda v: _mutant(_looping),
        lambda design, v: _simulator(design, max_loop_iterations=(50, 60)[v]),
    ),
    "register aliasing": (
        lambda v: _mutant(lambda x, y, _: x.write(BinOp("+", RegRead(x), RegRead((x, y)[v])))),
        lambda design, v: _simulator(design),
    ),
}


class TestLoweredOncePerShape:
    def test_cached_lowering_equals_fresh(
        self, monkeypatch, cold_caches, recorded_units, fresh_lowerings
    ):
        """Every rule unit of the sweep and of two served scenes is
        cacheable, and its cached lowering -- first lowered for another
        design where the shape has one -- equals a fresh lowering."""
        designs = [builder(letter, params).design for builder, letter, params in REUSE_DESIGNS]
        for design in reversed(designs):
            CosimFabric(design, backend="source")
        # The sweep's 32 shapes, and one whose folded literal the served
        # scene size changes.
        assert len(fresh_lowerings) <= 33
        del fresh_lowerings[:], recorded_units[:]

        for design in designs:
            CosimFabric(design, backend="source")
        assert fresh_lowerings == []
        cached = list(recorded_units)
        del recorded_units[:]

        _without_lowering_cache(monkeypatch)
        for design in designs:
            CosimFabric(design, backend="source")
        assert len(fresh_lowerings) == len(recorded_units) == len(cached) > 140
        for unit, fresh in zip(cached, recorded_units, strict=True):
            _assert_same_lowering(unit, fresh)

    @pytest.mark.parametrize("mutation", sorted(KEY_MUTATIONS))
    def test_each_folded_input_is_in_the_key(
        self, monkeypatch, cold_caches, recorded_units, fresh_lowerings, mutation
    ):
        """Two designs that differ in one input lowering folds into text
        lower to different texts; the second misses the cache the first
        warmed, and matches its own fresh lowering."""
        make, elaborate = KEY_MUTATIONS[mutation]
        (first,) = elaborate(make(0), 0)._gen
        del fresh_lowerings[:], recorded_units[:]
        design = make(1)
        (second,) = elaborate(design, 1)._gen
        assert [rule.full_name for _, rule in fresh_lowerings] == ["top.step"]
        assert _body(first) != _body(second)
        # The same variant again is a hit, and equals its fresh lowering.
        elaborate(make(1), 1)
        elaborate(design, 1)
        assert len(fresh_lowerings) == 1
        warm = recorded_units[-1]
        _without_lowering_cache(monkeypatch)
        elaborate(design, 1)
        assert len(fresh_lowerings) == 2
        _assert_same_lowering(warm, recorded_units[-1])

    def test_names_inside_a_when_share_one_lowering(
        self, monkeypatch, cold_caches, recorded_units, fresh_lowerings
    ):
        """Every failed guard raises the one shared ``GuardFail``, so no
        name reaches the text or a binding: two rules that differ only in a
        register's name inside a ``when`` share one lowering, and the reuse
        equals a fresh lowering."""

        def design(name):
            top = Module("top")
            reg = top.add_register(name, UIntT(32), 1)
            top.add_rule(
                "step",
                reg.write(BinOp("+", RegRead(reg), Const(1))).when(
                    BinOp("<", RegRead(reg), Const(9))
                ),
            )
            return Design(top, name="guarded")

        (first,) = _simulator(design("x"))._gen
        second_design = design("z")
        (second,) = _simulator(second_design)._gen
        assert _body(first) == _body(second)
        assert len(fresh_lowerings) == 1
        cached = recorded_units[-1]
        _without_lowering_cache(monkeypatch)
        _simulator(second_design)
        assert len(fresh_lowerings) == 2
        _assert_same_lowering(cached, recorded_units[-1])
        assert cached[1]["_GF"] is pycodegen._BASE_BINDINGS["_GF"]

    def test_guard_constant_binds_per_instance(
        self, monkeypatch, cold_caches, recorded_units, fresh_lowerings
    ):
        """A non-literal constant is a binding, so two rules that differ
        only in its value inside a ``when`` share one lowering; the reuse
        binds the new rule's value, as a fresh lowering does."""

        def design(limit):
            top = Module("top")
            reg = top.add_register("x", UIntT(64), 1)
            top.add_rule(
                "step",
                reg.write(BinOp("+", RegRead(reg), Const(1))).when(
                    BinOp("<", RegRead(reg), Const(limit))
                ),
            )
            return Design(top, name="guarded")

        _simulator(design(2**40))
        second_design = design(2**41)
        _simulator(second_design)
        assert len(fresh_lowerings) == 1
        cached = recorded_units[-1]
        _without_lowering_cache(monkeypatch)
        _simulator(second_design)
        _assert_same_lowering(cached, recorded_units[-1])
        assert 2**41 in cached[1].values()

    def test_interface_and_fabric_share_one_partitioning(self):
        params = VorbisParams(n_frames=2)
        workload = vp.build_partition("B", params)
        partitioning = partition_design(workload.design, SW)
        spec = build_interface_spec(partitioning)
        fabric = CosimFabric(workload.design, backend="source")
        assert fabric.partitioning is partitioning
        assert spec.sw_domains == ["SW"]
        assert partition_design(workload.design, SW) is partitioning
        other = vp.build_partition("B", params).design
        assert partition_design(other, SW) is not partitioning


def _two_resident_servers(tmp_path, modules):
    """Build two resident raytracer_B servers, check how their modules are
    named, registered and profiled, and return every module's filename."""
    scene = RayTracerParams(n_triangles=8, image_width=2, image_height=2)
    servers = [FabricServer(rp.build_partition, ("B", scene), backend="source") for _ in range(2)]
    texts = collections.defaultdict(list)
    for module in modules:
        texts[module.name, module.source].append(module)
    assert all(len(group) % 2 == 0 for group in texts.values())
    assert len({module.filename for module in modules}) == len(modules)
    for group in texts.values():
        lines = linecache.cache[group[0].filename][2]
        assert lines == group[0].source.splitlines(True)
        assert all(linecache.cache[m.filename][2] is lines for m in group)
    dumped = [p for p in tmp_path.iterdir() if not p.name.endswith(".codec.py")]
    assert len(dumped) == len(texts)

    loops = [server.fabric._groups[0]._loop_gen.namespace["run"] for server in servers]
    assert loops[0].__code__.co_filename != loops[1].__code__.co_filename
    profile = cProfile.Profile()
    profile.enable()
    for server in servers:
        server.serve(server.workload.tile_request(0))
    profile.disable()
    calls = {
        key[0]: value[1]
        for key, value in pstats.Stats(profile).stats.items()
        if key[2] == "run" and key[0].startswith("<repro-generated:")
    }
    assert sorted(calls) == sorted(loop.__code__.co_filename for loop in loops)
    assert all(count >= 1 for count in calls.values())
    return [module.filename for module in modules]


class TestInstanceFilenames:
    def test_resident_servers_of_one_design_profile_apart(
        self, tmp_path, monkeypatch, recorded_modules
    ):
        """Two resident raytracer_B servers build the same texts; each
        instance still runs under its own filename, so a profiler keyed
        by (file, line, name) counts both.  The instances share one
        linecache lines list and one dump file per text, and an instance's
        entry goes once nothing can run its code; a text's ``_INSTANCES``
        entry goes with its last instance."""
        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path))
        gc.collect()
        before = set(pycodegen._INSTANCES)
        filenames = _two_resident_servers(tmp_path, recorded_modules)
        # Designs that each have their own name leave no entry behind either.
        names = [f"dropped_{i}" for i in range(3)]
        for name in names:
            Simulator(build_exploding_design(name), backend="source")
        keys = {(module.name, module.digest) for module in recorded_modules}
        del recorded_modules[:]
        gc.collect()
        assert not [name for name in filenames if name in linecache.cache]
        assert not (keys - before) & set(pycodegen._INSTANCES)
        assert not [key for key in pycodegen._INSTANCES if key[0].split(".")[0] in names]


def build_peek_design():
    """One rule guarded by a user value method whose own guard fails at reset."""
    top = Module("top")
    helper = top.add_submodule(Module("helper"))
    held = helper.add_register("held", UIntT(32), 0)
    helper.add_method(
        "peek", "value", params=[], body=RegRead(held), guard=BinOp(">", RegRead(held), Const(0))
    )
    x = top.add_register("x", UIntT(32), 0)
    top.add_rule("read", x.write(Const(1)).when(BinOp(">", helper.value("peek"), Const(3))))
    return Design(top, name="peek")


def _bound_guard_fails(modules):
    """Every distinct ``GuardFail`` bound in the namespaces of ``modules``."""
    fails = {
        id(value): value
        for module in modules
        for value in module.namespace.values()
        if isinstance(value, GuardFail)
    }
    return list(fails.values())


class TestSharedGuardFail:
    def test_no_traceback_outlives_its_handler(self, recorded_modules):
        """Generated code raises one prebuilt ``GuardFail``, and every
        handler clears its traceback: none is left once a ``Simulator``
        attempt, a hardware step, a ``localGuard`` or either handler of a
        software attempt has caught it."""
        kitchen, peek = build_kitchen_sink(), build_peek_design()
        sim = Simulator(kitchen, backend="source")
        hw = _latency(kitchen)
        # The attempt's lifted guard calls ``peek`` when methods are not
        # inlined, so it fails in the guard; with nothing lifted, the body.
        sws = [
            _count(kitchen),
            _count(peek, config=OptimizationConfig(inline_methods=False)),
            _count(peek, config=OptimizationConfig.none()),
        ]
        fails = _bound_guard_fails(recorded_modules)
        hw_sleeps = 0
        for now in range(40):
            for step in [lambda now: sim.step(), hw.step_cycle] + [sw.step for sw in sws]:
                step(float(now))
                assert all(fail.__traceback__ is None for fail in fails)
            hw_sleeps += hw._wakeup.n_sleeping
        assert min([sim.guard_failures, hw_sleeps] + [sw.guard_failures for sw in sws]) > 0
        assert fails == [pycodegen._BASE_BINDINGS["_GF"]]

    @pytest.mark.parametrize(
        "builder,args,request_of",
        [
            (vp.build_partition, ("B", VorbisParams(n_frames=3)), lambda wl: wl.frame_request(0)),
            (
                rp.build_partition,
                ("B", RayTracerParams(n_triangles=24, image_width=3, image_height=3)),
                lambda wl: wl.tile_request(0),
            ),
        ],
        ids=["vorbis_B", "raytracer_B"],
    )
    def test_served_request_is_not_pinned(self, recorded_modules, builder, args, request_of):
        """Once a request is served no generated ``GuardFail`` holds a
        traceback, so nothing pins the caller's frames: the request is
        freed when the caller drops it, without the cyclic collector."""
        server = FabricServer(builder, args, backend="source")
        request = request_of(server.workload)
        alive = weakref.ref(request)
        gc.disable()
        try:
            assert server.serve(request).result.completed
            del request
            assert alive() is None
        finally:
            gc.enable()
        fails = _bound_guard_fails(recorded_modules)
        assert fails
        assert not [fail for fail in fails if fail.__traceback__ is not None]


# --------------------------------------------------------------------------
# generated group loops
# --------------------------------------------------------------------------

VORBIS = VorbisParams(n_frames=3)

#: (id, builder, args): a single-group two-partition design and a
#: two-group design.
GROUP_WORKLOADS = [
    ("vorbis_B", vp.build_partition, ("B", VORBIS)),
    ("vorbis_mg_BC", vp.build_group_partition, ("BC", VORBIS)),
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
        "wid,builder,args", GROUP_WORKLOADS, ids=[w[0] for w in GROUP_WORKLOADS]
    )
    def test_budget_error_matches_interp(self, wid, builder, args, budget):
        messages, served = [], []
        for backend in ("interp", "source"):
            server = FabricServer(builder, args, backend=backend)
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
            served.append(serve_fresh(builder, request, args, backend=backend))
        assert messages[0] == messages[1]
        assert "exceeded its cycle/iteration budget" in messages[0]
        if wid == "vorbis_mg_BC":
            assert " (group 0: HW_P0+SW_P0) " in messages[0]
            assert messages[0].endswith(
                "; a group must quiesce on its own, because other groups' "
                "registers read their reset values while it runs"
            )
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
            server = FabricServer(vp.build_group_partition, args, backend=backend)
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
            served.append(serve_fresh(vp.build_group_partition, request, args, backend=backend))
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: vp.build_multi_partition("G", VORBIS),
            lambda: vp.build_group_partition("BC", VORBIS),
            lambda: rp.build_partition(
                "B", RayTracerParams(n_triangles=8, image_width=2, image_height=2)
            ),
        ],
        ids=["vorbis_G", "vorbis_BC", "raytracer_B"],
    )
    def test_workload_predicate_is_checked_inline(self, monkeypatch, build):
        """A shipped workload's ``cosim_done`` is a threshold predicate: an
        untraced run's loop reads no register through ``CosimFabric.read``
        and the run returns what a predicate called every iteration
        returns: a plain function over the same thresholds on one group,
        the interpreted loop across groups, where only a ``ThresholdDone``
        stops a run (``vorbis_BC`` has one threshold per pipeline)."""
        reads = {"n": 0}
        original = CosimFabric.read

        def counting(self, reg):
            reads["n"] += 1
            return original(self, reg)

        monkeypatch.setattr(CosimFabric, "read", counting)
        results, counts = [], []
        for plain in (False, True):
            workload = build()
            done = workload.cosim_done
            assert isinstance(done, ThresholdDone)
            thresholds = done.thresholds
            fabric = CosimFabric(workload.design, backend="source")
            if plain and fabric.group_count == 1:
                done = lambda cosim: all([cosim.read(r) >= m for r, m in thresholds])
            elif plain:
                fabric = CosimFabric(workload.design, backend="interp")
            reads["n"] = 0
            results.append(fabric.run(done))
            counts.append(reads["n"])
        # The loop top tests the thresholds inline.  A multi-group run still
        # calls the predicate outside it: its reset-state check and merged
        # evaluation, and twice in each group's loop, which quiesces because
        # the other group's sink reads as reset.
        groups = len(fabric._groups)
        outside = 0 if groups == 1 else 2 + 2 * groups
        assert counts[0] == outside * len(thresholds)
        assert counts[1] > counts[0] + 10 * len(thresholds)
        assert asdict(results[0]) == asdict(results[1])
        assert results[0].completed


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

GENERATION_MODES = ("latency", "count")


def _fire_on_oracle(mode, design, x):
    """Fire the rule on the interp engine that ``mode`` stands in for (the
    HW and SW engines) and return the committed ``x``."""
    rules = list(design.all_rules())
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
    ``mode``."""
    rules = list(design.all_rules())
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

    @pytest.mark.parametrize("mode", GENERATION_MODES)
    def test_native_method_without_template_is_an_elaboration_error(self, mode):
        """The source tier lowers a native method only from its inline
        template: without one, the interp engine runs the method and the
        source tier refuses it at elaboration, naming the rule, the method
        and the generation mode."""
        design, n = build_untemplated_design()
        assert _fire_on_oracle(mode, design, n) == 6
        with pytest.raises(ElaborationError) as err:
            _elaborate_source(mode, design)
        message = str(err.value)
        assert "rule top.apply:" in message
        assert "native method counter.double (it has no inline template)" in message
        assert f"generation mode {mode!r}" in message


class Doubler(PrimitiveModule):
    """A primitive whose one native method, ``double``, has no template."""

    def __init__(self, name):
        super().__init__(name)
        self.n = self.add_register("n", UIntT(32), init=3)
        self.add_native_method(
            "double",
            "action",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({self.n: 2 * read(self.n)}, None),
            reads=[self.n],
            writes=[self.n],
        )


def build_untemplated_design():
    """One rule, ``apply``, that calls ``counter.double()`` once, from
    ``n = 3``."""
    top = Module("top")
    counter = top.add_submodule(Doubler("counter"))
    done = top.add_register("done", UIntT(1), 0)
    top.add_rule(
        "apply",
        par(counter.call("double"), done.write(Const(1))).when(
            BinOp("==", RegRead(done), Const(0))
        ),
    )
    return Design(top, name="untemplated"), counter.n


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
