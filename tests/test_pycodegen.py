"""Unit tests for the source-lowering tier's debuggability contract.

The generated modules are first-class debuggable artifacts: they can be
dumped to disk (``REPRO_DUMP_SOURCE`` or :meth:`GeneratedModule.dump`),
tracebacks through generated code show the real generated source lines
(linecache registration), and generation is deterministic -- the same
design elaborates to byte-identical source every time.

The generated group loops also keep the interpreted loop's contract: step
wrappers installed after elaboration run, an exhausted budget raises the
same error, and inline done thresholds read what ``CosimFabric.read`` would.
"""

import linecache
import traceback
from dataclasses import asdict

import pytest

from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.core.errors import SimulationError
from repro.core.expr import Const, KernelCall
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module
from repro.core.types import UIntT
from repro.sim.cosim import CosimFabric, ThresholdDone
from repro.sim.hwsim import HwEngine
from repro.sim.serve import FabricServer, Request, serve_fresh

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
            fabric = CosimFabric(build().design, backend="source", transport="source")
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
        interp = CosimFabric(wl.design, backend="source", transport="interp")
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
