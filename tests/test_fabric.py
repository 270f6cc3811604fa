"""Tests for the N-domain co-simulation fabric and its transport dataplane.

Four groups:

* **Golden differential** -- the two-partition compatibility wrapper over
  the fabric must reproduce the pre-refactor ``CosimResult`` *bit for bit*
  on every fig13 workload, for both execution backends.  The reference is
  ``tests/golden/fig13_cosim.json``, captured at the last pre-fabric
  revision (see ``tests/golden/regen_fig13_golden.py``).
* **N-domain fabric** -- ≥3-domain designs run end-to-end, with per-route
  links, correct register ownership, and backend equivalence (the
  transport follows the backend).
* **Synchronizer specialisation** -- a ``SyncFifo`` whose domains coincide
  after substitution degrades to a plain FIFO: off the cut, out of the
  channel, owned by its (single) domain.
* **Sweeps** -- a sweep through the worker pool returns outcomes in
  submission order, bitwise identical to serial execution.
"""

import json
import os
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.core.action import par
from repro.core.domains import HW, SW, Domain, DomainVar, substitute_domains
from repro.core.errors import SimulationError
from repro.core.expr import BinOp, Const, KernelCall, RegRead
from repro.core.module import Design, Module
from repro.core.partition import partition_design
from repro.core.synchronizers import (
    SyncFifo,
    cross_domain_synchronizers,
    specialize_synchronizers,
)
from repro.core.types import UIntT
from repro.platform.channel import ChannelParams, Topology
from repro.platform.platform import Platform
from repro.sim.cosim import CosimFabric, Cosimulator, default_engine_kinds
from repro.sim.pool import PoolTask, run_pool

GOLDEN_PATH = Path(__file__).parent / "golden" / "fig13_cosim.json"

#: Golden capture sizes (must match regen_fig13_golden.py).
GOLDEN_FIELDS = (
    "design_name",
    "fpga_cycles",
    "completed",
    "sw_busy_fpga_cycles",
    "sw_cpu_cycles",
    "sw_cpu_cycles_wasted",
    "sw_cpu_cycles_driver",
    "sw_firings",
    "sw_guard_failures",
    "hw_firings",
    "hw_active_cycles",
    "channel_messages",
    "channel_words",
    "channel_busy_cycles",
    "fire_counts",
    "vc_stats",
)


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def _vorbis(letter, n_frames=4):
    from repro.apps.vorbis import partitions as vp
    from repro.apps.vorbis.params import VorbisParams

    return vp.build_partition(letter, VorbisParams(n_frames=n_frames))


def _raytracer(letter):
    from repro.apps.raytracer import partitions as rp
    from repro.apps.raytracer.params import RayTracerParams

    return rp.build_partition(
        letter, RayTracerParams(n_triangles=24, image_width=3, image_height=3)
    )


def _snapshot(workload, backend):
    cosim = Cosimulator(workload.design, backend=backend)
    result = cosim.run(workload.cosim_done, max_cycles=500_000_000)
    full = json.loads(json.dumps(asdict(result)))
    entry = {field: full[field] for field in GOLDEN_FIELDS}
    entry["stores"] = {
        reg.full_name: repr(cosim.read(reg)) for reg in workload.design.all_registers()
    }
    return entry


def _transport_state(fabric):
    """The transport's part of a fabric snapshot: every link direction
    (arbitration, pool rings, traffic counters), every virtual channel
    (credits, in-flight counts, stats) and the clocks."""
    return (
        [direction.snapshot() for direction in fabric.topology.directions],
        [vc.snapshot() for vc in fabric.vcs],
        [group.snapshot() for group in fabric._groups],
        fabric.now,
    )


# --------------------------------------------------------------------------
# golden differential: wrapper over the fabric == pre-refactor Cosimulator
# --------------------------------------------------------------------------


#: Golden entry per backend: the file records an ``interp`` and a
#: ``compiled`` (fast-tier) snapshot per workload; ``source`` reproduces the
#: fast-tier bits, which equal the oracle's (``test_golden_tiers_agree``).
GOLDEN_KEY = {"interp": "interp", "source": "compiled"}


class TestGoldenDifferential:
    def test_golden_tiers_agree(self):
        """Both recorded tiers hold the same bits on every workload, so the
        oracle and the source tier are pinned to one reference."""
        golden = _golden()
        assert len(golden) == 10
        for name, entry in golden.items():
            assert entry["compiled"] == entry["interp"], name

    @pytest.mark.parametrize("backend", ["interp", "source"])
    @pytest.mark.parametrize("letter", ["A", "B", "C", "D", "E", "F"])
    def test_vorbis_matches_prerefactor(self, letter, backend):
        golden = _golden()[f"vorbis_{letter}"][GOLDEN_KEY[backend]]
        assert _snapshot(_vorbis(letter), backend) == golden

    @pytest.mark.parametrize("backend", ["interp", "source"])
    @pytest.mark.parametrize("letter", ["A", "B", "C", "D"])
    def test_raytracer_matches_prerefactor(self, letter, backend):
        golden = _golden()[f"raytracer_{letter}"][GOLDEN_KEY[backend]]
        assert _snapshot(_raytracer(letter), backend) == golden

    @pytest.mark.parametrize("letter", ["B", "C"])
    def test_transport_backends_bitwise_identical(self, letter):
        """The transport follows the backend: the generated pump and
        delivery routes leave every link and virtual channel in the
        interpreted routes' exact end-of-run state, not just the same
        aggregate counters."""
        states = {}
        for backend in ("interp", "source"):
            workload = _vorbis(letter)
            cosim = Cosimulator(workload.design, backend=backend)
            result = cosim.run(workload.cosim_done, max_cycles=500_000_000)
            assert result.channel_messages > 0
            states[backend] = _transport_state(cosim)
        assert states["source"] == states["interp"]


# --------------------------------------------------------------------------
# N-domain fabric
# --------------------------------------------------------------------------

#: Three concrete domains for the synthetic pipeline below.
HW_A = Domain("HW_STAGE_A")
HW_B = Domain("HW_STAGE_B")


def build_three_domain_pipeline(n_items=8, depth=2):
    """SW source -> HW_A square -> HW_B add3 -> SW sink, one sync per hop."""
    top = Module("top")
    src = top.add_submodule(Module("src", domain=SW))
    sta = top.add_submodule(Module("sta", domain=HW_A))
    stb = top.add_submodule(Module("stb", domain=HW_B))
    q_a = top.add_submodule(SyncFifo("q_a", UIntT(32), SW, HW_A, depth=depth))
    q_b = top.add_submodule(SyncFifo("q_b", UIntT(32), HW_A, HW_B, depth=depth))
    q_out = top.add_submodule(SyncFifo("q_out", UIntT(32), HW_B, SW, depth=depth))
    cnt = src.add_register("cnt", UIntT(32), 0)
    acc = src.add_register("acc", UIntT(32), 0)
    ndone = src.add_register("ndone", UIntT(32), 0)
    mark_a = sta.add_register("mark_a", UIntT(32), 0)
    mark_b = stb.add_register("mark_b", UIntT(32), 0)
    src.add_rule(
        "produce",
        par(q_a.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
        .when(BinOp("<", RegRead(cnt), Const(n_items))),
    )
    square = KernelCall("square", lambda x: x * x, [q_a.value("first")], sw_cycles=40, hw_cycles=4)
    sta.add_rule(
        "stage_a",
        par(
            q_b.call("enq", square),
            q_a.call("deq"),
            mark_a.write(BinOp("+", RegRead(mark_a), Const(1))),
        ),
    )
    add3 = KernelCall("add3", lambda x: x + 3, [q_b.value("first")], sw_cycles=10, hw_cycles=1)
    stb.add_rule(
        "stage_b",
        par(
            q_out.call("enq", add3),
            q_b.call("deq"),
            mark_b.write(BinOp("+", RegRead(mark_b), Const(1))),
        ),
    )
    src.add_rule(
        "collect",
        par(
            acc.write(BinOp("+", RegRead(acc), q_out.value("first"))),
            q_out.call("deq"),
            ndone.write(BinOp("+", RegRead(ndone), Const(1))),
        ),
    )
    design = Design(top, "three_domain")
    regs = {"cnt": cnt, "acc": acc, "ndone": ndone, "mark_a": mark_a, "mark_b": mark_b}
    return design, regs, n_items


class TestThreeDomainFabric:
    def _run(self, backend="source", topology=None, platform=None):
        design, regs, n = build_three_domain_pipeline()
        fabric = CosimFabric(design, backend=backend, topology=topology, platform=platform)
        result = fabric.run(lambda c: c.read(regs["ndone"]) >= n)
        return fabric, regs, result, n

    def test_engine_per_domain(self):
        fabric, _, _, _ = self._run()
        assert sorted(d.name for d in fabric.domains) == ["HW_STAGE_A", "HW_STAGE_B", "SW"]
        assert fabric.engine_kinds == {"HW_STAGE_A": "hw", "HW_STAGE_B": "hw", "SW": "sw"}
        # Hardware engines step before the software engine.
        assert [d.name for d in fabric.domains[:2]] == ["HW_STAGE_A", "HW_STAGE_B"]

    def test_correct_result_through_three_domains(self):
        fabric, regs, result, n = self._run()
        assert result.completed
        assert fabric.read(regs["acc"]) == sum(i * i + 3 for i in range(n))
        assert result.fire_counts["top.sta.stage_a"] == n
        assert result.fire_counts["top.stb.stage_b"] == n

    def test_one_link_per_route_with_own_traffic(self):
        fabric, _, result, n = self._run()
        names = [link.name for link in fabric.topology.links]
        assert names == ["SW->HW_STAGE_A", "HW_STAGE_A->HW_STAGE_B", "HW_STAGE_B->SW"]
        for src, dst in [("SW", "HW_STAGE_A"), ("HW_STAGE_A", "HW_STAGE_B"), ("HW_STAGE_B", "SW")]:
            assert fabric.topology.direction(src, dst).stats.messages == n
        assert result.channel_messages == 3 * n

    def test_register_ownership_resolved_per_domain(self):
        """The owner of a register is its partition -- not a binary hw/sw guess."""
        fabric, regs, _, n = self._run()
        assert fabric.read(regs["mark_a"]) == n
        assert fabric.read(regs["mark_b"]) == n
        # The authoritative copies live in the owning engines' stores.
        assert fabric.engine("HW_STAGE_A").store[regs["mark_a"]] == n
        assert fabric.engine("HW_STAGE_B").store[regs["mark_b"]] == n
        # The SW engine's (stale) copy of HW_B state never advanced: reading
        # through the fabric must not have returned it.
        assert fabric.engine("SW").store[regs["mark_b"]] == 0

    def test_backends_bitwise_identical(self):
        """Rules, transport routes and group loops: source == the oracle."""
        results = {}
        for backend in ("interp", "source"):
            _, _, result, _ = self._run(backend=backend)
            results[backend] = asdict(result)
        assert results["source"] == results["interp"]

    def test_transport_modes_bitwise_identical(self):
        """Deep synchronizers drain in batches over two hops: per link and
        per virtual channel, the generated transport ends where the
        interpreted one does."""
        states = {}
        for backend in ("interp", "source"):
            design, regs, n = build_three_domain_pipeline(n_items=64, depth=64)
            fabric = CosimFabric(design, backend=backend)
            result = fabric.run(lambda c: c.read(regs["ndone"]) >= n)
            assert result.completed
            states[backend] = _transport_state(fabric)
        assert states["source"] == states["interp"]

    def test_per_link_parameters_shape_timing(self):
        """A slow HW_A->HW_B lane lengthens the run without changing results."""
        design, regs, n = build_three_domain_pipeline()
        fast = CosimFabric(design, backend="source")
        r_fast = fast.run(lambda c: c.read(regs["ndone"]) >= n)

        design2, regs2, _ = build_three_domain_pipeline()
        slow_lane = ChannelParams(one_way_latency_cycles=2000)
        slow = CosimFabric(
            design2,
            backend="source",
            link_params={("HW_STAGE_A", "HW_STAGE_B"): slow_lane},
        )
        r_slow = slow.run(lambda c: c.read(regs2["ndone"]) >= n)
        assert slow.read(regs2["acc"]) == fast.read(regs["acc"])
        assert r_slow.fpga_cycles > r_fast.fpga_cycles
        assert slow.topology.link("HW_STAGE_A", "HW_STAGE_B").params is slow_lane

    def test_domain_stats_cover_all_partitions(self):
        fabric, _, result, n = self._run()
        assert set(result.domain_stats) == {"SW", "HW_STAGE_A", "HW_STAGE_B"}
        assert result.domain_stats["HW_STAGE_A"]["kind"] == "hw"
        assert result.domain_stats["HW_STAGE_A"]["firings"] == n
        assert result.domain_stats["SW"]["kind"] == "sw"

    def test_deep_fifo_batch_drain(self):
        """A deep synchronizer drains in batches without losing order/credits."""
        design, regs, n = build_three_domain_pipeline(n_items=64, depth=64)
        fabric = CosimFabric(design, backend="source")
        result = fabric.run(lambda c: c.read(regs["ndone"]) >= n)
        assert result.completed
        assert fabric.read(regs["acc"]) == sum(i * i + 3 for i in range(n))

    def test_default_engine_kinds_convention(self):
        kinds = default_engine_kinds([SW, HW, Domain("HW_FOO"), Domain("DSP")])
        assert kinds == {"SW": "sw", "HW": "hw", "HW_FOO": "hw", "DSP": "sw"}

    def test_explicit_engine_kinds_override(self):
        """A domain not named HW* can still be placed on the hardware engine."""
        top = Module("top")
        src = top.add_submodule(Module("src", domain=SW))
        dsp = top.add_submodule(Module("dsp", domain=Domain("DSP")))
        q = top.add_submodule(SyncFifo("q", UIntT(32), SW, Domain("DSP"), depth=2))
        cnt = src.add_register("cnt", UIntT(32), 0)
        total = dsp.add_register("total", UIntT(32), 0)
        src.add_rule(
            "produce",
            par(q.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
            .when(BinOp("<", RegRead(cnt), Const(3))),
        )
        dsp.add_rule(
            "consume",
            par(total.write(BinOp("+", RegRead(total), q.value("first"))), q.call("deq")),
        )
        fabric = CosimFabric(Design(top, "dsp"), engine_kinds={"DSP": "hw"}, backend="source")
        result = fabric.run(lambda c: c.read(total) >= 3)
        assert result.completed
        assert result.hw_firings == 3
        assert fabric.read(total) == 0 + 1 + 2


class TestMultiDomainVorbis:
    @pytest.mark.parametrize("letter", ["G", "H"])
    def test_multi_domain_checksum_matches_two_partition(self, letter):
        """Any partitioning of the same workload emits the same PCM checksum."""
        from repro.apps.vorbis import partitions as vp

        multi = vp.build_multi_partition(letter, _vorbis("F").params)
        fabric = CosimFabric(multi.design, backend="source")
        result = fabric.run(multi.cosim_done, max_cycles=500_000_000)
        assert result.completed

        ref = _vorbis("F")
        cosim = Cosimulator(ref.design, backend="source")
        cosim.run(ref.cosim_done, max_cycles=500_000_000)
        assert fabric.read(multi.checksum) == cosim.read(ref.checksum)

    def test_vorbis_g_backends_bitwise_identical(self):
        from repro.apps.vorbis import partitions as vp
        from repro.apps.vorbis.params import VorbisParams

        results = {}
        for backend in ("interp", "source"):
            wl = vp.build_multi_partition("G", VorbisParams(n_frames=12))
            fabric = CosimFabric(wl.design, backend=backend)
            results[backend] = asdict(fabric.run(wl.cosim_done, max_cycles=500_000_000))
        assert results["source"] == results["interp"]

    def test_vorbis_g_routes(self):
        from repro.apps.vorbis import partitions as vp
        from repro.apps.vorbis.params import VorbisParams

        wl = vp.build_multi_partition("G", VorbisParams(n_frames=2))
        fabric = CosimFabric(wl.design, backend="source")
        pairs = fabric.partitioning.route_pairs()
        assert ("SW", "HW_IMDCT") in pairs
        assert ("HW_IMDCT", "HW_WIN") in pairs
        assert ("HW_WIN", "SW") in pairs


# --------------------------------------------------------------------------
# synchronizer specialisation (same-domain sync degrades to a plain FIFO)
# --------------------------------------------------------------------------


class TestSynchronizerSpecialisation:
    def _poly_design(self):
        """Producer SW, consumer domain is a variable ``a`` (Sync#(t, SW, a))."""
        var = DomainVar("a")
        top = Module("top")
        producer = top.add_submodule(Module("producer", domain=SW))
        consumer = top.add_submodule(Module("consumer", domain=var))
        sync = top.add_submodule(SyncFifo("q", UIntT(32), SW, var, depth=2))
        cnt = producer.add_register("cnt", UIntT(32), 0)
        acc = consumer.add_register("acc", UIntT(32), 0)
        producer.add_rule(
            "produce",
            par(sync.call("enq", RegRead(cnt)), cnt.write(BinOp("+", RegRead(cnt), Const(1))))
            .when(BinOp("<", RegRead(cnt), Const(5))),
        )
        consumer.add_rule(
            "consume",
            par(acc.write(BinOp("+", RegRead(acc), sync.value("first"))), sync.call("deq")),
        )
        return Design(top, "poly"), sync, acc

    def test_coinciding_domains_leave_the_cut(self):
        design, sync, acc = self._poly_design()
        assert sync.is_cross_domain  # variable: conservatively on the cut
        remaining = specialize_synchronizers(design, {"a": SW})
        substitute_domains(design, {"a": SW})
        assert remaining == []
        assert not sync.is_cross_domain
        assert cross_domain_synchronizers(design) == []

    def test_degraded_sync_is_out_of_the_partition_cut(self):
        design, sync, acc = self._poly_design()
        specialize_synchronizers(design, {"a": SW})
        substitute_domains(design, {"a": SW})
        partitioning = partition_design(design, SW)
        assert partitioning.cut == []
        assert list(partitioning.programs) == [SW]

    def test_degraded_sync_uses_no_channel(self):
        """After specialisation the FIFO is local: zero messages, same data."""
        design, sync, acc = self._poly_design()
        specialize_synchronizers(design, {"a": SW})
        substitute_domains(design, {"a": SW})
        cosim = Cosimulator(design, backend="source")
        result = cosim.run(lambda c: c.read(acc) >= sum(range(5)))
        assert result.completed
        assert result.channel_messages == 0
        assert result.vc_stats == {}
        assert cosim.read(acc) == sum(range(5))

    def test_specialised_to_hardware_crosses_the_cut(self):
        """The same polymorphic design, instantiated the other way, does sync."""
        design, sync, acc = self._poly_design()
        remaining = specialize_synchronizers(design, {"a": HW})
        substitute_domains(design, {"a": HW})
        assert remaining == [sync]
        cosim = Cosimulator(design, backend="source")
        result = cosim.run(lambda c: c.read(acc) >= sum(range(5)))
        assert result.completed
        assert result.channel_messages == 5
        assert cosim.read(acc) == sum(range(5))


# --------------------------------------------------------------------------
# partitioning topology helpers
# --------------------------------------------------------------------------


class TestPartitioningTopologyHelpers:
    def test_route_pairs_two_domain(self):
        design, regs, _ = build_three_domain_pipeline()
        partitioning = partition_design(design, SW)
        assert partitioning.route_pairs() == [
            ("SW", "HW_STAGE_A"),
            ("HW_STAGE_A", "HW_STAGE_B"),
            ("HW_STAGE_B", "SW"),
        ]

    def test_independent_groups_single_component(self):
        design, _, _ = build_three_domain_pipeline()
        groups = partition_design(design, SW).independent_groups()
        assert [[d.name for d in g] for g in groups] == [["HW_STAGE_A", "HW_STAGE_B", "SW"]]

    def test_independent_groups_split(self):
        """Two unconnected domain islands may shard into separate fabrics."""
        island_a, island_b = Domain("HW_ISLA"), Domain("HW_ISLB")
        top = Module("top")
        ma = top.add_submodule(Module("ma", domain=island_a))
        mb = top.add_submodule(Module("mb", domain=island_b))
        ra = ma.add_register("ra", UIntT(32), 0)
        rb = mb.add_register("rb", UIntT(32), 0)
        ma.add_rule(
            "tick_a",
            ra.write(BinOp("+", RegRead(ra), Const(1))).when(BinOp("<", RegRead(ra), Const(3))),
        )
        mb.add_rule(
            "tick_b",
            rb.write(BinOp("+", RegRead(rb), Const(1))).when(BinOp("<", RegRead(rb), Const(3))),
        )
        partitioning = partition_design(Design(top, "islands"), SW)
        groups = partitioning.independent_groups()
        assert [[d.name for d in g] for g in groups] == [["HW_ISLA"], ["HW_ISLB"]]

    def test_topology_rejects_duplicate_links(self):
        topo = Topology()
        topo.add_link("A", "B", ChannelParams())
        with pytest.raises(ValueError):
            topo.add_link("A", "B", ChannelParams())

    def test_topology_unknown_route_raises(self):
        topo = Platform.ml507().topology_for([("A", "B")])
        with pytest.raises(KeyError):
            topo.direction("B", "A")


# --------------------------------------------------------------------------
# multiprocess sweeps through the worker pool
# --------------------------------------------------------------------------


def _sweep_tasks(n_frames=3):
    from repro.apps.vorbis import partitions as vp
    from repro.apps.vorbis.params import VorbisParams

    params = VorbisParams(n_frames=n_frames)
    tasks = [
        PoolTask(name=f"vorbis_{letter}", builder=vp.build_partition, args=(letter, params))
        for letter in ("B", "E", "F")
    ]
    tasks.append(
        PoolTask(
            name="vorbis_G",
            builder=vp.build_multi_partition,
            args=("G", params),
            engine_kinds={"HW_IMDCT": "hw", "HW_WIN": "hw", "SW": "sw"},
        )
    )
    return tasks


class TestShardedSweep:
    def test_parallel_sweep_bitwise_identical_to_serial(self):
        tasks = _sweep_tasks()
        names = [task.name for task in tasks]
        serial, _ = run_pool(tasks, processes=1)
        parallel, _ = run_pool(tasks, processes=2)
        assert [o.name for o in serial] == names
        assert [o.name for o in parallel] == names
        for one, other in zip(serial, parallel):
            assert one.kind == other.kind == "run"
            assert asdict(one.result) == asdict(other.result), one.name

    def test_sweep_report_accounting(self):
        """Every point runs in a worker process and times its own run."""
        outcomes, processes = run_pool(_sweep_tasks(), processes=2)
        assert processes == 2
        assert [o.kind for o in outcomes] == ["run"] * 4
        assert all(o.result.completed for o in outcomes)
        assert all(o.wall_seconds > 0 for o in outcomes)
        assert os.getpid() not in {o.pid for o in outcomes}

    def test_failing_sweep_raises_the_serial_error(self):
        """A slow failure submitted first wins over a fast one submitted
        second, as it does when the points run one after the other."""
        tasks = _sweep_tasks()
        failing = [
            replace(tasks[3], max_cycles=1000.0),  # vorbis_G needs ~1900
            replace(tasks[0], max_cycles=40.0),
        ]
        with pytest.raises(SimulationError) as serial:
            run_pool(failing, processes=1)
        expected = str(serial.value)
        assert expected.startswith("co-simulation of vorbis_G exceeded")
        for _ in range(3):
            with pytest.raises(SimulationError) as parallel:
                run_pool(failing, processes=2)
            assert str(parallel.value) == expected
