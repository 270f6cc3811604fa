"""Persistent serving: snapshot/reset correctness and the unified pool.

The acceptance oracle of the serving layer: every request served by a
resident :class:`~repro.sim.serve.FabricServer` must be **bitwise
identical** -- ``CosimResult``, outputs and final stores -- to the same
request served by a freshly elaborated fabric (``serve_fresh``), over
fig13, multi-domain and multi-group workloads and both backends;
randomized request interleavings prove no state leaks across snapshot
resets.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.analysis import audit_fabric
from repro.apps.raytracer import partitions as rp
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.core.errors import SimulationError
from repro.core.partition import default_engine_kind
from repro.sim import pool as pool_mod
from repro.sim.cosim import CosimFabric
from repro.sim.hwsim import HwEngine
from repro.sim.pool import PoolTask, clear_residents, run_pool, run_pool_task
from repro.sim.serve import (
    FabricServer,
    Request,
    RequestResult,
    ServingStats,
    percentile,
    safe_ratio,
    serve_fresh,
)
from repro.sim.swsim import SwEngine

PARAMS = VorbisParams(n_frames=3)
RT_PARAMS = RayTracerParams(n_triangles=24, image_width=3, image_height=3)


def _g_kinds():
    return {d.name: default_engine_kind(d) for d in vp.multi_partition_domains("G")}


#: (id, builder, args, server options, request factory) -- the serving
#: workload matrix: a fig13 two-partition pipeline, a multi-domain cut and
#: a multi-group design.
WORKLOADS = [
    (
        "vorbis_B",
        vp.build_partition,
        ("B", PARAMS),
        {},
        lambda wl, start: wl.frame_request(start),
    ),
    (
        "vorbis_G",
        vp.build_multi_partition,
        ("G", PARAMS),
        {"engine_kinds": _g_kinds()},
        lambda wl, start: wl.frame_request(start),
    ),
    (
        "vorbis_mg_BC",
        vp.build_group_partition,
        ("BC", PARAMS),
        {"fabric_kind": "fabric"},
        lambda wl, start: wl.pipes[start % len(wl.pipes)].frame_request(start % PARAMS.n_frames),
    ),
]


#: (builder, args, fabric options) of vorbis_C, vorbis_G and raytracer_B,
#: whose runs are stopped part-way: between them they hold every container
#: of run state non-empty at some stop (vorbis_G is the one with
#: multi-cycle hardware rules).
MIDRUN = [
    (vp.build_partition, ("C", VorbisParams(n_frames=4)), {}),
    (vp.build_multi_partition, ("G", VorbisParams(n_frames=4)), {"engine_kinds": _g_kinds()}),
    (rp.build_partition, ("B", RT_PARAMS), {}),
]


def _assert_bitwise(resident: RequestResult, fresh: RequestResult) -> None:
    assert asdict(resident.result) == asdict(fresh.result)
    assert resident.outputs == fresh.outputs


# --------------------------------------------------------------------------
# resident == fresh, over the full matrix
# --------------------------------------------------------------------------


class TestServeBitwise:
    @pytest.mark.parametrize("backend", ["interp", "source"])
    @pytest.mark.parametrize(
        "wid,builder,args,opts,make_request", WORKLOADS, ids=lambda w: None
    )
    def test_resident_equals_fresh_matrix(
        self, wid, builder, args, opts, make_request, backend
    ):
        """Under ``source`` the generated supersteps, transport routes and
        group loops must survive snapshot/reset exactly like the oracle."""
        server = FabricServer(builder, args, backend=backend, **opts)
        for start in (1, 0, 2, 1):
            request = make_request(server.workload, start)
            resident = server.serve(request)
            # Every declared field is back at reset, not only what the
            # result and the outputs show.
            assert server.fabric.snapshot() == server._snapshot
            fresh = serve_fresh(builder, request, args, backend=backend, **opts)
            _assert_bitwise(resident, fresh)
        assert server.requests_served == 4
        # The structural counterpart of the differential oracle above: the
        # resident fabric's object graph has no state its snapshot misses.
        assert audit_fabric(server.fabric) == []

    def test_raytracer_tiles(self):
        server = FabricServer(rp.build_partition, ("B", RT_PARAMS))
        checksums = set()
        for start in (0, 4, 2, 0):
            request = server.workload.tile_request(start)
            resident = server.serve(request)
            assert server.fabric.snapshot() == server._snapshot
            fresh = serve_fresh(rp.build_partition, request, ("B", RT_PARAMS))
            _assert_bitwise(resident, fresh)
            checksums.add(resident.outputs[server.workload.checksum.full_name])
        assert len(checksums) == 3  # distinct tiles render distinct checksums

    def test_multigroup_combined_request(self):
        """One request driving both pipelines of a multi-group design."""
        server = FabricServer(
            vp.build_group_partition, ("BC", PARAMS), fabric_kind="fabric"
        )
        p0, p1 = server.workload.pipes
        request = Request(
            name="both-pipes",
            writes={p0.frame_idx.full_name: 1, p1.frame_idx.full_name: 2},
            done_min={
                p0.frames_out.full_name: PARAMS.n_frames - 1,
                p1.frames_out.full_name: PARAMS.n_frames - 2,
            },
            outputs=(p0.checksum.full_name, p1.checksum.full_name),
        )
        resident = server.serve(request)
        fresh = serve_fresh(
            vp.build_group_partition, request, ("BC", PARAMS), fabric_kind="fabric"
        )
        _assert_bitwise(resident, fresh)
        assert resident.result.completed

    def test_empty_done_min_uses_workload_predicate(self):
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        # An empty request is exactly the workload's own full run.
        served = server.serve(Request(name="full-run"))
        assert served.result.fpga_cycles > 0
        assert served.result.completed


# --------------------------------------------------------------------------
# snapshot completeness / reset semantics
# --------------------------------------------------------------------------


def _store_image(fabric: CosimFabric):
    """Engine stores keyed by domain and register full name (plain data)."""
    return {
        dom.name: {reg.full_name: value for reg, value in fabric.engines[dom].store.items()}
        for dom in fabric.domains
    }


class TestSnapshotReset:
    def test_restore_returns_fabric_to_reset(self):
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        fabric = server.fabric
        reset_image = _store_image(fabric)
        server.serve(server.workload.frame_request(1))
        assert _store_image(fabric) == reset_image
        assert fabric.now == 0.0
        assert all(group.now == 0.0 for group in fabric._groups)
        for direction in fabric.topology.directions:
            assert direction.pool.pending == 0
            assert direction.stats.messages == 0
            assert direction.busy_until == 0.0
        for vc in fabric.vcs:
            assert vc.in_flight == 0
            assert vc.stats.messages_sent == 0

    def test_served_result_is_per_request_delta(self):
        """Counters restart from zero each request: N-th serve == first serve."""
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        request = server.workload.frame_request(0)
        first = server.serve(request)
        again = server.serve(request)
        assert asdict(first.result) == asdict(again.result)

    def test_final_stores_match_fresh_elaboration(self):
        """Not just the result: the full end-of-run stores agree bitwise."""
        request = vp.build_partition("B", PARAMS).frame_request(1)

        def final_stores(server):
            fabric = server.fabric
            try:
                for name in sorted(request.writes):
                    fabric.write(server.register(name), request.writes[name])
                fabric.run(server._done_for(request), max_cycles=5e8)
                return _store_image(fabric)
            finally:
                server.reset()

        resident = FabricServer(vp.build_partition, ("B", PARAMS))
        resident.serve(request)  # dirty the fabric once first
        assert final_stores(resident) == final_stores(
            FabricServer(vp.build_partition, ("B", PARAMS))
        )

    @pytest.mark.parametrize("backend", ["interp", "source"])
    def test_randomized_interleaving_no_state_leaks(self, backend):
        """A seeded random request stream matches per-start fresh oracles."""
        rng = random.Random(0xC051)
        server = FabricServer(vp.build_partition, ("B", PARAMS), backend=backend)
        oracle = {}
        for _ in range(10):
            start = rng.randrange(PARAMS.n_frames)
            request = server.workload.frame_request(start)
            resident = server.serve(request)
            if start not in oracle:
                oracle[start] = serve_fresh(
                    vp.build_partition, request, ("B", PARAMS), backend=backend
                )
            _assert_bitwise(resident, oracle[start])

    @pytest.mark.parametrize("backend", ["interp", "source"])
    def test_restore_midrun_snapshot(self, backend):
        """Snapshots taken part-way through a run, with requests in flight,
        restore exactly: ``snapshot()`` reads back what was restored, and
        finishing from the restored state repeats finishing straight on."""

        def finish(fabric, workload):
            result = fabric.run(workload.cosim_done, max_cycles=5e8)
            return asdict(result), _store_image(fabric)

        seen = set()
        for builder, args, opts in MIDRUN:
            workload = builder(*args)
            fabric = CosimFabric(workload.design, backend=backend, **opts)
            reset = fabric.snapshot()
            total = fabric.run(workload.cosim_done, max_cycles=5e8).fpga_cycles
            for share in (0.10, 0.25, 0.40, 0.55, 0.70, 0.85):
                fabric.restore(reset)
                stop = share * total
                fabric.run(lambda f: max(g.now for g in f._groups) >= stop)
                engines = list(fabric.engines.values())
                sw = [e for e in engines if isinstance(e, SwEngine)]
                hw = [e for e in engines if isinstance(e, HwEngine)]
                seen |= {
                    name
                    for name, nonempty in (
                        ("busy", any(e.busy for e in hw)),
                        ("pools", any(d.pool.pending for d in fabric.topology)),
                        ("parked", any(e._pending_deliveries for e in engines)),
                        ("updates", any(e._pending_updates for e in sw)),
                        ("fail_costs", any(e._last_fail_cost for e in sw)),
                    )
                    if nonempty
                }
                mid = fabric.snapshot()
                straight_on = finish(fabric, workload)
                fabric.restore(mid)
                assert fabric.snapshot() == mid
                assert finish(fabric, workload) == straight_on
        # Only the source tier's dirty-set scheduling records fail costs.
        expected = {"busy", "pools", "parked", "updates", "fail_costs"}
        if backend == "interp":
            expected.discard("fail_costs")
        assert seen == expected

    def test_failed_request_does_not_poison_the_server(self):
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        request = server.workload.frame_request(0)
        with pytest.raises(SimulationError):
            server.serve(
                Request(
                    name="too-tight",
                    writes=dict(request.writes),
                    done_min=dict(request.done_min),
                    max_cycles=0.5,
                )
            )
        resident = server.serve(request)
        fresh = serve_fresh(vp.build_partition, request, ("B", PARAMS))
        _assert_bitwise(resident, fresh)

    def test_incomplete_request_reports_incomplete(self):
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        wl = server.workload
        unreachable = Request(
            name="unreachable",
            done_min={wl.frames_out.full_name: PARAMS.n_frames + 1},
        )
        assert not server.serve(unreachable).result.completed
        # ...and the server still serves normal traffic bitwise afterwards.
        request = wl.frame_request(2)
        _assert_bitwise(
            server.serve(request), serve_fresh(vp.build_partition, request, ("B", PARAMS))
        )


# --------------------------------------------------------------------------
# request validation
# --------------------------------------------------------------------------


class TestRequestValidation:
    def test_unknown_register_name(self):
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        with pytest.raises(KeyError, match="no register"):
            server.serve(Request(name="bad", writes={"nope.reg": 1}))

    def test_unknown_fabric_kind(self):
        with pytest.raises(ValueError, match="fabric_kind"):
            FabricServer(vp.build_partition, ("B", PARAMS), fabric_kind="warp")

    def test_frame_request_range(self):
        wl = vp.build_partition("B", PARAMS)
        with pytest.raises(ValueError):
            wl.frame_request(PARAMS.n_frames)
        with pytest.raises(ValueError):
            wl.frame_request(-1)

    def test_tile_request_range(self):
        wl = rp.build_partition("A", RT_PARAMS)
        with pytest.raises(ValueError):
            wl.tile_request(RT_PARAMS.n_rays)

    def test_pool_task_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PoolTask(name="x", builder=vp.build_partition, kind="warp")
        with pytest.raises(ValueError, match="request"):
            PoolTask(name="x", builder=vp.build_partition, kind="request")


# --------------------------------------------------------------------------
# the unified pool
# --------------------------------------------------------------------------


def _request_task(name, start, processes_safe=True):
    wl = vp.build_partition("B", PARAMS)
    return PoolTask(
        name=name,
        builder=vp.build_partition,
        args=("B", PARAMS),
        kind="request",
        request=wl.frame_request(start),
    )


def _failing_builder(*_args, **_kwargs):
    raise RuntimeError("builder exploded")


class TestPool:
    def setup_method(self):
        clear_residents()

    def test_mixed_kinds_share_one_submission_path(self):
        tasks = [
            PoolTask(name="sweep", builder=vp.build_partition, args=("B", PARAMS)),
            _request_task("req", 1),
            PoolTask(
                name="group0",
                builder=vp.build_group_partition,
                args=("BC", PARAMS),
                kind="group",
                group_index=0,
                fabric_kind="fabric",
            ),
        ]
        outcomes, processes = run_pool(tasks, processes=1)
        assert processes == 1
        assert [o.name for o in outcomes] == ["sweep", "req", "group0"]
        assert outcomes[0].outputs is None and outcomes[0].observations is None
        assert outcomes[1].outputs  # request outputs present
        assert outcomes[2].observations  # group finals present

    def test_worker_elaboration_cache(self):
        task = PoolTask(name="a", builder=vp.build_partition, args=("B", PARAMS))
        first = run_pool_task(task)
        second = run_pool_task(
            PoolTask(name="b", builder=vp.build_partition, args=("B", PARAMS))
        )
        assert first.elaborated and not second.elaborated
        assert asdict(first.result) == asdict(second.result)

    def test_cache_distinguishes_builder_specs(self):
        run_pool_task(PoolTask(name="a", builder=vp.build_partition, args=("B", PARAMS)))
        other = run_pool_task(
            PoolTask(name="b", builder=vp.build_partition, args=("F", PARAMS))
        )
        assert other.elaborated  # different spec, different resident

    def test_resident_limit_eviction(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "RESIDENT_LIMIT", 1)
        run_pool_task(PoolTask(name="a", builder=vp.build_partition, args=("B", PARAMS)))
        run_pool_task(PoolTask(name="b", builder=vp.build_partition, args=("F", PARAMS)))
        assert len(pool_mod._RESIDENT) == 1
        # The evicted spec re-elaborates.
        again = run_pool_task(
            PoolTask(name="c", builder=vp.build_partition, args=("B", PARAMS))
        )
        assert again.elaborated

    def test_parallel_requests_match_serial(self):
        tasks = [_request_task(f"r{i}", i % PARAMS.n_frames) for i in range(4)]
        serial, _ = run_pool(list(tasks), processes=1)
        parallel, _ = run_pool(list(tasks), processes=2)
        for a, b in zip(serial, parallel):
            assert asdict(a.result) == asdict(b.result)
            assert a.outputs == b.outputs

    def test_pool_error_propagates(self):
        tasks = [
            PoolTask(name="ok", builder=vp.build_partition, args=("B", PARAMS)),
            PoolTask(name="boom", builder=_failing_builder),
        ]
        with pytest.raises(RuntimeError, match="builder exploded"):
            run_pool(list(tasks), processes=1)
        with pytest.raises((RuntimeError, SimulationError)):
            run_pool(list(tasks), processes=2)

    def test_sweep_rides_the_pool_cache(self):
        """Repeated sweep points of one design elaborate once per worker."""
        tasks = [
            PoolTask(name=f"p{i}", builder=vp.build_partition, args=("B", PARAMS))
            for i in range(3)
        ]
        outcomes, _ = run_pool(tasks, processes=1)
        assert [o.elaborated for o in outcomes] == [True, False, False]
        results = [asdict(o.result) for o in outcomes]
        assert results[0] == results[1] == results[2]


# --------------------------------------------------------------------------
# zero-duration guards and latency roll-ups
# --------------------------------------------------------------------------


class TestReportGuards:
    def test_safe_ratio(self):
        assert safe_ratio(4.0, 2.0) == 2.0
        assert safe_ratio(4.0, 0.0) == 0.0
        assert safe_ratio(4.0, 0.0, default=1.0) == 1.0
        assert safe_ratio(4.0, -1.0) == 0.0

    def test_serving_stats_zero_duration(self):
        stats = ServingStats(
            requests=0, wall_seconds=0.0, elaborate_seconds=0.0, latencies=[]
        )
        assert stats.requests_per_second == 0.0
        assert stats.p50_seconds == 0.0 and stats.p99_seconds == 0.0
        row = stats.row()
        assert row["requests_per_second"] == 0.0

    def test_percentiles(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0

    def test_serving_stats_of_results(self):
        server = FabricServer(vp.build_partition, ("B", PARAMS))
        results = server.serve_many(
            [server.workload.frame_request(s) for s in (0, 1, 2)]
        )
        wall = sum(r.wall_seconds for r in results)
        stats = ServingStats.of(results, wall, server.elaborate_seconds)
        assert stats.requests == 3
        assert stats.requests_per_second > 0
        assert 0 < stats.p50_seconds <= stats.p99_seconds
