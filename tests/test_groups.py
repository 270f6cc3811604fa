"""Tests for group-decomposed co-simulation.

Four groups:

* **Partitioning properties** -- ``independent_groups()`` really is a
  partition of the domains and of ``route_pairs()`` (no route crosses a
  group), over every fig13 workload, the multi-domain G/H partitions and
  the multi-group pipelines; register ownership splits the same way.
* **Merge rules** -- ``CosimResult.merge`` implements the documented
  deterministic rules (max clock, ordered sums, disjoint union, collision
  detection).
* **Differential** -- serially scheduled groups (``CosimFabric.run``),
  in-process per-group runs (``run_grouped(processes=1)``) and
  process-parallel per-group runs (``run_grouped(processes=2)``) produce
  bitwise-equal merged ``CosimResult``s, over fig13 + vorbis G/H (one
  group each: the monolithic path) and the ≥2-group pipelines, for both
  backends.
* **Scoping** -- during one group's run the fabric answers reads of other
  groups' registers with reset values, which is what makes group order
  (and process placement) unobservable.
"""

from dataclasses import asdict

import pytest

from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis.reference import expected_checksum
from repro.core.domains import SW
from repro.core.errors import SimulationError
from repro.core.partition import partition_design
from repro.sim.cosim import CosimFabric, CosimResult, Cosimulator
from repro.sim.pool import run_grouped

PARAMS = VorbisParams(n_frames=3)


def _vorbis(letter):
    return vp.build_partition(letter, PARAMS)


def _raytracer(letter):
    from repro.apps.raytracer import partitions as rp
    from repro.apps.raytracer.params import RayTracerParams

    return rp.build_partition(
        letter, RayTracerParams(n_triangles=24, image_width=3, image_height=3)
    )


#: (name, builder, args) triples covering one-group and multi-group designs.
WORKLOADS = (
    [(f"vorbis_{l}", vp.build_partition, (l, PARAMS)) for l in vp.PARTITION_ORDER]
    + [
        (f"vorbis_{l}", vp.build_multi_partition, (l, PARAMS))
        for l in vp.MULTI_PARTITION_ORDER
    ]
    + [
        ("vorbis_mg_BC", vp.build_group_partition, ("BC", PARAMS)),
        ("vorbis_mg_BCF", vp.build_group_partition, ("BCF", PARAMS)),
    ]
)


# --------------------------------------------------------------------------
# partitioning properties
# --------------------------------------------------------------------------


def _group_of_domain(partitioning):
    """Domain name -> the index of its group in ``independent_groups()``."""
    return {
        d.name: gid
        for gid, group in enumerate(partitioning.independent_groups())
        for d in group
    }


class TestGroupPartitionProperties:
    @pytest.mark.parametrize("name,builder,args", WORKLOADS, ids=lambda w: None)
    def test_groups_partition_domains_and_routes(self, name, builder, args):
        """Groups partition the domain set; no route crosses a group."""
        partitioning = partition_design(builder(*args).design, SW)
        groups = partitioning.independent_groups()
        all_domains = [d for g in groups for d in g]
        assert sorted(d.name for d in all_domains) == sorted(
            d.name for d in partitioning.domains
        )
        assert len({d.name for d in all_domains}) == len(all_domains)

        group_of = _group_of_domain(partitioning)
        for src, dst in partitioning.route_pairs():
            assert group_of[src] == group_of[dst]

    @pytest.mark.parametrize("name,builder,args", WORKLOADS, ids=lambda w: None)
    def test_group_cut_partitions_the_cut(self, name, builder, args):
        """Both endpoints of every cut synchronizer lie in one group."""
        partitioning = partition_design(builder(*args).design, SW)
        group_of = _group_of_domain(partitioning)
        for sync in partitioning.cut:
            assert group_of[sync.domain_enq.name] == group_of[sync.domain_deq.name]

    def test_multi_group_domains_helper(self):
        names = sorted(d.name for d in vp.multi_group_domains("BC"))
        assert names == ["HW_P0", "HW_P1", "SW_P0", "SW_P1"]
        fabric = CosimFabric(
            vp.build_group_partition("BC", PARAMS).design, backend="source"
        )
        assert sorted(d.name for d in fabric.domains) == names
        # An all-software pipeline still lists its (backfilled) SW domain.
        assert [d.name for d in vp.multi_group_domains("F")] == ["SW_P0"]

    def test_multi_group_counts(self):
        for letters, count in (("BC", 2), ("BCF", 3)):
            design = vp.build_group_partition(letters, PARAMS).design
            assert len(partition_design(design, SW).independent_groups()) == count
        assert len(partition_design(_vorbis("B").design, SW).independent_groups()) == 1

    def test_observed_registers_split_by_group(self):
        workload = vp.build_group_partition("BC", PARAMS)
        fabric = CosimFabric(workload.design, backend="source")
        for reg in (pipe.frames_out for pipe in workload.pipes):
            # frames_out lives in the pipeline's software-side audio sink.
            pipe_index = 0 if "_p0." in reg.full_name else 1
            domains = fabric.group_domains(fabric.group_of_register(reg))
            assert f"SW_P{pipe_index}" in {d.name for d in domains}

    @pytest.mark.parametrize("letters", ["BC", "BCF"])
    def test_registers_belong_to_their_domain_group(self, letters):
        """A partition's registers belong to its domain's group, and a cut
        synchronizer's to the one group both its endpoints are in."""
        fabric = CosimFabric(
            vp.build_group_partition(letters, PARAMS).design, backend="source"
        )
        partitioning = fabric.partitioning
        group_of = _group_of_domain(partitioning)
        for domain, program in partitioning.programs.items():
            for reg in program.registers:
                assert fabric.group_of_register(reg) == group_of[domain.name]
        for sync in partitioning.cut:
            for reg in sync.registers:
                assert fabric.group_of_register(reg) == group_of[sync.domain_enq.name]


# --------------------------------------------------------------------------
# merge rules
# --------------------------------------------------------------------------


def _result(**overrides):
    base = dict(
        design_name="d",
        fpga_cycles=10.0,
        completed=True,
        sw_busy_fpga_cycles=1.5,
        sw_cpu_cycles=2.5,
        sw_cpu_cycles_wasted=0.5,
        sw_cpu_cycles_driver=0.25,
        sw_firings=3,
        sw_guard_failures=4,
        hw_firings=5,
        hw_active_cycles=6,
        channel_messages=7,
        channel_words=8,
        channel_busy_cycles=9.5,
        fire_counts={"a.r": 1},
        vc_stats={"q": {"messages": 1, "words": 2, "credit_stalls": 0}},
        domain_stats={"SW": {"kind": "sw", "firings": 3}},
    )
    base.update(overrides)
    return CosimResult(**base)


class TestCosimResultMerge:
    def test_merge_rules(self):
        a = _result()
        b = _result(
            fpga_cycles=4.0,
            completed=True,
            fire_counts={"b.r": 2},
            vc_stats={"p": {"messages": 9, "words": 9, "credit_stalls": 1}},
            domain_stats={"HW": {"kind": "hw", "firings": 5}},
        )
        merged = CosimResult.merge([a, b])
        assert merged.fpga_cycles == 10.0  # max over groups
        assert merged.sw_firings == 6  # ordered sums
        assert merged.channel_busy_cycles == 9.5 + 9.5
        assert merged.fire_counts == {"a.r": 1, "b.r": 2}  # disjoint union
        assert set(merged.vc_stats) == {"q", "p"}
        assert set(merged.domain_stats) == {"SW", "HW"}
        assert merged.completed

    def test_merge_completed_is_all(self):
        incomplete = _result(
            completed=False, fire_counts={"b.r": 1}, vc_stats={}, domain_stats={}
        )
        assert not CosimResult.merge([_result(), incomplete]).completed

    def test_strict_merge_rejects_collisions(self):
        with pytest.raises(SimulationError):
            CosimResult.merge([_result(), _result()])

    def test_strict_merge_rejects_mixed_designs(self):
        with pytest.raises(SimulationError):
            CosimResult.merge([_result(), _result(design_name="other")])

    def test_merge_of_one_is_identity(self):
        one = _result()
        assert asdict(CosimResult.merge([one])) == asdict(one)

    def test_merge_of_nothing_raises(self):
        with pytest.raises(ValueError):
            CosimResult.merge([])


# --------------------------------------------------------------------------
# differential: monolithic vs. serial-grouped vs. process-grouped
# --------------------------------------------------------------------------

#: Representative slice for the backend matrix (every workload still runs
#: the default backend in ``test_three_modes_bitwise_equal``).
MATRIX_WORKLOADS = (
    ("vorbis_B", vp.build_partition, ("B", PARAMS)),
    ("vorbis_G", vp.build_multi_partition, ("G", PARAMS)),
    ("vorbis_mg_BC", vp.build_group_partition, ("BC", PARAMS)),
)


def _run_monolithic(builder, args, backend):
    workload = builder(*args)
    fabric = CosimFabric(workload.design, backend=backend)
    result = fabric.run(workload.cosim_done, max_cycles=500_000_000)
    return fabric, workload, result


class TestGroupedDifferential:
    @pytest.mark.parametrize("name,builder,args", WORKLOADS, ids=lambda w: None)
    def test_three_modes_bitwise_equal(self, name, builder, args):
        _, _, mono = _run_monolithic(builder, args, None)
        serial, _ = run_grouped(builder, args=args, processes=1)
        procs, _ = run_grouped(builder, args=args, processes=2)
        assert asdict(serial) == asdict(mono)
        assert asdict(procs) == asdict(serial)

    @pytest.mark.parametrize("backend", ["interp", "source"])
    @pytest.mark.parametrize("name,builder,args", MATRIX_WORKLOADS, ids=lambda w: None)
    def test_backend_matrix(self, name, builder, args, backend):
        _, _, mono = _run_monolithic(builder, args, backend)
        procs, _ = run_grouped(builder, args=args, backend=backend, processes=2)
        assert asdict(procs) == asdict(mono)

    def test_multi_group_equals_sum_of_standalone_pipelines(self):
        """Each group's slice equals the pipeline simulated on its own."""
        workload = vp.build_group_partition("BC", PARAMS)
        fabric = CosimFabric(workload.design, backend="source")
        merged = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        assert merged.completed

        reference = expected_checksum(PARAMS)
        assert workload.checksums(fabric.read) == [reference, reference]

        singles = {}
        for letter in "BC":
            single = _vorbis(letter)
            cosim = Cosimulator(single.design, backend="source")
            singles[letter] = cosim.run(single.cosim_done, max_cycles=500_000_000)
        # The slow pipeline (C) bounds the merged clock; counters sum.
        assert merged.fpga_cycles == max(s.fpga_cycles for s in singles.values())
        assert merged.sw_firings == sum(s.sw_firings for s in singles.values())
        assert merged.hw_firings == sum(s.hw_firings for s in singles.values())
        assert merged.channel_messages == sum(
            s.channel_messages for s in singles.values()
        )

    def test_raytracer_grouped_modes_agree(self):
        workload = _raytracer("B")
        fabric = CosimFabric(workload.design, backend="source")
        mono = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        from repro.apps.raytracer import partitions as rp
        from repro.apps.raytracer.params import RayTracerParams

        merged, _ = run_grouped(
            rp.build_partition,
            args=("B", RayTracerParams(n_triangles=24, image_width=3, image_height=3)),
            processes=2,
        )
        assert asdict(merged) == asdict(mono)

    @pytest.mark.parametrize("scheduler", ["warp", "lockstep", "distributed"])
    def test_unknown_scheduler_rejected(self, scheduler):
        workload = _vorbis("B")
        fabric = CosimFabric(workload.design, backend="source")
        with pytest.raises(ValueError, match=r"\(expected 'grouped'\)"):
            fabric.run(workload.cosim_done, scheduler=scheduler)


def _short_circuit_workload(params):
    """A multi-group workload whose done predicate violates the contract:
    the generator short-circuits, so the reset-state probe only ever sees
    the first pipeline's counter."""
    workload = vp.build_group_partition("BC", params)

    class ShortCircuit:
        design = workload.design
        pipes = workload.pipes

        def cosim_done(self, cosim):
            return all(
                cosim.read(pipe.frames_out) >= params.n_frames
                for pipe in self.pipes
            )

    return ShortCircuit()


# --------------------------------------------------------------------------
# read scoping & observation attribution
# --------------------------------------------------------------------------


class TestGroupScoping:
    def test_probe_records_observed_registers(self):
        workload = vp.build_group_partition("BC", PARAMS)
        fabric = CosimFabric(workload.design, backend="source")
        already, observed = fabric.probe_done(workload.cosim_done)
        assert not already
        assert observed == {pipe.frames_out for pipe in workload.pipes}
        assert {fabric.group_of_register(r) for r in observed} == {0, 1}

    def test_out_of_group_reads_resolve_to_reset_values(self):
        """While group 0 runs, group 1's counters read as reset -- so the
        serially scheduled run matches per-process runs bit for bit."""
        workload = vp.build_group_partition("BC", PARAMS)
        fabric = CosimFabric(workload.design, backend="source")
        p0, p1 = workload.pipes
        fabric.run_group(0, workload.cosim_done)
        # Group 0 really ran and its counter advanced...
        assert fabric.read(p0.frames_out) == PARAMS.n_frames
        assert fabric.read(p1.frames_out) == 0
        # ...and during a group-1 run, group 0's progress is invisible.
        seen = {}

        def spying_done(cosim):
            seen["p0"] = cosim.read(p0.frames_out)
            return workload.cosim_done(cosim)

        fabric.run_group(1, spying_done)
        assert seen["p0"] == 0  # reset value, not the final 3
        assert fabric.read(p1.frames_out) == PARAMS.n_frames

    def test_group_observations_are_plain_data(self):
        workload = vp.build_group_partition("BC", PARAMS)
        fabric = CosimFabric(workload.design, backend="source")
        fabric.run_group(0, workload.cosim_done)
        obs = fabric.observations_for_domains(d.name for d in fabric.group_domains(0))
        (key, value), = obs.items()
        assert key.endswith("audio.frames_out") and "p0" in key
        assert value == PARAMS.n_frames
        # The other group's observed register reports its (unrun) value --
        # a worker only ever reports the group it actually ran.
        (other_key, other_value), = fabric.observations_for_domains(
            d.name for d in fabric.group_domains(1)
        ).items()
        assert "p1" in other_key and other_value == 0

    def test_evaluate_done_with_finals(self):
        workload = vp.build_group_partition("BC", PARAMS)
        fabric = CosimFabric(workload.design, backend="source")
        finals = {
            pipe.frames_out.full_name: PARAMS.n_frames for pipe in workload.pipes
        }
        assert fabric.evaluate_done(workload.cosim_done, finals)
        assert not fabric.evaluate_done(workload.cosim_done, {})

    def test_short_circuiting_predicate_fails_loudly(self):
        """A done predicate whose read set is data-dependent (cross-group
        short-circuit) cannot be served by worker-reported finals; the
        grouped runner must refuse rather than report INCOMPLETE."""
        with pytest.raises(SimulationError, match="full register set"):
            run_grouped(
                _short_circuit_workload, args=(PARAMS,), processes=1
            )

    def test_grouped_report_accounting(self):
        merged, outcomes = run_grouped(
            vp.build_group_partition, args=("BC", PARAMS), processes=2
        )
        assert [o.name for o in outcomes] == ["vorbis_mg_BC[g0]", "vorbis_mg_BC[g1]"]
        assert [o.kind for o in outcomes] == ["group", "group"]
        for index, outcome in enumerate(outcomes):
            (key, value), = outcome.observations.items()
            assert f"_p{index}." in key and value == PARAMS.n_frames
        assert merged.completed
