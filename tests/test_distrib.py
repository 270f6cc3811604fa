"""Tests for distributed co-simulation (``repro.sim.distrib``).

Four groups:

* **Differential** -- ``run_distributed`` must be bitwise identical to
  ``scheduler="grouped"`` on a fresh elaboration, on both backends
  (interp/source), over Vorbis and ray-tracer designs, with real framed
  wire words crossing process boundaries on every cut link; without
  ``fork`` it falls back to the in-process grouped run.
* **Faults** -- a worker that dies mid-run surfaces as a
  ``SimulationError`` naming the member and exit code; a full ring
  backpressures without perturbing simulated timing (bitwise-equal result,
  ``full_retries`` counted, every sent message delivered); undersized
  rings, retired placements and carriers, and done predicates over
  registers no int64 cell holds are rejected.
* **Pool shutdown** -- ``_collect_pool_results`` regression: a cleanly
  exited pool with results still buffered in the queue's feeder pipe is
  not a dead pool, and the lowest-indexed failure wins.
* **Error order** -- when every group fails, ``run_grouped`` and
  ``run_distributed`` raise the serial grouped run's error.
"""

import multiprocessing
import os
import queue
from dataclasses import asdict

import pytest

from repro.apps.raytracer import partitions as rp
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.core.action import par
from repro.core.domains import SW, Domain
from repro.core.errors import SimulationError
from repro.core.expr import BinOp, Const, KernelCall, RegRead
from repro.core.module import Design, Module
from repro.core.synchronizers import SyncFifo
from repro.core.types import UIntT
from repro.sim.cosim import CosimFabric
from repro.sim.distrib import run_distributed
from repro.sim.pool import _collect_pool_results, run_grouped

PARAMS = VorbisParams(n_frames=3)
RT_PARAMS = RayTracerParams(n_triangles=24, image_width=3, image_height=3)

#: name -> (module-level builder, args) -- the picklable spec contract.
WORKLOADS = {
    "vorbis_B": (vp.build_partition, ("B", PARAMS)),
    "vorbis_C": (vp.build_partition, ("C", PARAMS)),
    "vorbis_G": (vp.build_multi_partition, ("G", PARAMS)),
    "vorbis_H": (vp.build_multi_partition, ("H", PARAMS)),
    "vorbis_mg_BC": (vp.build_group_partition, ("BC", PARAMS)),
    "vorbis_mg_BCF": (vp.build_group_partition, ("BCF", PARAMS)),
    "vorbis_mg_BFF": (vp.build_group_partition, ("BFF", PARAMS)),
    "raytracer_B": (rp.build_partition, ("B", RT_PARAMS)),
    "raytracer_C": (rp.build_partition, ("C", RT_PARAMS)),
}

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="distributed workers need the fork start method"
)

_GROUPED_CACHE = {}


def grouped_reference(name, backend):
    """Serial ``scheduler="grouped"`` result for a catalog workload (cached)."""
    key = (name, backend)
    if key not in _GROUPED_CACHE:
        builder, args = WORKLOADS[name]
        workload = builder(*args)
        fabric = CosimFabric(workload.design, backend=backend)
        result = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        _GROUPED_CACHE[key] = asdict(result)
    return _GROUPED_CACHE[key]


def distributed(name, **kwargs):
    builder, args = WORKLOADS[name]
    return run_distributed(builder, args, **kwargs)


# --------------------------------------------------------------------------
# differential matrix: distributed == grouped, bit for bit
# --------------------------------------------------------------------------


class TestDistributedDifferential:
    #: workload -> extra ``run_distributed`` keywords.
    CASES = {
        "vorbis_B": {},
        # The benchmark's distributed leg, keyword for keyword.
        "vorbis_C": {"placement": "domain", "carrier": "shm", "processes": 2},
        "vorbis_G": {},
        "vorbis_H": {},
        "vorbis_mg_BC": {},
        "vorbis_mg_BCF": {},
        # A lockstep pair beside two solo members that share one worker,
        # which restores its reset snapshot between them.
        "vorbis_mg_BFF": {"processes": 1},
        # Struct layouts on the wire.
        "raytracer_B": {},
        "raytracer_C": {},
    }

    @pytest.mark.parametrize("backend", ["interp", "source"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_grouped(self, name, backend):
        report = distributed(name, backend=backend, **self.CASES[name])
        assert asdict(report.result) == grouped_reference(name, backend)
        assert report.result.completed
        if HAVE_FORK:
            assert not report.fallback
            # Every case has a multi-domain group, whose cut links really
            # crossed a process boundary.
            assert report.data_plane["records"] > 0
            assert report.data_plane["words"] > 0

    @needs_fork
    def test_outcomes_report_worker_processes(self):
        report = distributed("vorbis_mg_BFF", processes=1)
        # Two lockstep members, each in its own worker, and both solo
        # members in one more; none of them is the parent.
        assert report.processes == 3
        assert [o.mode for o in report.outcomes] == ["lockstep", "lockstep", "solo", "solo"]
        assert len({o.pid for o in report.outcomes}) == 3
        assert all(o.pid != os.getpid() for o in report.outcomes)
        assert "wire words crossed process boundaries" in report.table()

    def test_without_fork_runs_grouped_in_process(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        report = distributed("vorbis_mg_BC", backend="source")
        assert report.fallback
        assert (report.processes, report.outcomes) == (1, [])
        assert asdict(report.result) == grouped_reference("vorbis_mg_BC", "source")


# --------------------------------------------------------------------------
# faults: worker death, carrier backpressure, undersized rings
# --------------------------------------------------------------------------

HW_CRASH = Domain("HW_CRASH")
HW_BURST = Domain("HW_BURST")


class _TestWorkload:
    """Minimal workload object satisfying the ``cosim_done`` contract."""

    def __init__(self, design, done):
        self.design = design
        self._done = done

    def cosim_done(self, cosim):
        return self._done(cosim)


def build_crash_pipeline(n_items=6, crash_at=3):
    """SW source -> HW stage whose kernel kills the process at ``crash_at``."""
    top = Module("top")
    src = top.add_submodule(Module("src", domain=SW))
    st = top.add_submodule(Module("st", domain=HW_CRASH))
    q = top.add_submodule(SyncFifo("q", UIntT(32), SW, HW_CRASH, depth=2))
    q_out = top.add_submodule(SyncFifo("q_out", UIntT(32), HW_CRASH, SW, depth=2))
    cnt = src.add_register("cnt", UIntT(32), 0)
    ndone = src.add_register("ndone", UIntT(32), 0)
    src.add_rule(
        "produce",
        par(
            q.call("enq", RegRead(cnt)),
            cnt.write(BinOp("+", RegRead(cnt), Const(1))),
        ).when(BinOp("<", RegRead(cnt), Const(n_items))),
    )

    def lethal(x):
        if x >= crash_at:
            os._exit(3)
        return x + 1

    step = KernelCall("lethal", lethal, [q.value("first")], sw_cycles=10, hw_cycles=2)
    st.add_rule("stage", par(q_out.call("enq", step), q.call("deq")))
    src.add_rule(
        "collect",
        par(q_out.call("deq"), ndone.write(BinOp("+", RegRead(ndone), Const(1)))),
    )
    design = Design(top, "crash_pipe")
    return _TestWorkload(design, lambda c: c.read(ndone) >= n_items)


def build_burst_pipeline(n_items=5, depth=3):
    """Two sync FIFOs on one HW->SW link: two records pumped per cycle.

    With a ring sized for a single framed record, the second route's record
    of each producing cycle must wait an iteration in the local pool --
    the backpressure path.  The channel's 50-cycle propagation latency
    dwarfs that deferral, so simulated timing is unaffected.
    """
    top = Module("top")
    src = top.add_submodule(Module("src", domain=HW_BURST))
    sink = top.add_submodule(Module("sink", domain=SW))
    q1 = top.add_submodule(SyncFifo("q1", UIntT(32), HW_BURST, SW, depth=depth))
    q2 = top.add_submodule(SyncFifo("q2", UIntT(32), HW_BURST, SW, depth=depth))
    cnt1 = src.add_register("cnt1", UIntT(32), 0)
    cnt2 = src.add_register("cnt2", UIntT(32), 0)
    acc1 = sink.add_register("acc1", UIntT(32), 0)
    acc2 = sink.add_register("acc2", UIntT(32), 0)
    ndone1 = sink.add_register("ndone1", UIntT(32), 0)
    ndone2 = sink.add_register("ndone2", UIntT(32), 0)
    src.add_rule(
        "produce1",
        par(
            q1.call("enq", RegRead(cnt1)),
            cnt1.write(BinOp("+", RegRead(cnt1), Const(1))),
        ).when(BinOp("<", RegRead(cnt1), Const(n_items))),
    )
    src.add_rule(
        "produce2",
        par(
            q2.call("enq", BinOp("*", RegRead(cnt2), Const(7))),
            cnt2.write(BinOp("+", RegRead(cnt2), Const(1))),
        ).when(BinOp("<", RegRead(cnt2), Const(n_items))),
    )
    sink.add_rule(
        "collect1",
        par(
            acc1.write(BinOp("+", RegRead(acc1), q1.value("first"))),
            q1.call("deq"),
            ndone1.write(BinOp("+", RegRead(ndone1), Const(1))),
        ),
    )
    sink.add_rule(
        "collect2",
        par(
            acc2.write(BinOp("+", RegRead(acc2), q2.value("first"))),
            q2.call("deq"),
            ndone2.write(BinOp("+", RegRead(ndone2), Const(1))),
        ),
    )
    design = Design(top, "burst_pipe")
    # min() reads both counters on every evaluation -- grouped/distributed
    # done predicates must not short-circuit across their register set.
    return _TestWorkload(
        design,
        lambda c: min(c.read(ndone1), c.read(ndone2)) >= n_items,
    )


def build_vector_done_partition():
    """vorbis_B whose done predicate also reads a vector register
    (``window.prev_half``), which no int64 control-block cell can hold."""
    workload = vp.build_partition("B", PARAMS)
    (prev_half,) = workload.modules["window"].registers
    return _TestWorkload(
        workload.design,
        lambda c: c.read(prev_half) is not None
        and c.read(workload.frames_out) >= PARAMS.n_frames,
    )


@needs_fork
class TestFaults:
    @pytest.mark.parametrize("backend", ["interp", "source"])
    def test_worker_crash_names_member(self, backend):
        with pytest.raises(SimulationError, match="died with exit code 3"):
            run_distributed(build_crash_pipeline, backend=backend)

    @pytest.mark.parametrize("backend", ["interp", "source"])
    def test_ring_backpressure_preserves_equality(self, backend):
        workload = build_burst_pipeline()
        fabric = CosimFabric(workload.design, backend=backend)
        ref = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        assert ref.completed

        # One UIntT(32) element frames to 2 words -> a 4-slot ring holds
        # exactly one record, but both routes pump each producing cycle.
        report = run_distributed(build_burst_pipeline, backend=backend, ring_words=4)
        assert asdict(report.result) == asdict(ref)
        assert report.data_plane["full_retries"] > 0
        # Credit conservation: every message the producers sent crossed the
        # wire and was delivered -- nothing lost to the full-ring deferrals.
        assert report.data_plane["records"] == ref.channel_messages

    @pytest.mark.parametrize(
        "option,message",
        [
            ({"ring_words": 4}, "cannot hold one framed record"),
            # Whole groups in processes are run_grouped's job, and the
            # shared-memory ring is the one carrier.
            ({"placement": "group"}, r"unknown placement 'group' \(expected 'domain'\)"),
            ({"carrier": "socket"}, r"unknown carrier 'socket' \(expected 'shm'\)"),
        ],
        ids=["undersized_ring", "group_placement", "socket_carrier"],
    )
    def test_invalid_option_rejected(self, option, message):
        with pytest.raises(ValueError, match=message):
            distributed("vorbis_B", **option)

    def test_non_integer_done_register_names_run_grouped(self):
        with pytest.raises(SimulationError, match="int64 cells.*use run_grouped"):
            run_distributed(build_vector_done_partition)


# --------------------------------------------------------------------------
# pool shutdown regression (satellite of the distributed work: the sweep
# pool shares the "dead workers vs. buffered results" edge with distrib)
# --------------------------------------------------------------------------


class _FakeWorker:
    def __init__(self, exitcode):
        self.exitcode = exitcode

    def is_alive(self):
        return False


class _FakeQueue:
    """Queue whose first ``empties`` gets raise Empty, then drains ``items``.

    Models a multiprocessing queue whose feeder thread is still flushing
    when every worker has already exited.
    """

    def __init__(self, items, empties=1):
        self._items = list(items)
        self._empties = empties

    def get(self, timeout=None):
        if self._empties > 0:
            self._empties -= 1
            raise queue.Empty
        if self._items:
            return self._items.pop(0)
        raise queue.Empty


class TestPoolShutdown:
    def test_clean_exit_with_buffered_results_is_not_a_dead_pool(self):
        workers = [_FakeWorker(0), _FakeWorker(0)]
        results = _FakeQueue([(0, True, "a"), (1, True, "b")], empties=1)
        received, failure = _collect_pool_results(results, workers, 2)
        assert failure is None
        assert received == {0: (True, "a"), 1: (True, "b")}

    def test_crashed_worker_reports_exit_codes(self):
        workers = [_FakeWorker(0), _FakeWorker(1)]
        results = _FakeQueue([(0, True, "a")], empties=1)
        received, failure = _collect_pool_results(results, workers, 2)
        assert received == {0: (True, "a")}
        assert isinstance(failure, SimulationError)
        assert "worker exit codes [1]" in str(failure)

    def test_clean_exit_with_lost_results_still_fails(self):
        workers = [_FakeWorker(0)]
        results = _FakeQueue([], empties=1)
        received, failure = _collect_pool_results(results, workers, 1)
        assert received == {}
        assert isinstance(failure, SimulationError)
        assert "results are missing" in str(failure)

    def test_lowest_indexed_failure_wins(self):
        """Whatever order workers finish in, the error is the serial run's."""
        first, second = SimulationError("task 0"), SimulationError("task 1")
        results = _FakeQueue([(1, False, second), (0, False, first)], empties=0)
        received, failure = _collect_pool_results(results, [_FakeWorker(0)], 2)
        assert set(received) == {0, 1}
        assert failure is first

    def test_lowest_indexed_failure_wins_while_draining(self):
        """Failures still in the feeder pipe when every worker has exited
        are drained, and ordered, the same way."""
        first, second = SimulationError("task 0"), SimulationError("task 1")
        results = _FakeQueue([(1, False, second), (0, False, first)], empties=1)
        received, failure = _collect_pool_results(results, [_FakeWorker(0)], 2)
        assert set(received) == {0, 1}
        assert failure is first


# --------------------------------------------------------------------------
# error order: a failing parallel run raises the serial run's error
# --------------------------------------------------------------------------

#: A budget every group of vorbis_mg_BCF, and vorbis_G, exhausts.
BUDGET = {"max_cycles": 40.0}

#: Iteration budgets (``run_distributed`` only) exhausted after some
#: iterations and before the first one: the two places a distributed
#: member checks its budget.
ITERATION_BUDGETS = {
    "mid_run": {"max_iterations": 25},
    "at_start": {"max_iterations": 0},
}

RUNNERS = {
    "run_grouped": lambda builder, args, budget: run_grouped(
        builder, args, processes=3, **budget
    ),
    "run_grouped_serial": lambda builder, args, budget: run_grouped(
        builder, args, processes=1, **budget
    ),
    "distributed_domain": lambda builder, args, budget: run_distributed(
        builder, args, **budget
    ),
}


def serial_error(name, budget):
    """The serial grouped run's error on a catalog workload."""
    builder, args = WORKLOADS[name]
    workload = builder(*args)
    with pytest.raises(SimulationError) as serial:
        CosimFabric(workload.design).run(workload.cosim_done, **budget)
    return str(serial.value)


def assert_raises_serial_error(runner, name, budget, expected):
    """Five runs, so a lucky arrival order cannot pass for the right one."""
    builder, args = WORKLOADS[name]
    for _ in range(5):
        with pytest.raises(SimulationError) as err:
            RUNNERS[runner](builder, args, budget)
        assert str(err.value) == expected


class TestErrorOrder:
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_budget_error_is_the_serial_one(self, runner):
        """Groups fail in any order across processes; the serial grouped
        run raises group 0's error, and so must every runner."""
        expected = serial_error("vorbis_mg_BCF", BUDGET)
        assert " (group 0: " in expected
        assert_raises_serial_error(runner, "vorbis_mg_BCF", BUDGET, expected)

    @pytest.mark.parametrize("when", sorted(ITERATION_BUDGETS))
    def test_iteration_budget_error_is_the_serial_one(self, when):
        budget = ITERATION_BUDGETS[when]
        expected = serial_error("vorbis_mg_BCF", budget)
        assert " (group 0: " in expected
        assert_raises_serial_error("distributed_domain", "vorbis_mg_BCF", budget, expected)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_one_group_budget_error_is_the_serial_one(self, runner):
        """vorbis_G is one group of three domains: under domain placement
        each member exhausts the budget in its own process, and whichever
        reports first, the error is the serial run's, with no group label."""
        expected = serial_error("vorbis_G", BUDGET)
        assert "exceeded its cycle/iteration budget" in expected
        assert "(group" not in expected
        assert_raises_serial_error(runner, "vorbis_G", BUDGET, expected)
