"""Multiprocess sharding of co-simulations: sweeps and single-design groups.

Two kinds of parallelism live here, both thin wrappers over the unified
work-stealing worker pool of :mod:`repro.sim.pool` (one submission path,
one worker-side execution path, per-worker resident fabrics -- workers
never receive an elaborated design; every task names a module-level
*builder*, picklable by qualified name, plus its arguments):

* **Sweeps** (:func:`run_sweep` over :class:`SweepTask`) -- a partitioning
  study (Figure 13: every placement letter of every application) is
  embarrassingly parallel: each point elaborates its own design and runs
  its own fabric, sharing nothing.  Results reassemble by task name, so a
  sharded sweep returns exactly the same per-task ``CosimResult``s as a
  serial one (``tests/test_fabric.py`` verifies this bit for bit).
  Repeated points of the *same* builder spec within one worker reuse its
  resident fabric (snapshot/restore instead of re-elaboration).

* **Groups of one design** (:func:`run_grouped` over :class:`GroupTask`)
  -- the independent partition groups of a *single* design
  (:meth:`~repro.core.partition.Partitioning.independent_groups`) share no
  synchronizer, so each group sub-fabric runs under its own clock in its
  own worker (:meth:`~repro.sim.cosim.CosimFabric.run_group`): the worker
  elaborates the full design (once per worker, resident thereafter), runs
  only its group, and returns the group's plain-data ``CosimResult`` plus
  the final values of the done predicate's observed registers it owns.
  The parent merges the parts with
  :meth:`~repro.sim.cosim.CosimResult.merge` and re-evaluates the full
  done predicate over the reported finals -- producing a result bitwise
  identical to the fabric's own serial grouped run
  (``tests/test_groups.py`` verifies this bit for bit).

Process pools come from the ``fork`` start method where available
(workloads built from closures elaborate identically in forked children)
and degrade to in-process serial execution -- the same code path --
when pools are unavailable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.pycodegen import resolve_backend
from repro.sim.cosim import CosimFabric, CosimResult
from repro.sim.pool import PoolOutcome, PoolTask, run_pool, run_pool_task
from repro.sim.serve import safe_ratio


@dataclass
class SweepTask:
    """One point of a sweep: how a worker builds and runs a workload.

    ``builder(*args, **kwargs)`` must be picklable (a module-level
    callable) and return a workload object exposing ``.design`` and a
    ``cosim_done`` termination predicate.  ``engine_kinds`` (domain name ->
    ``"hw"``/``"sw"``) selects the N-domain fabric; when ``None`` the
    classic two-partition :class:`~repro.sim.cosim.Cosimulator` runs it.
    ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend` at construction.
    """

    name: str
    builder: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None
    engine_kinds: Optional[Dict[str, str]] = None
    max_cycles: float = 500_000_000.0

    def __post_init__(self):
        self.backend = resolve_backend(self.backend)


@dataclass
class SweepOutcome:
    """Per-task outcome: the simulation result plus worker-side wall time."""

    name: str
    result: CosimResult
    wall_seconds: float
    pid: int
    #: Whether the worker elaborated for this task (False: it ran on a
    #: resident fabric the worker already held for the same builder spec).
    elaborated: bool = True


@dataclass
class SweepReport:
    """A completed sweep: per-task outcomes plus aggregate accounting."""

    outcomes: Dict[str, SweepOutcome]
    wall_seconds: float
    processes: int

    @property
    def results(self) -> Dict[str, CosimResult]:
        return {name: o.result for name, o in self.outcomes.items()}

    @property
    def worker_seconds(self) -> float:
        """Total compute across workers (serial-equivalent wall time)."""
        return sum(o.wall_seconds for o in self.outcomes.values())

    @property
    def elaborations(self) -> int:
        """How many tasks paid elaboration (the rest ran on resident fabrics)."""
        return sum(1 for o in self.outcomes.values() if o.elaborated)

    @property
    def speedup(self) -> float:
        """Parallel efficiency proxy: worker compute over sweep wall time."""
        return safe_ratio(self.worker_seconds, self.wall_seconds, default=1.0)

    def table(self) -> str:
        lines = [f"{'task':<18} {'fpga cycles':>12} {'wall (s)':>9} {'pid':>7}"]
        for name, o in self.outcomes.items():
            lines.append(
                f"{name:<18} {o.result.fpga_cycles:>12.0f} {o.wall_seconds:>9.3f} {o.pid:>7}"
            )
        lines.append(
            f"{len(self.outcomes)} tasks on {self.processes} processes: "
            f"{self.wall_seconds:.3f}s wall, {self.worker_seconds:.3f}s compute "
            f"({self.speedup:.2f}x), {self.elaborations} elaborations"
        )
        return "\n".join(lines)


def _sweep_pool_task(task: SweepTask) -> PoolTask:
    return PoolTask(
        name=task.name,
        builder=task.builder,
        args=task.args,
        kwargs=dict(task.kwargs),
        backend=task.backend,
        engine_kinds=dict(task.engine_kinds) if task.engine_kinds else None,
        max_cycles=task.max_cycles,
        kind="run",
    )


def _sweep_outcome(outcome: PoolOutcome) -> SweepOutcome:
    return SweepOutcome(
        name=outcome.name,
        result=outcome.result,
        wall_seconds=outcome.wall_seconds,
        pid=outcome.pid,
        elaborated=outcome.elaborated,
    )


def run_task(task: SweepTask) -> SweepOutcome:
    """Run one sweep task in the current process (resident-cache aware)."""
    return _sweep_outcome(run_pool_task(_sweep_pool_task(task)))


def run_sweep(
    tasks: List[SweepTask],
    processes: Optional[int] = None,
    mp_context: Optional[str] = None,
) -> SweepReport:
    """Run a sweep, fanning tasks across ``processes`` worker processes.

    ``processes=None`` uses one worker per CPU (capped at the task count);
    dispatch, work stealing and serial degradation per
    :func:`repro.sim.pool.run_pool`.
    """
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ValueError(f"sweep task names must be unique, got {names}")
    if processes is None:
        processes = min(len(tasks), os.cpu_count() or 1)
    processes = max(1, min(processes, len(tasks))) if tasks else 1

    t0 = time.perf_counter()
    outcomes, processes = run_pool(
        [_sweep_pool_task(t) for t in tasks], processes, mp_context
    )
    return SweepReport(
        outcomes={o.name: _sweep_outcome(o) for o in outcomes},
        wall_seconds=time.perf_counter() - t0,
        processes=processes,
    )


# --------------------------------------------------------------------------
# single-design group parallelism
# --------------------------------------------------------------------------


def evaluate_grouped_done(
    fabric: CosimFabric,
    done: Callable[[CosimFabric], bool],
    observed,
    finals: Dict[str, Any],
    *,
    caller: str = "run_grouped",
) -> bool:
    """Re-evaluate a full done predicate over worker-reported finals.

    The shared completion step of every process-parallel grouped execution
    (:func:`run_grouped` and :func:`repro.sim.distrib.run_distributed`):
    evaluate ``done`` on the parent's never-run fabric with the workers'
    observed finals overriding the registers they own, while *recording*
    the evaluation's read set.  ``observed`` is the reset-state probe's
    read set from before dispatch.

    A predicate whose read set is static is fully served by the finals.
    One that reads *different* registers at completion than it did at the
    reset-state probe (e.g. a cross-group conjunction built from a
    short-circuiting generator) just evaluated those reads against reset
    values -- whichever way the verdict went, it is unreliable, so this
    fails loudly instead of reporting it.
    """
    completed, final_reads = fabric.probe_done(done, finals)
    unreported = sorted(
        reg.full_name
        for reg in final_reads
        if reg.full_name not in finals
        and reg not in observed
        and fabric.group_of_register(reg) is not None
    )
    if unreported:
        raise SimulationError(
            f"{caller} cannot evaluate {fabric.design.name}'s done "
            f"predicate: it read {unreported} at completion but not at the "
            "reset-state probe, so no worker reported their finals.  Done "
            "predicates for grouped runs must read their full register set "
            "on every evaluation (no cross-group short-circuit)."
        )
    return completed


@dataclass
class GroupTask:
    """One independent group of one design: what a worker builds and runs.

    Like :class:`SweepTask`, ``builder(*args, **kwargs)`` must be picklable
    and return a workload exposing ``.design`` and ``cosim_done``; the
    worker elaborates the *full* design, then runs only group
    ``group_index`` of its fabric (reads escaping the group resolve to
    reset values, so the outcome is independent of every other group).
    ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend` at construction.
    """

    name: str
    builder: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None
    engine_kinds: Optional[Dict[str, str]] = None
    group_index: int = 0
    max_cycles: float = 500_000_000.0

    def __post_init__(self):
        self.backend = resolve_backend(self.backend)


@dataclass
class GroupOutcome:
    """Per-group outcome: the group's result, its observed finals, timing."""

    name: str
    group_index: int
    result: CosimResult
    #: Final values (keyed by register full name) of the done predicate's
    #: observed registers this group owns -- the plain-data slice the parent
    #: needs to re-evaluate the full predicate across groups.
    observations: Dict[str, Any]
    wall_seconds: float
    pid: int
    #: Whether the worker elaborated for this task (False: resident fabric).
    elaborated: bool = True


@dataclass
class GroupedReport:
    """A completed grouped run: the merged result plus per-group accounting."""

    result: CosimResult
    outcomes: List[GroupOutcome]
    wall_seconds: float
    processes: int

    @property
    def worker_seconds(self) -> float:
        """Total compute across group workers (serial-equivalent wall time)."""
        return sum(o.wall_seconds for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Wall-clock speedup factor: group compute over run wall time."""
        return safe_ratio(self.worker_seconds, self.wall_seconds, default=1.0)

    def table(self) -> str:
        lines = [f"{'group':<22} {'fpga cycles':>12} {'wall (s)':>9} {'pid':>7}"]
        for o in self.outcomes:
            lines.append(
                f"{o.name:<22} {o.result.fpga_cycles:>12.0f} {o.wall_seconds:>9.3f} {o.pid:>7}"
            )
        lines.append(
            f"{len(self.outcomes)} groups on {self.processes} processes: "
            f"{self.wall_seconds:.3f}s wall, {self.worker_seconds:.3f}s compute "
            f"({self.speedup:.2f}x); merged: {self.result!r}"
        )
        return "\n".join(lines)


def _group_pool_task(task: GroupTask) -> PoolTask:
    # Group workers always use the N-domain fabric (run_group is a fabric
    # entry point), even with default engine kinds -- the historical
    # run_group_task behaviour.
    return PoolTask(
        name=task.name,
        builder=task.builder,
        args=task.args,
        kwargs=dict(task.kwargs),
        backend=task.backend,
        engine_kinds=dict(task.engine_kinds) if task.engine_kinds else None,
        max_cycles=task.max_cycles,
        kind="group",
        group_index=task.group_index,
        fabric_kind="fabric",
    )


def _group_outcome(task: GroupTask, outcome: PoolOutcome) -> GroupOutcome:
    return GroupOutcome(
        name=outcome.name,
        group_index=task.group_index,
        result=outcome.result,
        observations=dict(outcome.observations or {}),
        wall_seconds=outcome.wall_seconds,
        pid=outcome.pid,
        elaborated=outcome.elaborated,
    )


def run_group_task(task: GroupTask) -> GroupOutcome:
    """Run one group of one design in the current process (resident-aware)."""
    return _group_outcome(task, run_pool_task(_group_pool_task(task)))


def run_grouped(
    builder: Callable[..., Any],
    args: Tuple[Any, ...] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    *,
    name: Optional[str] = None,
    backend: Optional[str] = None,
    engine_kinds: Optional[Dict[str, str]] = None,
    processes: Optional[int] = None,
    max_cycles: float = 500_000_000.0,
    mp_context: Optional[str] = None,
) -> GroupedReport:
    """Run one design's independent groups across worker processes.

    The parent elaborates the workload once -- to count the fabric's groups
    and, at the end, to re-evaluate the full done predicate over the
    workers' reported finals -- but never runs it.  One :class:`GroupTask`
    per group is dispatched in group order through the unified pool
    (``processes<=1`` runs them serially in this process, same code path);
    the merged result obeys
    :meth:`~repro.sim.cosim.CosimResult.merge`'s deterministic rules and is
    bitwise identical to ``CosimFabric.run``'s own serial grouped result.
    ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend` once, here.
    """
    backend = resolve_backend(backend)
    kwargs = dict(kwargs or {})
    workload = builder(*args, **kwargs)
    # The parent fabric never executes a rule: it only counts groups and
    # re-evaluates the done predicate over reported finals, so build it on
    # the interpreted backend and skip the whole-design code generation the
    # workers will each pay for their own runs.
    fabric = CosimFabric(
        workload.design,
        backend="interp",
        engine_kinds=dict(engine_kinds) if engine_kinds else None,
    )
    n_groups = fabric.group_count
    # The reset-state read set; used after the merge to detect predicates
    # whose reads turned out to be data-dependent (see below).
    _, observed = fabric.probe_done(workload.cosim_done)
    base = name or workload.design.name
    tasks = [
        GroupTask(
            name=f"{base}[g{i}]",
            builder=builder,
            args=args,
            kwargs=kwargs,
            backend=backend,
            engine_kinds=dict(engine_kinds) if engine_kinds else None,
            group_index=i,
            max_cycles=max_cycles,
        )
        for i in range(n_groups)
    ]
    if processes is None:
        processes = min(n_groups, os.cpu_count() or 1)
    processes = max(1, min(processes, n_groups))

    t0 = time.perf_counter()
    pool_outcomes, processes = run_pool(
        [_group_pool_task(t) for t in tasks], processes, mp_context
    )
    wall = time.perf_counter() - t0
    outcomes = [_group_outcome(t, o) for t, o in zip(tasks, pool_outcomes)]

    finals: Dict[str, Any] = {}
    for outcome in outcomes:
        finals.update(outcome.observations)
    merged = CosimResult.merge([o.result for o in outcomes])
    merged.completed = evaluate_grouped_done(
        fabric, workload.cosim_done, observed, finals
    )
    return GroupedReport(
        result=merged, outcomes=outcomes, wall_seconds=wall, processes=processes
    )


def merge_results(results: Dict[str, CosimResult]) -> Dict[str, Any]:
    """Aggregate statistics across a sweep's per-task results.

    A thin *presentation* wrapper over
    :meth:`~repro.sim.cosim.CosimResult.merge` (``strict=False``: different
    placements of one design legitimately share rule names), used when the
    tasks are shards of one study -- the points of a placement sweep, or a
    design's independent groups -- and a single roll-up row is wanted next
    to the per-task rows.  The merge semantics (max cycles, ordered sums,
    key unions) live in ``CosimResult.merge``; only the row shape is
    decided here.
    """
    if not results:
        return {
            "tasks": 0,
            "completed": 0,
            "fpga_cycles_max": 0.0,
            "fpga_cycles_sum": 0.0,
            "sw_firings": 0,
            "hw_firings": 0,
            "channel_messages": 0,
            "channel_words": 0,
        }
    merged = CosimResult.merge(results.values(), strict=False)
    return {
        "tasks": len(results),
        "completed": sum(1 for r in results.values() if r.completed),
        "fpga_cycles_max": merged.fpga_cycles,
        "fpga_cycles_sum": sum(r.fpga_cycles for r in results.values()),
        "sw_firings": merged.sw_firings,
        "hw_firings": merged.hw_firings,
        "channel_messages": merged.channel_messages,
        "channel_words": merged.channel_words,
    }
