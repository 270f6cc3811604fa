"""A unified work-stealing worker pool over resident fabrics.

Every kind of parallel work the simulator fans out -- sweep points
(``kind="run"``), independent groups of one design (``kind="group"``,
dispatched by :func:`run_grouped`) and live serving requests
(``kind="request"``, carrying a :class:`~repro.sim.serve.Request`) --
reduces to the same worker-side shape: *elaborate a workload (once), run
something on its fabric, report plain data*.  This module is the one path
by which whole fabrics' work leaves the process (only
:func:`repro.sim.distrib.run_distributed` splits a group across processes):

* a :class:`PoolTask` names a picklable module-level builder plus its
  arguments (the compile-once / run-anywhere contract: workers never
  receive an elaborated design -- foreign-kernel closures do not pickle)
  and one of three task kinds;
* :func:`run_pool` fans tasks out over ``fork``-context worker processes
  pulling from one shared queue -- **work stealing**: a worker that
  finishes early takes the next pending task instead of idling behind a
  static chunking -- and degrades to in-process serial execution (the same
  code path) when pools are unavailable;
* each worker keeps a small cache of **resident**
  :class:`~repro.sim.serve.FabricServer`\\ s keyed by builder spec, so
  repeated tasks against one design elaborate once and run from the
  resident fabric via snapshot/restore (bitwise identical to fresh
  elaboration -- the serving layer's pinned invariant).

Result ordering is deterministic: outcomes are returned in task-submission
order regardless of which worker ran what, and a failing pool raises the
lowest-indexed task's error, as a serial run would.  A sweep is
:func:`run_pool` over ``kind="run"`` tasks; :func:`run_grouped` merges one
design's group tasks, each reporting the finals of the ``cosim_done``
thresholds its group owns, into a result bitwise identical to the
fabric's own serial grouped run.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.pycodegen import resolve_backend
from repro.sim.cosim import CosimFabric, CosimResult, require_thresholds
from repro.sim.serve import FabricServer, Request

#: Task kinds the pool executes.
POOL_TASK_KINDS = ("run", "group", "request")

#: How many resident servers one worker keeps before evicting the least
#: recently used.
RESIDENT_LIMIT = 4

#: Give up on a wedged pool after this many seconds without any result.
_POOL_STALL_SECONDS = 600.0


@dataclass
class PoolTask:
    """One unit of pool work: a builder spec plus what to run on its fabric.

    ``kind`` selects the worker-side action:

    * ``"run"`` -- run the whole fabric to the workload's own ``cosim_done``
      (a sweep point);
    * ``"group"`` -- run group ``group_index`` of the fabric and report the
      finals of the ``cosim_done`` thresholds the group owns (one part of
      :func:`run_grouped`);
    * ``"request"`` -- serve ``request`` on the resident fabric (one unit of
      streamed traffic).

    Every kind runs on the resident :class:`~repro.sim.serve.FabricServer`'s
    N-domain fabric.  ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend` at construction, in
    the submitting process, so the resident-cache key is always concrete.
    """

    name: str
    builder: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None
    max_cycles: float = 500_000_000.0
    kind: str = "run"
    group_index: int = 0
    request: Optional[Request] = None

    def __post_init__(self):
        self.backend = resolve_backend(self.backend)
        if self.kind not in POOL_TASK_KINDS:
            raise ValueError(
                f"unknown pool task kind {self.kind!r} (expected one of {POOL_TASK_KINDS})"
            )
        if self.kind == "request" and self.request is None:
            raise ValueError(f"pool task {self.name!r} has kind='request' but no request")


@dataclass
class PoolOutcome:
    """Plain-data outcome of one pool task."""

    name: str
    kind: str
    result: CosimResult
    #: Group tasks only: final values of the done thresholds' registers
    #: the group owns, keyed by register full name.
    observations: Optional[Dict[str, Any]]
    #: Request tasks only: the request's named output registers.
    outputs: Optional[Dict[str, Any]]
    wall_seconds: float
    pid: int
    #: Whether this task paid elaboration (False: served by a resident
    #: fabric the worker already held for the same builder spec).
    elaborated: bool


# --------------------------------------------------------------------------
# per-worker resident servers
# --------------------------------------------------------------------------

#: builder-spec key -> resident server, least recently used first.  One per
#: process: forked workers start with the parent's (usually empty) cache and
#: diverge from there.
_RESIDENT: "OrderedDict[tuple, FabricServer]" = OrderedDict()


def _spec_key(task: PoolTask) -> tuple:
    """The elaboration identity of a task: everything the fabric's shape
    depends on (and nothing that can vary per run, like max_cycles)."""
    builder = task.builder
    return (
        getattr(builder, "__module__", None),
        getattr(builder, "__qualname__", repr(builder)),
        repr(task.args),
        repr(sorted(task.kwargs.items())),
        task.backend,
    )


def clear_residents() -> None:
    """Drop this process's resident servers (test isolation hook)."""
    _RESIDENT.clear()


def _resident_server(task: PoolTask) -> Tuple[FabricServer, bool]:
    """Get (or elaborate) the resident server for a task's builder spec."""
    key = _spec_key(task)
    server = _RESIDENT.get(key)
    if server is not None:
        _RESIDENT.move_to_end(key)
        return server, False
    server = FabricServer(
        task.builder,
        task.args,
        dict(task.kwargs),
        backend=task.backend,
        max_cycles=task.max_cycles,
    )
    _RESIDENT[key] = server
    while len(_RESIDENT) > RESIDENT_LIMIT:
        _RESIDENT.popitem(last=False)
    return server, True


def run_pool_task(task: PoolTask) -> PoolOutcome:
    """Execute one pool task in the current process against a resident fabric.

    This is the single worker-side execution path of sweeps, grouped runs
    and request serving; the serial fallback of :func:`run_pool` calls it
    directly, so parallel and serial execution share every code path after
    dispatch.
    """
    t0 = time.perf_counter()
    server, elaborated = _resident_server(task)
    # The budget is not part of the elaboration identity; pin it per task
    # so a resident serves mixed budgets correctly.
    server.max_cycles = task.max_cycles
    observations: Optional[Dict[str, Any]] = None
    outputs: Optional[Dict[str, Any]] = None
    if task.kind == "run":
        result = server.serve(Request(name=task.name)).result
    elif task.kind == "group":
        fabric = server.fabric
        done = server.workload.cosim_done
        try:
            result = fabric.run_group(task.group_index, done, max_cycles=task.max_cycles)
            observations = fabric.observations_for_domains(
                done, (d.name for d in fabric.group_domains(task.group_index))
            )
        finally:
            server.reset()
    else:  # "request"
        served = server.serve(task.request)
        result = served.result
        outputs = served.outputs
    return PoolOutcome(
        name=task.name,
        kind=task.kind,
        result=result,
        observations=observations,
        outputs=outputs,
        wall_seconds=time.perf_counter() - t0,
        pid=os.getpid(),
        elaborated=elaborated,
    )


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------


def _worker_loop(task_queue, result_queue) -> None:
    """Worker main: steal tasks until the stop sentinel arrives."""
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, task = item
        try:
            payload = (index, True, run_pool_task(task))
        except BaseException as exc:  # noqa: BLE001 -- report, parent re-raises
            payload = (index, False, _picklable_error(exc))
        result_queue.put(payload)


def _picklable_error(exc: BaseException) -> BaseException:
    """An exception safe to ship over a result queue."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return SimulationError(f"{type(exc).__name__}: {exc}")


def _collect_pool_results(
    result_queue,
    workers,
    n_tasks: int,
    stall_seconds: float = _POOL_STALL_SECONDS,
) -> Tuple[Dict[int, Tuple[bool, Any]], Optional[BaseException]]:
    """Collect ``(index, ok, payload)`` triples until every task reported.

    Returns ``(received, failure)`` where ``received`` maps task index to
    its ``(ok, payload)`` pair and ``failure`` is the lowest-indexed task's
    error -- the one a serial run raises -- whatever order workers
    finished in.  Factored out of :func:`run_pool` (and
    duck-typed: anything with ``get(timeout=)`` / ``is_alive()`` /
    ``exitcode`` will do) so the worker-shutdown edge cases are
    unit-testable without real processes.

    The subtle edge is telling *clean* worker exit apart from a dead pool:
    a worker exits the moment it consumes its stop sentinel, and a
    multiprocessing queue flushes through a feeder thread, so the parent
    can observe "no worker alive" while completed results are still in
    flight.  Seeing dead workers therefore first drains the queue with a
    grace timeout; only results that are *still* missing afterwards mean
    the pool died, and the error says whether any worker actually crashed
    (nonzero exit code) or the results were simply lost.
    """
    received: Dict[int, Tuple[bool, Any]] = {}
    failure: Optional[BaseException] = None
    failed_index = n_tasks

    def record(index, ok, payload):
        nonlocal failure, failed_index
        received[index] = (ok, payload)
        if not ok and index < failed_index:
            failure, failed_index = payload, index

    stalled = 0.0
    while len(received) < n_tasks:
        try:
            index, ok, payload = result_queue.get(timeout=1.0)
        except queue.Empty:
            if any(worker.is_alive() for worker in workers):
                stalled += 1.0
                if stalled >= stall_seconds:
                    failure = failure or SimulationError(
                        f"worker pool stalled with {len(received)}/{n_tasks} tasks done"
                    )
                    break
                continue
            # Every worker has exited.  A clean shutdown (all sentinels
            # consumed, exit code 0) may still have results buffered in the
            # queue's feeder pipe: drain with a grace timeout before
            # concluding anything died.
            while len(received) < n_tasks:
                try:
                    index, ok, payload = result_queue.get(timeout=1.0)
                except queue.Empty:
                    break
                record(index, ok, payload)
            if len(received) < n_tasks and failure is None:
                crashed = sorted(
                    {worker.exitcode for worker in workers} - {0, None}
                )
                detail = (
                    f"worker exit codes {crashed}"
                    if crashed
                    else "all workers exited cleanly but results are missing"
                )
                failure = SimulationError(
                    f"worker pool died after {len(received)}/{n_tasks} tasks "
                    f"({detail})"
                )
            break
        stalled = 0.0
        record(index, ok, payload)
    return received, failure


def run_pool(
    tasks: List[PoolTask],
    processes: Optional[int] = None,
) -> Tuple[List[PoolOutcome], int]:
    """Run tasks on a work-stealing worker pool; returns ``(outcomes, processes)``.

    Outcomes are in task-submission order.  ``processes=None`` uses one
    worker per CPU (capped at the task count); ``processes<=1`` (or a
    single task) runs serially in this process through the identical
    :func:`run_pool_task` path, which is also the automatic fallback when
    the platform cannot start worker processes.  Workers are forked where
    the platform can (workloads built from closures elaborate identically
    in forked children).  A failure raises the lowest-indexed failing
    task's error, after every task has reported.
    """
    tasks = list(tasks)
    if processes is None:
        processes = min(len(tasks), os.cpu_count() or 1)
    processes = max(1, min(processes, len(tasks))) if tasks else 1
    if processes <= 1 or len(tasks) <= 1:
        return [run_pool_task(task) for task in tasks], 1

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    try:
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        workers = [
            ctx.Process(target=_worker_loop, args=(task_queue, result_queue), daemon=True)
            for _ in range(processes)
        ]
        for worker in workers:
            worker.start()
    except (OSError, multiprocessing.ProcessError):
        # Pool creation can fail in constrained sandboxes; degrade to serial.
        return [run_pool_task(task) for task in tasks], 1

    for item in enumerate(tasks):
        task_queue.put(item)
    for _ in workers:
        task_queue.put(None)

    received, failure = _collect_pool_results(result_queue, workers, len(tasks))
    outcomes: List[Optional[PoolOutcome]] = [None] * len(tasks)
    for index, (ok, payload) in received.items():
        if ok:
            outcomes[index] = payload
    for worker in workers:
        worker.join(timeout=5.0)
        if worker.is_alive():
            worker.terminate()
    if failure is not None:
        raise failure
    return outcomes, processes


# --------------------------------------------------------------------------
# the groups of one design
# --------------------------------------------------------------------------


def run_grouped(
    builder: Callable[..., Any],
    args: Tuple[Any, ...] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    *,
    name: Optional[str] = None,
    backend: Optional[str] = None,
    processes: Optional[int] = None,
    max_cycles: float = 500_000_000.0,
) -> Tuple[CosimResult, List[PoolOutcome]]:
    """Run one design's independent groups across worker processes.

    Returns ``(merged_result, outcomes)``: one ``kind="group"`` outcome
    per group, named ``<design>[g<i>]`` (``name`` replaces the design
    name) and in group order, each carrying the finals of the thresholds
    its group owns.  The workload's ``cosim_done`` must be a
    :class:`~repro.sim.cosim.ThresholdDone` (else a ``TypeError``, before
    anything is dispatched), and the merged ``completed`` compares its
    minima with the merged finals.  The parent elaborates the workload
    once, to count the fabric's groups, but never runs it.  The group
    tasks go through :func:`run_pool` (``processes`` as there;
    ``processes<=1`` runs them serially in this process, same code path);
    the merged result obeys :meth:`~repro.sim.cosim.CosimResult.merge`'s
    deterministic rules and is bitwise identical to ``CosimFabric.run``'s
    own serial grouped result.  ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend` once, here.
    """
    backend = resolve_backend(backend)
    kwargs = dict(kwargs or {})
    workload = builder(*args, **kwargs)
    done = require_thresholds(workload.cosim_done, workload.design.name)
    # The parent fabric never executes a rule: it only counts groups, so
    # build it on the interpreted backend and skip the whole-design code
    # generation the workers will each pay for their own runs.
    fabric = CosimFabric(workload.design, backend="interp")
    base = name or workload.design.name
    tasks = [
        PoolTask(
            name=f"{base}[g{i}]",
            builder=builder,
            args=args,
            kwargs=kwargs,
            backend=backend,
            max_cycles=max_cycles,
            kind="group",
            group_index=i,
        )
        for i in range(fabric.group_count)
    ]
    outcomes, _ = run_pool(tasks, processes)
    finals: Dict[str, Any] = {}
    for outcome in outcomes:
        finals.update(outcome.observations)
    merged = CosimResult.merge(o.result for o in outcomes)
    merged.completed = done.met_by(finals)
    return merged, outcomes
