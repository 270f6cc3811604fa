"""Persistent fabric serving: elaborate once, stream requests through it.

Every entry point before this layer paid full elaboration -- partitioning,
code generation, layout compilation, topology wiring -- per run and
threw the fabric away.  The paper's own framing is the opposite: the
expensive artifact is the *interface* (generated once per partitioning),
not the *message*, and the same interfaces carry all traffic.  A
:class:`FabricServer` is the executable counterpart of that asymmetry:

* **elaborate once** -- build the workload and its N-domain
  :class:`~repro.sim.cosim.CosimFabric` a single time;
* **snapshot at reset** -- capture every engine store, FIFO endpoint,
  :class:`~repro.platform.channel.MessagePool` ring, virtual channel and
  per-group clock right after elaboration
  (:meth:`~repro.sim.cosim.CosimFabric.snapshot`), while all statistics are
  zero and all clocks read zero;
* **stream requests** -- each :class:`Request` writes its inputs through
  :meth:`~repro.sim.cosim.CosimFabric.write`, runs the resident fabric to
  its ``done`` condition, reads its outputs, and then
  :meth:`~repro.sim.cosim.CosimFabric.restore`\\ s the snapshot in O(state).

Because the snapshot is the reset state, the ``CosimResult`` of each run
*is* the per-request delta (all counters started at zero), and because the
restore is complete, a request served by a resident fabric is **bitwise
identical** to the same request served by a freshly elaborated fabric
(:func:`serve_fresh` is that oracle; ``tests/test_serve.py`` pins the
equivalence over both backends).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.module import Register
from repro.core.pycodegen import resolve_backend
from repro.sim.cosim import CosimFabric, CosimResult, ThresholdDone


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` with a reportable value on zero duration.

    Trivial workloads can legitimately measure a zero-length interval
    (coarse clocks, empty request lists); every throughput/speedup figure
    the serving layer reports goes through this guard so no
    ``float("inf")`` or ``ZeroDivisionError`` ever reaches a report.
    """
    if denominator > 0:
        return numerator / denominator
    return default


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


@dataclass(frozen=True)
class Request:
    """One independent unit of traffic through a resident fabric.

    Plain picklable data (a request may be dispatched to a worker process
    holding the resident fabric): registers are named by ``full_name`` and
    resolved against the server's design.

    * ``writes`` -- input registers to set before the run (e.g. the vorbis
      ``frame_idx`` start offset or the raytracer ``pixel_idx`` start).
    * ``done_min`` -- completion thresholds: the request is done when every
      named register has reached its value (``read >= threshold``).  The
      thresholds become a :class:`~repro.sim.cosim.ThresholdDone`, the
      stopping rule grouped execution requires.  Empty means "use the
      workload's own ``cosim_done``".
    * ``outputs`` -- registers whose final values the caller wants back
      (e.g. checksums).
    """

    name: str
    writes: Mapping[str, Any] = field(default_factory=dict)
    done_min: Mapping[str, Any] = field(default_factory=dict)
    outputs: Tuple[str, ...] = ()
    max_cycles: Optional[float] = None


@dataclass
class RequestResult:
    """Outcome of one served request: the per-request delta plus outputs."""

    name: str
    result: CosimResult
    outputs: Dict[str, Any]
    wall_seconds: float


class FabricServer:
    """A resident co-simulation fabric that serves a stream of requests.

    ``builder(*args, **kwargs)`` elaborates the workload exactly once (same
    picklable builder-spec contract as the worker pool); the constructor
    captures the reset snapshot.  :meth:`serve` then runs one request --
    write inputs, run to done, read outputs, restore -- leaving the fabric
    back at reset, so requests are independent: the N-th request of a
    stream is bitwise identical to the same request served first, or served
    by a fresh elaboration (:func:`serve_fresh`).  The fabric is always
    the N-domain :class:`~repro.sim.cosim.CosimFabric` with the default
    engine kinds; ``fabric_kind`` accepts only ``"fabric"`` (``perfbench``
    passes it).  ``backend=None`` resolves to
    :func:`~repro.core.pycodegen.default_rule_backend` once, here, so
    :attr:`backend` is always a concrete name.
    """

    def __init__(
        self,
        builder: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        backend: Optional[str] = None,
        fabric_kind: str = "fabric",
        max_cycles: float = 500_000_000.0,
    ):
        if fabric_kind != "fabric":
            raise ValueError(f"unknown fabric_kind {fabric_kind!r} (expected 'fabric')")
        t0 = time.perf_counter()
        self.builder = builder
        self.args = args
        self.kwargs = dict(kwargs or {})
        self.backend = resolve_backend(backend)
        self.max_cycles = max_cycles
        self.workload = builder(*args, **self.kwargs)
        self.fabric = CosimFabric(self.workload.design, backend=self.backend)
        self._registry: Dict[str, Register] = {
            reg.full_name: reg for reg in self.workload.design.all_registers()
        }
        self._snapshot = self.fabric.snapshot()
        self.elaborate_seconds = time.perf_counter() - t0
        self.requests_served = 0

    # -- name resolution -----------------------------------------------------

    def register(self, full_name: str) -> Register:
        """Resolve a request's register name against the resident design."""
        try:
            return self._registry[full_name]
        except KeyError:
            raise KeyError(
                f"design {self.workload.design.name} has no register "
                f"{full_name!r} (requests name registers by full_name)"
            ) from None

    def _done_for(self, request: Request) -> Callable[[CosimFabric], bool]:
        if not request.done_min:
            return self.workload.cosim_done
        return ThresholdDone(
            (self.register(name), request.done_min[name])
            for name in sorted(request.done_min)
        )

    # -- serving ---------------------------------------------------------------

    def reset(self) -> None:
        """Rewind the resident fabric to its reset snapshot."""
        self.fabric.restore(self._snapshot)

    def serve(self, request: Request) -> RequestResult:
        """Serve one request; the fabric is back at reset on return.

        The restore runs even when the simulation raises, so a failed
        request never poisons the next one.
        """
        t0 = time.perf_counter()
        fabric = self.fabric
        try:
            for name in sorted(request.writes):
                fabric.write(self.register(name), request.writes[name])
            result = fabric.run(
                self._done_for(request),
                max_cycles=(
                    request.max_cycles
                    if request.max_cycles is not None
                    else self.max_cycles
                ),
            )
            outputs = {
                name: fabric.read(self.register(name)) for name in request.outputs
            }
        finally:
            self.reset()
        self.requests_served += 1
        return RequestResult(
            name=request.name,
            result=result,
            outputs=outputs,
            wall_seconds=time.perf_counter() - t0,
        )

    def serve_many(self, requests: Sequence[Request]) -> List[RequestResult]:
        """Serve a stream of requests in order on the resident fabric."""
        return [self.serve(request) for request in requests]


def serve_fresh(
    builder: Callable[..., Any],
    request: Request,
    args: Tuple[Any, ...] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    **server_options: Any,
) -> RequestResult:
    """Serve one request on a freshly elaborated fabric (the oracle/baseline).

    This is both the acceptance oracle for persistent serving (a resident
    server's results must match it bitwise, request by request) and the
    elaborate-per-request baseline the serving benchmark amortises against.
    """
    return FabricServer(builder, args, kwargs, **server_options).serve(request)


@dataclass
class ServingStats:
    """Throughput/latency roll-up of one served request stream."""

    requests: int
    wall_seconds: float
    elaborate_seconds: float
    latencies: List[float]

    @classmethod
    def of(
        cls, results: Sequence[RequestResult], wall_seconds: float, elaborate_seconds: float
    ) -> "ServingStats":
        return cls(
            requests=len(results),
            wall_seconds=wall_seconds,
            elaborate_seconds=elaborate_seconds,
            latencies=[r.wall_seconds for r in results],
        )

    @property
    def requests_per_second(self) -> float:
        """Sustained request throughput (elaboration excluded: it amortises)."""
        return safe_ratio(self.requests, self.wall_seconds)

    @property
    def p50_seconds(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99_seconds(self) -> float:
        return percentile(self.latencies, 99)

    def row(self) -> Dict[str, Any]:
        """The benchmark-report shape of these statistics (plain data)."""
        return {
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 6),
            "elaborate_seconds": round(self.elaborate_seconds, 6),
            "requests_per_second": round(self.requests_per_second, 3),
            "p50_ms": round(self.p50_seconds * 1e3, 4),
            "p99_ms": round(self.p99_seconds * 1e3, 4),
        }
