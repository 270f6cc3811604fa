"""Wall-clock performance harness for the two execution backends.

Runs the Figure 13 workloads -- every Ogg Vorbis partition (A-F) and every
ray-tracer partition (A-D) -- plus the multi-domain fabric workload
(``vorbis_G3``: SW front-end -> HW-imdct/ifft -> HW-window, three engines
on a routed topology), under the tree-walking reference backend
(``interp``) and the source-lowered backend (``source``: one generated
flat Python module per design, fused engine supersteps with dirty-set
scheduling, generated transport routes and group loops -- see
:mod:`repro.core.pycodegen`), and records per-workload wall-clock seconds,
rule firings per second and simulated FPGA cycles.

Outputs one JSON file per backend next to this script
(``BENCH_interp.json`` and ``BENCH_source.json``) so future changes have
a perf trajectory to regress against, and prints a comparison table.  The
harness also *verifies* the backends agree: every workload's
:class:`~repro.sim.cosim.CosimResult` (stores statistics, fire counts,
channel stats) must be bitwise identical across both, otherwise the run
fails.

Extra sections ride along, all recorded in ``BENCH_source.json``:

* a **dataplane microbenchmark** (``transport_dataplane``): pure transport
  throughput with no rule engines, the interpreted per-element transport
  of ``backend="interp"`` against the generated batch-drain routes of
  ``backend="source"``;
* a **kernel microbenchmark** (``kernel_microbench``): per-kernel
  throughput of the foreign-kernel backends, result cache off;
* an optional **sharded sweep** (``--processes N``, ``sweep``): the same
  workload set fanned across worker processes by :mod:`repro.sim.shard`,
  reported as sweep wall-clock vs. serial-equivalent compute;
* a **persistent serving** section (``serving``): a small-frame Vorbis
  request stream through one resident
  :class:`~repro.sim.serve.FabricServer` (elaborate once, snapshot/reset
  per request) vs. the elaborate-per-request baseline, recording sustained
  requests/sec and p50/p99 request latency;
* a **grouped execution** section (``grouped_execution``): a multi-group
  workload (independent Vorbis pipelines in one design, one fabric group
  each) run three ways -- the legacy lockstep loop, the fabric's serially
  scheduled group sub-fabrics (per-group clocks and idle-skip), and
  :func:`repro.sim.shard.run_grouped` fanning the groups of that *single*
  design across processes.  The serial and process-grouped merged results
  must be bitwise identical (the run fails otherwise) and the lockstep
  baseline must agree on firings, traffic and checksums;
* a **distributed execution** section (``distributed``): multi-domain (G/H)
  and multi-group (mg_BC/mg_BCF) workloads run under
  :func:`repro.sim.distrib.run_distributed` -- groups/domains in
  long-lived worker processes, cut links as framed wire words over
  shared-memory rings and socket streams -- against the serial grouped
  and lockstep schedulers.  Every distributed result must be bitwise
  identical to the serial grouped run on both carriers.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py               # full run
    PYTHONPATH=src python benchmarks/perf_harness.py --quick       # CI smoke run
    PYTHONPATH=src python benchmarks/perf_harness.py --processes 4 # + sharded sweep

Timing methodology: each workload's design is elaborated once (both backends
execute the *same* immutable design, mirroring the paper's compile-once /
run-many model); the measured quantity is the best of ``--repeats``
co-simulation runs, which is the standard way to suppress scheduler noise on
shared machines.  The first run's extra cost (one-time analysis and code
generation) is reported separately as ``compile_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.raytracer import partitions as rt_partitions
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import partitions as vorbis_partitions
from repro.apps.vorbis.params import VorbisParams
from repro.sim.cosim import CosimFabric, Cosimulator
from repro.sim.serve import safe_ratio
from repro.sim.shard import SweepTask, run_sweep

#: ``interp`` is the oracle every ``source`` result is verified against.
BACKENDS = ("interp", "source")

#: Multi-domain fabric workloads: name -> (builder letter, #domains).
MULTI_DOMAIN = {"vorbis_G3": "G"}

#: Figure 13 workload sizes.  ``full`` uses larger inputs than the benchmark
#: suite's quick defaults so steady-state rule throughput dominates startup
#: (the paper's audio test bench ran 10 000 frames); ``quick`` matches the
#: suite's sizes and is meant for CI smoke runs.
SIZES = {
    "full": {
        "vorbis": VorbisParams(n_frames=48),
        "raytracer": RayTracerParams(n_triangles=96, image_width=8, image_height=8),
    },
    "quick": {
        "vorbis": VorbisParams(n_frames=12),
        "raytracer": RayTracerParams(n_triangles=96, image_width=5, image_height=5),
    },
}


def build_workloads(size: str):
    """Elaborate every fig13 partition plus the multi-domain fabric workloads.

    Returns ``[(name, workload, is_fabric)]``; fabric workloads run on
    :class:`CosimFabric` (N engines), the rest on the two-partition wrapper.
    """
    params = SIZES[size]
    workloads = []
    for letter in vorbis_partitions.PARTITION_ORDER:
        workloads.append(
            (f"vorbis_{letter}", vorbis_partitions.build_partition(letter, params["vorbis"]), False)
        )
    for letter in rt_partitions.PARTITION_ORDER:
        workloads.append(
            (f"raytracer_{letter}", rt_partitions.build_partition(letter, params["raytracer"]), False)
        )
    for name, letter in MULTI_DOMAIN.items():
        workloads.append(
            (name, vorbis_partitions.build_multi_partition(letter, params["vorbis"]), True)
        )
    return workloads


def run_once(workload, backend: str, is_fabric: bool = False):
    if is_fabric:
        sim = CosimFabric(workload.design, backend=backend)
    else:
        sim = Cosimulator(workload.design, backend=backend)
    return sim.run(workload.cosim_done, max_cycles=500_000_000)


def measure(workload, backend: str, repeats: int, is_fabric: bool = False) -> Dict[str, Any]:
    # First run pays one-time analysis/code generation for this design+backend.
    t0 = time.perf_counter()
    result = run_once(workload, backend, is_fabric)
    first = time.perf_counter() - t0

    best = first
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_once(workload, backend, is_fabric)
        best = min(best, time.perf_counter() - t0)

    firings = result.sw_firings + result.hw_firings
    return {
        "wall_seconds": best,
        "compile_seconds": max(0.0, first - best),
        "firings": firings,
        "firings_per_sec": safe_ratio(firings, best),
        "fpga_cycles": result.fpga_cycles,
        "completed": result.completed,
        "result": asdict(result),
    }


def source_speedups(bench, names):
    """Summed wall seconds per backend, and the ``interp`` wall time over
    ``source`` per workload and for the ``TOTAL``."""
    seconds = {
        backend: [bench[backend][name]["wall_seconds"] for name in names] for backend in BACKENDS
    }
    total = {backend: sum(seconds[backend]) for backend in BACKENDS}
    speedups = {
        name: {"interp": safe_ratio(seconds["interp"][i], seconds["source"][i])}
        for i, name in enumerate(names)
    }
    speedups["TOTAL"] = {"interp": safe_ratio(total["interp"], total["source"])}
    return total, speedups


def dataplane_microbench(size: str) -> Dict[str, Any]:
    """Pure transport throughput: the dataplane without the rule engines.

    Builds a rule-less two-domain design whose only module is one deep
    synchronizer, then drives pump/deliver directly: refill the producer
    endpoint with a full burst, pump until the burst is across, drain the
    consumer endpoint (returning credits), repeat.  Both backends move
    exactly the same messages -- ``interp`` through the interpreted
    per-element transport, ``source`` through the generated routes of
    :func:`repro.core.pycodegen.generate_transport_pump` -- and the
    measured quantity is elements/sec through the dataplane alone.
    """
    from repro.core.domains import HW, SW
    from repro.core.module import Design, Module
    from repro.core.synchronizers import SyncFifo
    from repro.core.types import UIntT

    n_elements = {"full": 200_000, "quick": 40_000}[size]
    rows: Dict[str, Any] = {}
    for depth in (16, 256, 1024):
        timings: Dict[str, float] = {}
        for backend in BACKENDS:
            top = Module("top")
            top.add_submodule(Module("swside", domain=SW))
            top.add_submodule(Module("hwside", domain=HW))
            sync = top.add_submodule(SyncFifo("q", UIntT(32), SW, HW, depth=depth))
            cosim = Cosimulator(Design(top, "dataplane"), backend=backend)
            data = sync.data
            src, dst = cosim.store_sw, cosim.store_hw
            burst = tuple(range(depth))
            moved = 0
            now = 0.0
            t0 = time.perf_counter()
            while moved < n_elements:
                src[data] = burst
                while src[data] or cosim.topology.next_delivery_time() is not None:
                    cosim._pump_transport(now)
                    next_delivery = cosim.topology.next_delivery_time()
                    now = max(now + 1.0, next_delivery if next_delivery is not None else now)
                    cosim._deliver_due(now)
                    dst[data] = ()  # consumer drains instantly; credits return
                moved += depth
            timings[backend] = time.perf_counter() - t0
            assert cosim.topology.total_messages == moved, "dataplane lost messages"
        rows[f"depth_{depth}"] = {
            "elements": moved,
            "interp_seconds": timings["interp"],
            "source_seconds": timings["source"],
            "interp_elements_per_sec": safe_ratio(moved, timings["interp"]),
            "source_elements_per_sec": safe_ratio(moved, timings["source"]),
            "speedup": safe_ratio(timings["interp"], timings["source"]),
        }
    return rows


def kernel_microbench(size: str) -> Dict[str, Any]:
    """Per-kernel throughput of the foreign-kernel dataplane.

    Times each hot kernel under every available backend -- ``oracle``
    (object-based reference), ``python`` (flat raw-int batch loops) and,
    when importable, ``numpy`` (int64 vectorised) -- with the result cache
    disabled so the numbers measure computation, not memoisation.  The
    suite covers the IMDCT stages (``imdct_pre``, ``ifft_full``,
    ``imdct_post``), windowing (``window_overlap``), BVH traversal over a
    full camera's rays, and the fused frame marshal (layout encoder+decoder
    vs. the reference ``ty.pack``/``ty.unpack`` path).  Every backend's
    outputs are verified bit-identical before anything is timed.
    """
    import random

    from repro.apps.raytracer import bvh as rt_bvh
    from repro.apps.raytracer import geometry
    from repro.apps.vorbis import kernels
    from repro.core import kernelcompile as kc
    from repro.core.fixedpoint import FixComplex, FixedPoint
    from repro.core.types import ComplexT, FixPtT, VectorT

    n = {"full": 256, "quick": 64}[size]
    reps = {"full": 30, "quick": 8}[size]
    ib, fb = 8, 24
    rng = random.Random(1234)

    def rand_fix():
        return FixedPoint.from_raw(rng.randrange(-(1 << 31), 1 << 31), ib, fb)

    frame = tuple(rand_fix() for _ in range(n))
    half = frame[: n // 2]
    spectrum = tuple(FixComplex(rand_fix(), rand_fix()) for _ in range(n))

    vorbis_cases = {
        "imdct_pre": lambda: kernels.imdct_pre(frame, ib, fb),
        "ifft_full": lambda: kernels.ifft_full(spectrum, ib, fb),
        "imdct_post": lambda: kernels.imdct_post(spectrum, ib, fb),
        "window_overlap": lambda: kernels.window_overlap(half, frame, ib, fb),
    }

    scene = geometry.generate_scene(96, seed=7)
    tree = rt_bvh.build_bvh(scene)
    rays = [geometry.camera_ray(p, 8, 8) for p in range(64)]

    def traverse_all():
        for ray in rays:
            rt_bvh.traverse(tree, ray)
        return rt_bvh.traverse(tree, rays[0])

    cases = dict(vorbis_cases)
    cases["bvh_traverse_64rays"] = traverse_all

    backends = ["oracle", "python"] + (["numpy"] if kc.HAVE_NUMPY else [])

    def best_per_call(fn, repetitions, attempts=3):
        best = None
        for _ in range(attempts):
            t0 = time.perf_counter()
            for _ in range(repetitions):
                fn()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best / repetitions

    rows: Dict[str, Any] = {}
    with kc.kernel_cache_override(False):
        for name, fn in cases.items():
            outputs = {}
            timings = {}
            for backend in backends:
                with kc.kernel_backend_override(backend):
                    outputs[backend] = fn()
                    timings[backend] = best_per_call(fn, reps)
            for backend in backends[1:]:
                if outputs[backend] != outputs["oracle"]:
                    raise SystemExit(f"kernel backend mismatch on {name} ({backend})")
            row = {f"{backend}_seconds": timings[backend] for backend in backends}
            for backend in backends[1:]:
                row[f"{backend}_speedup"] = safe_ratio(timings["oracle"], timings[backend])
            rows[name] = row

    # Fused frame marshal vs. the reference pack/unpack (one audio frame).
    from repro.platform import marshal as marshal_mod

    frame_ty = VectorT(n, ComplexT(FixPtT(ib, fb)))
    layout = marshal_mod.layout_for(frame_ty, 32)
    encode = layout.encoder(1)
    decode = layout.decoder()
    words = encode(spectrum)
    assert decode(words, 1) == spectrum

    def reference_roundtrip():
        framed = marshal_mod.marshal_message(1, frame_ty, spectrum)
        return marshal_mod.demarshal_message(frame_ty, framed)

    def fused_roundtrip():
        return decode(encode(spectrum), 1)

    assert reference_roundtrip()[1] == fused_roundtrip()
    ref_s = best_per_call(reference_roundtrip, reps)
    fused_s = best_per_call(fused_roundtrip, reps)
    rows["frame_marshal"] = {
        "reference_seconds": ref_s,
        "fused_seconds": fused_s,
        "fused_speedup": safe_ratio(ref_s, fused_s),
    }
    return rows


#: Multi-group workload composition per size: one partition letter per
#: independent pipeline.  Asymmetric letters (B finishes well before C)
#: are the case per-group clocks exist for: under the lockstep baseline
#: the finished pipeline keeps getting scheduler attention for the whole
#: tail of the slow one.
GROUPED_LETTERS = {"full": "BC", "quick": "BC"}


def grouped_execution(size: str, repeats: int, processes: int = 2) -> Dict[str, Any]:
    """Lockstep vs. serially grouped vs. process-grouped on a ≥2-group design.

    Measured for both rule backends: under ``interp`` the win is
    structural (lockstep re-scans every finished group's guards on every
    cycle of the survivors; per-group clocks drop those scans entirely),
    while under ``source`` the dirty-set scheduler already sleeps idle
    groups almost for free and the win is the removed per-iteration
    cross-group bookkeeping.  The process row reuses the source arm;
    its wall-clock win materialises on multi-core hosts (pool spawn plus
    CPU contention make it a wash on single-core runners -- the recorded
    numbers say which this was).
    """
    from repro.apps.vorbis.partitions import build_group_partition
    from repro.apps.vorbis.reference import expected_checksum
    from repro.sim.shard import run_grouped

    letters = GROUPED_LETTERS[size]
    params = SIZES[size]["vorbis"]
    reference = expected_checksum(params)
    attempts = min(repeats, 2) + 1  # best-of; the +1 absorbs compilation

    def best_of(run_fn):
        best = None
        keep = None
        for _ in range(attempts):
            t0 = time.perf_counter()
            outcome = run_fn()
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best, keep = elapsed, outcome
        return best, keep

    def run_scheduler(scheduler, backend):
        workload = build_group_partition(letters, params)
        fabric = CosimFabric(workload.design, backend=backend)
        result = fabric.run(
            workload.cosim_done, max_cycles=500_000_000, scheduler=scheduler
        )
        return result, workload.checksums(fabric.read)

    rows: Dict[str, Any] = {
        "letters": letters,
        "groups": len(letters),
        "processes": processes,
    }
    grouped_results = {}
    for backend in BACKENDS:
        lock_seconds, (lock_result, lock_sums) = best_of(
            lambda: run_scheduler("lockstep", backend)
        )
        grouped_seconds, (grouped_result, grouped_sums) = best_of(
            lambda: run_scheduler("grouped", backend)
        )
        grouped_results[backend] = grouped_result
        if any(c != reference for c in grouped_sums + lock_sums):
            raise SystemExit(f"grouped workload {letters} checksum mismatch ({backend})")
        if (
            lock_result.fire_counts != grouped_result.fire_counts
            or lock_result.channel_messages != grouped_result.channel_messages
            or lock_result.hw_active_cycles != grouped_result.hw_active_cycles
            or lock_result.sw_firings != grouped_result.sw_firings
        ):
            raise SystemExit(
                f"lockstep baseline disagrees with grouped execution ({backend})"
            )
        rows[backend] = {
            "lockstep_seconds": lock_seconds,
            "grouped_seconds": grouped_seconds,
            "grouped_speedup_vs_lockstep": safe_ratio(lock_seconds, grouped_seconds),
        }
    if asdict(grouped_results["interp"]) != asdict(grouped_results["source"]):
        raise SystemExit("grouped execution backends disagree")

    process_seconds, process_report = best_of(
        lambda: run_grouped(
            build_group_partition,
            args=(letters, params),
            backend="source",
            processes=processes,
        )
    )
    if asdict(process_report.result) != asdict(grouped_results["source"]):
        raise SystemExit(
            "process-grouped merged CosimResult diverged from the serial grouped run"
        )
    rows["fpga_cycles"] = grouped_results["source"].fpga_cycles
    rows["process_seconds"] = process_seconds
    rows["process_speedup_vs_grouped"] = safe_ratio(
        rows["source"]["grouped_seconds"], process_seconds
    )
    rows["cpus"] = os.cpu_count() or 1
    return rows


#: Distributed-execution benchmark set: workload name -> (builder kind,
#: letter arg, placement).  The multi-domain placements G/H exercise
#: domain placement (every cut link becomes framed wire words between
#: processes); the multi-group workloads exercise group placement (one
#: process per independent pipeline) and, for BCF, domain placement too.
DISTRIBUTED_WORKLOADS = {
    "full": [
        ("vorbis_G", "multi", "G", "domain"),
        ("vorbis_H", "multi", "H", "domain"),
        ("vorbis_mg_BC", "group", "BC", "group"),
        ("vorbis_mg_BCF", "group", "BCF", "domain"),
    ],
    "quick": [
        ("vorbis_G", "multi", "G", "domain"),
        ("vorbis_mg_BC", "group", "BC", "group"),
    ],
}


def distributed_execution(size: str, repeats: int, processes: int = 2) -> Dict[str, Any]:
    """Serial grouped vs. lockstep vs. distributed workers on the same design.

    The distributed rows pay real costs the serial schedulers do not --
    process spawn, per-member re-elaboration, barrier spins and the
    physical word copies -- in exchange for running members on separate
    cores.  The recorded ``cpus`` field says whether this host could
    actually overlap them: on a single-CPU runner the distributed arm is
    expected to *lose* wall-clock (every barrier is a context switch), and
    the numbers are recorded as the protocol baseline rather than the
    claim; see EXPERIMENTS.md for the multi-core measurement protocol.
    Both carriers are measured; results must stay bitwise identical to the
    serial grouped run (the run fails otherwise).
    """
    from repro.apps.vorbis.partitions import build_group_partition, build_multi_partition
    from repro.sim.distrib import run_distributed

    params = SIZES[size]["vorbis"]
    attempts = min(repeats, 2) + 1  # best-of; the +1 absorbs compilation

    def best_of(run_fn):
        best = None
        keep = None
        for _ in range(attempts):
            t0 = time.perf_counter()
            outcome = run_fn()
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best, keep = elapsed, outcome
        return best, keep

    rows: Dict[str, Any] = {"processes": processes, "cpus": os.cpu_count() or 1}
    workload_rows: Dict[str, Any] = {}
    for name, kind, letter, placement in DISTRIBUTED_WORKLOADS[size]:
        builder = build_multi_partition if kind == "multi" else build_group_partition

        def run_scheduler(scheduler):
            workload = builder(letter, params)
            fabric = CosimFabric(workload.design, backend="source")
            return fabric.run(
                workload.cosim_done, max_cycles=500_000_000, scheduler=scheduler
            )

        grouped_seconds, grouped_result = best_of(lambda: run_scheduler("grouped"))
        lockstep_seconds, lockstep_result = best_of(lambda: run_scheduler("lockstep"))
        if lockstep_result.fire_counts != grouped_result.fire_counts:
            raise SystemExit(f"lockstep disagrees with grouped on {name}")

        row: Dict[str, Any] = {
            "placement": placement,
            "fpga_cycles": grouped_result.fpga_cycles,
            "grouped_seconds": grouped_seconds,
            "lockstep_seconds": lockstep_seconds,
        }
        for carrier in ("shm", "socket"):
            dist_seconds, report = best_of(
                lambda: run_distributed(
                    builder,
                    (letter, params),
                    backend="source",
                    placement=placement,
                    carrier=carrier,
                    processes=processes,
                )
            )
            if asdict(report.result) != asdict(grouped_result):
                raise SystemExit(
                    f"distributed ({placement}/{carrier}) diverged from the "
                    f"serial grouped run on {name}"
                )
            row[carrier] = {
                "seconds": dist_seconds,
                "speedup_vs_grouped": safe_ratio(grouped_seconds, dist_seconds),
                "workers": report.processes,
                "records": report.data_plane["records"],
                "words": report.data_plane["words"],
                "full_retries": report.data_plane["full_retries"],
                "fallback": report.fallback,
            }
        workload_rows[name] = row
    rows["workloads"] = workload_rows
    return rows


#: Serving benchmark composition: a small-frame Vorbis workload in the
#: small-request regime (single-frame decodes, so elaboration dominates
#: the per-request baseline) and the stream length.  The embedded oracle
#: check still exercises every distinct start frame; randomized
#: mixed-input streams are covered by ``tests/test_serve.py``.
SERVING = {
    "full": {"params": VorbisParams(n=16, n_frames=2), "requests": 200},
    "quick": {"params": VorbisParams(n=16, n_frames=2), "requests": 40},
}


def serving_benchmark(size: str) -> Dict[str, Any]:
    """Resident-fabric serving vs. the elaborate-per-request baseline.

    The resident arm elaborates once and streams every request through one
    :class:`~repro.sim.serve.FabricServer` (snapshot/reset between
    requests); the baseline arm serves the same stream through
    :func:`~repro.sim.serve.serve_fresh`, paying full elaboration per
    request -- exactly what every pre-serving entry point did.  Both arms
    must agree bitwise on a sampled request (the serving acceptance
    oracle).  Latency percentiles are per-request wall times: the
    repo's first latency metrics, since throughput-only numbers hide the
    tail that snapshot restore could add.
    """
    from repro.sim.serve import FabricServer, ServingStats, serve_fresh

    config = SERVING[size]
    params = config["params"]
    builder = vorbis_partitions.build_partition
    spec = ("B", params)

    server = FabricServer(builder, spec, backend="source")
    requests = [
        server.workload.frame_request(params.n_frames - 1, name=f"req{i}")
        for i in range(config["requests"])
    ]

    # Embedded oracle: one request per distinct start, resident vs. fresh.
    for start in range(params.n_frames):
        probe = requests[start]
        resident = server.serve(probe)
        fresh = serve_fresh(builder, probe, spec, backend="source")
        if asdict(resident.result) != asdict(fresh.result) or resident.outputs != fresh.outputs:
            raise SystemExit(
                f"serving oracle: resident result for {probe.name} diverged "
                "from fresh elaboration"
            )

    t0 = time.perf_counter()
    results = server.serve_many(requests)
    resident_wall = time.perf_counter() - t0
    resident = ServingStats.of(results, resident_wall, server.elaborate_seconds)

    baseline_latencies = []
    for request in requests:
        t1 = time.perf_counter()
        serve_fresh(builder, request, spec, backend="source")
        baseline_latencies.append(time.perf_counter() - t1)
    baseline = ServingStats(
        requests=len(requests),
        wall_seconds=sum(baseline_latencies),
        elaborate_seconds=0.0,  # the baseline pays elaboration inside every request
        latencies=baseline_latencies,
    )

    return {
        "workload": f"vorbis_B (n={params.n}, n_frames={params.n_frames})",
        "resident": resident.row(),
        "elaborate_per_request": baseline.row(),
        "amortisation": safe_ratio(
            resident.requests_per_second, baseline.requests_per_second
        ),
    }


def sharded_sweep(size: str, processes: int, backend: str = "source") -> Dict[str, Any]:
    """The full workload set fanned across processes by the shard runner."""
    params = SIZES[size]
    tasks = [
        SweepTask(
            name=f"vorbis_{letter}",
            builder=vorbis_partitions.build_partition,
            args=(letter, params["vorbis"]),
            backend=backend,
        )
        for letter in vorbis_partitions.PARTITION_ORDER
    ]
    tasks += [
        SweepTask(
            name=f"raytracer_{letter}",
            builder=rt_partitions.build_partition,
            args=(letter, params["raytracer"]),
            backend=backend,
        )
        for letter in rt_partitions.PARTITION_ORDER
    ]
    tasks += [
        SweepTask(
            name=name,
            builder=vorbis_partitions.build_multi_partition,
            args=(letter, params["vorbis"]),
            backend=backend,
            engine_kinds={
                d.name: ("hw" if d.name.startswith("HW") else "sw")
                for d in vorbis_partitions.multi_partition_domains(letter)
            },
        )
        for name, letter in MULTI_DOMAIN.items()
    ]
    report = run_sweep(tasks, processes=processes)
    print(f"\n=== Sharded sweep ({report.processes} processes) ===")
    print(report.table())
    return {
        "processes": report.processes,
        "tasks": len(report.outcomes),
        "wall_seconds": report.wall_seconds,
        "worker_seconds": report.worker_seconds,
        "speedup": report.speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small workloads, 1 repeat (CI smoke run)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed repetitions per workload (best-of)"
    )
    parser.add_argument(
        "--processes", type=int, default=0,
        help="also run the workload set as a sharded multiprocess sweep",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path(__file__).resolve().parent,
        help="directory for BENCH_<backend>.json",
    )
    args = parser.parse_args(argv)
    size = "quick" if args.quick else "full"
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 5)

    workloads = build_workloads(size)
    bench: Dict[str, Dict[str, Any]] = {backend: {} for backend in BACKENDS}
    mismatches = []

    for name, workload, is_fabric in workloads:
        for backend in BACKENDS:
            bench[backend][name] = measure(workload, backend, repeats, is_fabric)
        if bench["source"][name]["result"] != bench["interp"][name]["result"]:
            mismatches.append(name)

    # -- report ------------------------------------------------------------
    header = (
        f"{'workload':<14} {'interp (s)':>11} {'source (s)':>11} "
        f"{'src/int':>8} {'firings/s (source)':>19}"
    )
    print("\n=== Figure 13 workloads (+ multi-domain fabric): interp vs. source ===")
    print(header)
    print("-" * len(header))
    names = [name for name, _, _ in workloads]
    total, speedups = source_speedups(bench, names)
    for name in names:
        print(
            f"{name:<14} {bench['interp'][name]['wall_seconds']:>11.4f} "
            f"{bench['source'][name]['wall_seconds']:>11.4f} "
            f"{speedups[name]['interp']:>7.2f}x "
            f"{bench['source'][name]['firings_per_sec']:>18,.0f}"
        )
    print("-" * len(header))
    print(
        f"{'TOTAL':<14} {total['interp']:>11.4f} {total['source']:>11.4f} "
        f"{speedups['TOTAL']['interp']:>7.2f}x"
    )
    if mismatches:
        print(f"\nBACKEND MISMATCH on: {', '.join(mismatches)}")
    else:
        print("\nAll CosimResult statistics bitwise identical across backends.")

    dataplane = dataplane_microbench(size)
    print("\n=== Dataplane microbenchmark: pure transport throughput (no rule engines) ===")
    d_header = f"{'config':<12} {'interp (elem/s)':>16} {'source (elem/s)':>16} {'speedup':>8}"
    print(d_header)
    print("-" * len(d_header))
    for name, row in dataplane.items():
        print(
            f"{name:<12} {row['interp_elements_per_sec']:>16,.0f} "
            f"{row['source_elements_per_sec']:>16,.0f} {row['speedup']:>7.2f}x"
        )

    # -- kernel microbenchmark ---------------------------------------------
    kernels_bench = kernel_microbench(size)
    print("\n=== Kernel dataplane: per-kernel backend throughput (cache off) ===")
    k_header = f"{'kernel':<22} {'oracle (s)':>12} {'python (s)':>12} {'numpy (s)':>12} {'py x':>6} {'np x':>6}"
    print(k_header)
    print("-" * len(k_header))
    for name, row in kernels_bench.items():
        if "fused_seconds" in row:
            print(
                f"{name:<22} {row['reference_seconds']:>12.6f} "
                f"{row['fused_seconds']:>12.6f} {'-':>12} "
                f"{row['fused_speedup']:>5.2f}x {'-':>6}"
            )
            continue
        np_s = row.get("numpy_seconds")
        np_x = row.get("numpy_speedup")
        print(
            f"{name:<22} {row['oracle_seconds']:>12.6f} {row['python_seconds']:>12.6f} "
            f"{(f'{np_s:.6f}' if np_s is not None else '-'):>12} "
            f"{row['python_speedup']:>5.2f}x "
            f"{(f'{np_x:.2f}x' if np_x is not None else '-'):>6}"
        )

    # -- grouped execution -------------------------------------------------
    grouped = grouped_execution(size, repeats, processes=args.processes or 2)
    print(
        f"\n=== Grouped execution: {grouped['groups']} independent pipelines "
        f"({grouped['letters']}), lockstep vs. per-group clocks ==="
    )
    for backend in BACKENDS:
        row = grouped[backend]
        print(
            f"{backend:<9} lockstep {row['lockstep_seconds']:.4f}s | grouped "
            f"{row['grouped_seconds']:.4f}s -> {row['grouped_speedup_vs_lockstep']:.2f}x"
        )
    print(
        f"processes {grouped['processes']} workers {grouped['process_seconds']:.4f}s "
        f"({grouped['process_speedup_vs_grouped']:.2f}x vs. serial grouped, "
        f"{grouped['cpus']} CPU(s))"
    )
    print(
        "merged grouped CosimResult bitwise identical serial vs. processes and "
        "across backends; lockstep agrees on firings/traffic/checksums"
    )

    # -- distributed execution ---------------------------------------------
    distributed = distributed_execution(size, repeats, processes=args.processes or 2)
    print(
        f"\n=== Distributed co-simulation: worker processes + framed wire words "
        f"({distributed['cpus']} CPU(s)) ==="
    )
    x_header = (
        f"{'workload':<15} {'place':<7} {'grouped (s)':>12} {'lockstep (s)':>13} "
        f"{'shm (s)':>9} {'socket (s)':>11} {'workers':>8} {'records':>8} {'words':>8}"
    )
    print(x_header)
    print("-" * len(x_header))
    for name, row in distributed["workloads"].items():
        print(
            f"{name:<15} {row['placement']:<7} {row['grouped_seconds']:>12.4f} "
            f"{row['lockstep_seconds']:>13.4f} {row['shm']['seconds']:>9.4f} "
            f"{row['socket']['seconds']:>11.4f} {row['shm']['workers']:>8} "
            f"{row['shm']['records']:>8} {row['shm']['words']:>8}"
        )
    print(
        "every distributed CosimResult bitwise identical to the serial grouped "
        "run (both carriers); wall-clock wins need >1 CPU -- see EXPERIMENTS.md"
    )

    # -- persistent serving ------------------------------------------------
    serving = serving_benchmark(size)
    print(
        f"\n=== Persistent serving: resident fabric vs. elaborate-per-request "
        f"({serving['workload']}) ==="
    )
    s_header = f"{'arm':<22} {'req/s':>10} {'p50 (ms)':>9} {'p99 (ms)':>9}"
    print(s_header)
    print("-" * len(s_header))
    for arm in ("resident", "elaborate_per_request"):
        row = serving[arm]
        print(
            f"{arm:<22} {row['requests_per_second']:>10,.1f} "
            f"{row['p50_ms']:>9.3f} {row['p99_ms']:>9.3f}"
        )
    print(
        f"{serving['resident']['requests']} requests; resident serving sustains "
        f"{serving['amortisation']:.1f}x the elaborate-per-request throughput "
        "(sampled requests verified bitwise against fresh elaborations)"
    )

    # -- sharded sweep -----------------------------------------------------
    sweep = None
    if args.processes:
        sweep = sharded_sweep(size, args.processes)

    # -- persist -----------------------------------------------------------
    meta = {
        "size": size,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "aggregate_wall_seconds": None,  # per-file below
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for backend in BACKENDS:
        payload = {
            "meta": {**meta, "backend": backend, "aggregate_wall_seconds": total[backend]},
            "workloads": {
                name: {k: v for k, v in stats.items() if k != "result"}
                for name, stats in bench[backend].items()
            },
        }
        if backend == "source":
            payload["transport_dataplane"] = dataplane
            payload["kernel_microbench"] = kernels_bench
            payload["grouped_execution"] = grouped
            payload["distributed"] = distributed
            payload["serving"] = serving
            if sweep is not None:
                payload["sweep"] = sweep
        # Quick (CI smoke) runs get their own files so they never clobber
        # the committed full-size trajectory that EXPERIMENTS.md records.
        suffix = "_quick" if size == "quick" else ""
        out_path = args.out_dir / f"BENCH_{backend}{suffix}.json"
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path}")

    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
