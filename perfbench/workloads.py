"""The three benchmark workloads and the loop that measures them.

Every workload is a sequence of *passes* over a fixed, seeded work set.  A
pass is made of *operations* (what a closed-loop client with one
outstanding request waits for), each of which contains one *simulation
call*:

===============  ============================  ==========================
workload         operation                     simulation call
===============  ============================  ==========================
``sweep_cold``   one design: build, interface  one ``CosimFabric.run``
                 generation, cold fabric, run
``vorbis_warm``  ``restore`` + ``run`` of      ``CosimFabric.run``
                 vorbis_C or vorbis_G
``serve_mixed``  one request                   ``FabricServer.serve``
===============  ============================  ==========================

A pass of ``sweep_cold`` is one fresh interpreter over the 12 shipped
designs; of ``vorbis_warm`` one run of each fabric, plus on every
:data:`DISTRIB_EVERY`-th pass one ``run_distributed`` of vorbis_C (domain
placement, 2 members), which is checked and feeds the ``sim.distrib``
layer but is left out of the end-to-end figures; of ``serve_mixed`` the
seeded stream of :data:`SERVE_STREAM` requests.  Every operation is checked against a
reference computed outside timing, and against the first run of the same
operation (simulated statistics must repeat exactly); mismatches and
exceptions count as failed operations and never abort the run.

Operations with the same key (design, or request) repeat across passes, so
medians are taken per key and combined as a mean weighted by how often each
key ran (:func:`keyed_percentile`): a pass that runs two fabrics of
different cost reports a typical call of each, not the boundary between
them.  Tail percentiles pool every operation of the run, since one key
holds too few calls for a tail of its own.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

import common
import tracer as tracing
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis.params import VorbisParams
from repro.sim import distrib
from repro.sim.cosim import CosimFabric
from repro.sim.serve import FabricServer, percentile, safe_ratio, serve_fresh

clock = time.perf_counter

#: Fresh-interpreter set-up probes per untraced run (workloads other than
#: ``sweep_cold``, whose passes are themselves cold interpreters).
SETUP_PROBES = 9
#: Requests per ``serve_mixed`` pass; every :data:`SERVE_RAY_EVERY`-th one
#: is a raytracer tile, the others vorbis frame ranges, as in
#: ``examples/serve_requests.py``.
SERVE_STREAM = 1000
SERVE_RAY_EVERY = 3
#: Raytracer scenes (resident servers) the tiles are spread over.
SERVE_SCENES = 16
#: ``vorbis_warm`` runs its distributed leg on every this-many-th pass, so
#: the member forks interrupt few of the warm runs it measures.
DISTRIB_EVERY = 4
#: Seconds a fresh-interpreter job may take before it counts as failed.
JOB_TIMEOUT = 120


def keyed_percentile(samples: List[Tuple[Any, float]], q: float) -> float:
    """Per-key nearest-rank percentiles of ``(key, value)`` samples, combined
    as a mean weighted by each key's share of the samples."""
    by_key: Dict[Any, List[float]] = {}
    for key, value in samples:
        by_key.setdefault(key, []).append(value)
    return safe_ratio(
        sum(len(values) * percentile(values, q) for values in by_key.values()), len(samples)
    )


def reference_checksum(rec: "Record", design: Dict[str, Any]) -> Optional[int]:
    """The reference model's checksum, or None (counted as failed) if it raises;
    no output ever equals None."""
    try:
        return common.expected_checksum(design)
    except Exception as exc:
        rec.fail(f"reference model for {design['name']}: {type(exc).__name__}: {exc}")
        return None


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one ``cold.py`` job in a fresh interpreter and return its result."""
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "cold.py"), json.dumps(job)],
        cwd=str(common.ROOT),
        capture_output=True,
        text=True,
        timeout=JOB_TIMEOUT,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"cold.py exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Record:
    """Everything one measuring phase observed.

    Times are kept as measured and normalised to the reference host when
    metrics are computed (:class:`common.HostSpeed`): each operation is
    scaled by the calibration samples taken around it.  Workloads call
    ``rec.speed.sample()`` before each operation.
    """

    def __init__(self) -> None:
        self.passes: List[Dict[str, Any]] = []
        self.setup: List[float] = []
        self.rss: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Additive per-layer counts gathered outside the tracer.
        self.extra: Dict[str, float] = {}
        self.speed = common.HostSpeed()
        self._first: Dict[Any, Any] = {}
        self._pass: Optional[Dict[str, Any]] = None

    def fail(self, message: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def begin_pass(self) -> None:
        self._pass = {
            "start": clock(),
            "spent": self.speed.spent,
            "ops": [],
            "excluded": 0.0,
            "firings": 0,
            "fpga_cycles": 0.0,
        }

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` of the current pass out of its wall time."""
        self._pass["excluded"] += seconds

    def end_pass(self, wall_s: Optional[float] = None) -> None:
        """Close the pass; its wall time leaves out calibration sampling and
        the seconds passed to :meth:`exclude`."""
        current = self._pass
        if wall_s is None:
            wall_s = (
                clock()
                - current["start"]
                - (self.speed.spent - current["spent"])
                - current["excluded"]
            )
        current["wall_s"] = wall_s
        self.passes.append(current)
        self._pass = None

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def op(
        self, key, identity, latency, call, firings, cycles, messages, words, stalls, ok,
        error="", scale=None,
    ):
        """Record one finished operation; ``identity`` must repeat exactly.

        ``scale`` is the operation's host-speed factor when it was measured
        elsewhere (a fresh interpreter); otherwise it comes from
        ``self.speed`` around the time of this call.
        """
        self.attempted += 1
        first = self._first.setdefault(key, identity)
        if not ok or first != identity:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{key}: {error or 'simulated statistics changed between runs'}")
        current = self._pass
        current["ops"].append((clock() - latency / 2, latency, call, scale, key))
        current["firings"] += firings
        current["fpga_cycles"] += cycles
        self.add("platform.channel.messages", messages)
        self.add("platform.channel.words", words)
        self.add("platform.channel.credit_stalls", stalls)

    def op_result(self, key, result, latency, call, ok, error=""):
        """:meth:`op` for an in-process ``CosimResult``."""
        self.op(
            key,
            result,
            latency,
            call,
            result.sw_firings + result.hw_firings,
            result.fpga_cycles,
            result.channel_messages,
            result.channel_words,
            common.stall_count(result),
            ok,
            error,
        )

    def _scales(self, p) -> List[float]:
        return [op[3] if op[3] is not None else self.speed.scale(op[0]) for op in p["ops"]]

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics, in reference-host seconds."""
        calls: List[Tuple[Any, float]] = []
        latencies: List[Tuple[Any, float]] = []
        walls: List[float] = []
        rates: List[float] = []
        for p in self.passes:
            scales = self._scales(p)
            pass_calls = [(op[4], op[2] * s) for op, s in zip(p["ops"], scales)]
            calls += pass_calls
            latencies += [(op[4], op[1] * s) for op, s in zip(p["ops"], scales)]
            walls.append(p["wall_s"] * (statistics.fmean(scales) if scales else 1.0))
            rates.append(safe_ratio(p["firings"], sum(c for _, c in pass_calls)))
        return {
            "setup_s": statistics.median(self.setup) if self.setup else 0.0,
            "sweep_s": statistics.median(walls) if walls else 0.0,
            "run_s_p50": keyed_percentile(calls, 50),
            "run_s_p90": percentile([c for _, c in calls], 90),
            "firings_per_s": statistics.median(rates) if rates else 0.0,
            "req_per_s": safe_ratio(len(latencies), sum(walls)),
            "latency_ms_p50": keyed_percentile(latencies, 50) * 1e3,
            "latency_ms_p99": percentile([t for _, t in latencies], 99) * 1e3,
            "fpga_cycles": self.passes[0]["fpga_cycles"] if self.passes else 0.0,
            "peak_rss_mb": max(self.rss + [common.peak_rss_mb()]),
        }

    def host_time(self) -> Dict[str, Any]:
        """Unnormalised percentiles and the host-speed record, for the result file."""
        ops = [op for p in self.passes for op in p["ops"]]
        scales = [s for p in self.passes for s in self._scales(p)]
        return {
            "run_s_p50": keyed_percentile([(op[4], op[2]) for op in ops], 50),
            "latency_ms_p50": keyed_percentile([(op[4], op[1]) for op in ops], 50) * 1e3,
            "latency_ms_p99": percentile([op[1] for op in ops], 99) * 1e3,
            "calibration_samples": len(self.speed.values),
            "scale_mean": statistics.fmean(scales) if scales else 1.0,
            "operations": len(ops),
        }


class Workload:
    """A named work set; subclasses fill in the passes."""

    name = ""
    why = ""
    memo = True
    regime = "warm"
    #: Layers that must record at least one span in a traced pass.
    expected_layers: tuple = ()

    def __init__(self, seed: int):
        self.seeds = common.derive_seeds(seed)
        #: File-name stem of this run's outputs under ``perfbench/results``.
        self.stem = ""

    def setup_designs(self) -> List[Dict[str, Any]]:
        return []

    def prepare(self, rec: Record) -> None:
        """Reference results, computed once outside timing."""

    def elaborate(self, tracer: Optional[tracing.Tracer]) -> None:
        """Build the resident state the passes run on."""

    def run_pass(self, rec: Record, tracer: Optional[tracing.Tracer], index: int) -> None:
        raise NotImplementedError

    def trace_totals(self, tracer: tracing.Tracer) -> Dict[str, float]:
        return tracing.totals(tracer)

    def probe_setup(self, rec: Record) -> None:
        """Cold set-up samples: each in its own fresh interpreter."""
        job = {"mode": "setup", "designs": self.setup_designs()}
        for _ in range(SETUP_PROBES):
            try:
                out = run_job(job)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                rec.fail(f"setup probe: {exc}")
                continue
            rec.attempted += 1
            rec.setup.append(out["setup_s"])
            rec.rss.append(out["peak_rss_mb"])


def measure(
    workload: Workload,
    seconds: float,
    rec: Record,
    tracer: Optional[tracing.Tracer] = None,
    span_budget: int = 0,
) -> int:
    """Run whole passes until ``seconds`` have elapsed; returns the pass count.

    A traced phase also stops once the tracer holds ``span_budget`` spans,
    which bounds its memory.
    """
    workload.elaborate(tracer)
    if tracer is not None:
        tracer.mark()
    start = clock()
    passes = 0
    while True:
        workload.run_pass(rec, tracer, passes)
        passes += 1
        if clock() - start >= seconds or (
            tracer is not None and len(tracer.spans) >= span_budget
        ):
            rec.speed.sample(force=True)  # the sample after the last operation
            return passes


# ---------------------------------------------------------------------------
# sweep_cold
# ---------------------------------------------------------------------------


class SweepCold(Workload):
    name = "sweep_cold"
    why = "design-space exploration over the 12 shipped designs in fresh interpreters; set-up and interface generation dominate"
    regime = "cold"
    expected_layers = (
        "apps.build",
        "sim.cosim.init",
        "core.pycodegen.generate",
        "codegen.interface",
        "sim.cosim.run",
        "sim.swsim.step",
        "sim.hwsim.step",
        "sim.cosim.done",
        "platform.marshal.encode",
        "platform.marshal.decode",
        "apps.kernels.call",
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        # Tiny raytracer scenes: the scene seed moves their cycles and run
        # times by 15-35 %, so vorbis runs (whose cost does not depend on
        # the seed) set the top percentiles and most of fpga_cycles.
        vorbis = asdict(VorbisParams(n_frames=6, seed=self.seeds["vorbis"]))
        ray = asdict(
            RayTracerParams(
                n_triangles=8, image_width=2, image_height=2, seed=self.seeds["raytracer"]
            )
        )
        self.designs = (
            [common.spec("vorbis", "partition", letter, vorbis) for letter in "ABCDEF"]
            + [common.spec("raytracer", "partition", letter, ray) for letter in "ABCD"]
            + [common.spec("vorbis", "multi", letter, vorbis) for letter in "GH"]
        )
        self.totals: Dict[str, float] = {}

    def prepare(self, rec: Record) -> None:
        by_app = {}
        self.expected = {}
        for design in self.designs:
            if design["app"] not in by_app:
                by_app[design["app"]] = reference_checksum(rec, design)
            self.expected[design["name"]] = by_app[design["app"]]

    def run_pass(self, rec, tracer, index) -> None:
        job = {
            "mode": "sweep",
            "designs": self.designs,
            "expected": self.expected,
            "trace": tracer is not None,
            "spans": str(common.RESULTS / f"{self.stem}-pass{index}-spans.jsonl.gz"),
            "index": index,
        }
        try:
            out = run_job(job)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            rec.fail(f"sweep pass: {exc}", len(self.designs))
            return
        rec.begin_pass()
        for row in out["rows"]:
            if "digest" not in row:
                rec.fail(f"{row['name']}: {row.get('error')}")
                continue
            rec.op(
                row["name"],
                row["digest"],
                row["latency_s"],
                row["run_s"],
                row["firings"],
                row["fpga_cycles"],
                row["messages"],
                row["words"],
                row["stalls"],
                row["ok"],
                row.get("error", ""),
                scale=row["scale"],
            )
        rec.end_pass(out["wall_s"])
        # A design that raised has no set-up time; it already counts as failed.
        rec.setup.append(
            sum(row["setup_s"] * row["scale"] for row in out["rows"] if "setup_s" in row)
        )
        rec.rss.append(out["peak_rss_mb"])
        if "totals" in out:
            tracing.add_totals(self.totals, out["totals"])

    def probe_setup(self, rec: Record) -> None:
        """Set-up samples come from the passes themselves."""

    def trace_totals(self, tracer) -> Dict[str, float]:
        return self.totals


# ---------------------------------------------------------------------------
# vorbis_warm
# ---------------------------------------------------------------------------


class VorbisWarm(Workload):
    name = "vorbis_warm"
    why = "warm restore+run of vorbis_C and vorbis_G with the kernel memo off, plus one 2-member distributed vorbis_C run per pass"
    memo = False
    expected_layers = (
        "sim.cosim.run",
        "sim.swsim.step",
        "sim.hwsim.step",
        "sim.cosim.done",
        "platform.marshal.encode",
        "platform.marshal.decode",
        "apps.kernels.call",
        "sim.distrib.run",
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        params = asdict(VorbisParams(n_frames=16, seed=self.seeds["vorbis"]))
        self.designs = [
            common.spec("vorbis", "partition", "C", params),
            common.spec("vorbis", "multi", "G", params),
        ]

    def setup_designs(self):
        return self.designs

    def prepare(self, rec: Record) -> None:
        self.expected = reference_checksum(rec, self.designs[0])
        # The distributed leg must equal the grouped scheduler on a fresh
        # elaboration of vorbis_C.
        self.grouped = None
        builder, args = common.builder_of(self.designs[0])
        try:
            workload = builder(*args)
            fabric = CosimFabric(workload.design, backend=common.BACKEND)
            grouped = fabric.run(
                workload.cosim_done, max_cycles=common.MAX_CYCLES, scheduler="grouped"
            )
            checksum = fabric.read(workload.checksum)
        except Exception as exc:  # every distributed leg then fails
            rec.fail(f"grouped reference: {type(exc).__name__}: {exc}")
            return
        if checksum == self.expected:
            self.grouped = grouped
        else:
            rec.fail(f"grouped reference checksum {checksum} differs from the reference model")

    def elaborate(self, tracer) -> None:
        self.fabrics = []
        for design in self.designs:
            builder, args = common.builder_of(design)
            workload = tracing.call(tracer, "apps.build", builder, *args)
            fabric = CosimFabric(workload.design, backend=common.BACKEND)
            self.fabrics.append((design["name"], workload, fabric, fabric.snapshot()))

    def run_pass(self, rec, tracer, index) -> None:
        rec.begin_pass()
        for rid, (name, workload, fabric, snap) in enumerate(self.fabrics):
            if tracer is not None:
                tracer.rid = rid
            rec.speed.sample()
            try:
                t0 = clock()
                fabric.restore(snap)
                t1 = clock()
                result = fabric.run(workload.cosim_done, max_cycles=common.MAX_CYCLES)
                t2 = clock()
                with tracing.paused(tracer):
                    checksum = fabric.read(workload.checksum)
            except Exception as exc:  # counted, never fatal
                rec.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            ok = result.completed and checksum == self.expected
            rec.op_result(name, result, t2 - t0, t2 - t1, ok, f"checksum {checksum}")
        if index % DISTRIB_EVERY == 0:
            if tracer is not None:
                tracer.rid = len(self.fabrics)
            self.run_distributed(rec)
        rec.end_pass()

    def run_distributed(self, rec: Record) -> None:
        """One ``run_distributed`` of vorbis_C: ``placement="domain"``, the
        ``shm`` carrier, 2 members.  Its work runs in member processes the
        calibration loop cannot see, so it is checked and recorded per layer
        but left out of the pass's end-to-end figures."""
        builder, args = common.builder_of(self.designs[0])
        t0 = clock()
        try:
            report = distrib.run_distributed(
                builder,
                args,
                backend=common.BACKEND,
                placement="domain",
                carrier="shm",
                processes=2,
            )
        except Exception as exc:  # counted, never fatal
            rec.exclude(clock() - t0)
            rec.fail(f"run_distributed: {type(exc).__name__}: {exc}")
            return
        seconds = clock() - t0
        rec.exclude(seconds)
        if report.result != self.grouped or report.fallback:
            rec.fail("run_distributed differs from scheduler='grouped'")
        else:
            rec.attempted += 1
        slowest = max((o.wall_seconds for o in report.outcomes), default=0.0)
        rec.add("sim.distrib.member_wall_s", slowest)
        rec.add("sim.distrib.dispatch_s", seconds - slowest)
        rec.add("sim.distrib.runs", 1)
        rec.add("sim.distrib.members", len(report.outcomes))
        for key in ("records", "words", "full_retries"):
            rec.add(f"sim.distrib.{key}", report.data_plane[key])


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeMixed(Workload):
    name = "serve_mixed"
    why = "closed loop, 1 client, seeded 2:1 vorbis/raytracer request stream through resident FabricServers with the memo on"
    expected_layers = (
        "sim.cosim.run",
        "sim.swsim.step",
        "sim.hwsim.step",
        "sim.cosim.done",
        "platform.marshal.encode",
        "platform.marshal.decode",
        "apps.kernels.call",
        "sim.serve.restore",
        "sim.cosim.write",
        "sim.cosim.read",
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        # The designs and scene size of ``examples/serve_requests.py``, the
        # repository's mixed serving stream.  Tile costs differ by about
        # 20 % between scene seeds, so the tiles are spread over
        # SERVE_SCENES seeded scenes, each on its own resident server.
        vorbis = VorbisParams(n_frames=6, seed=self.seeds["vorbis"])
        self.designs = {"vorbis": common.spec("vorbis", "partition", "B", asdict(vorbis))}
        scene_seeds = random.Random(self.seeds["raytracer"])
        for scene in range(SERVE_SCENES):
            params = RayTracerParams(
                n_triangles=24,
                image_width=4,
                image_height=4,
                seed=scene_seeds.randrange(1, 1 << 30),
            )
            self.designs[f"raytracer{scene}"] = common.spec(
                "raytracer", "partition", "B", asdict(params)
            )

    def setup_designs(self):
        return list(self.designs.values())

    def prepare(self, rec: Record) -> None:
        requests = {}
        for name, design in self.designs.items():
            builder, args = common.builder_of(design)
            handle = builder(*args)
            if design["app"] == "vorbis":
                count, make = handle.params.n_frames, handle.frame_request
            else:
                count, make = handle.params.n_rays, handle.tile_request
            requests[name] = [make(start) for start in range(count)]
        self.requests = requests
        # Every third request is a tile, as in the example.  Each app's
        # requests cover its (design, start) keys evenly, in seeded order.
        rng = random.Random(self.seeds["mix"])
        n_tiles = SERVE_STREAM // SERVE_RAY_EVERY
        by_app = {
            "vorbis": [("vorbis", start) for start in range(len(requests["vorbis"]))],
            "raytracer": [
                (name, start)
                for name in self.designs
                if name != "vorbis"
                for start in range(len(requests[name]))
            ],
        }
        queues = {}
        for app, count in (("vorbis", SERVE_STREAM - n_tiles), ("raytracer", n_tiles)):
            keys = by_app[app]
            queue = keys * (count // len(keys)) + rng.sample(keys, count % len(keys))
            rng.shuffle(queue)
            queues[app] = queue
        self.stream = [
            queues["raytracer" if i % SERVE_RAY_EVERY == SERVE_RAY_EVERY - 1 else "vorbis"].pop()
            for i in range(SERVE_STREAM)
        ]
        self.oracle = {}
        for name, start in sorted(set(self.stream) | {(name, 0) for name in requests}):
            builder, args = common.builder_of(self.designs[name])
            try:
                self.oracle[name, start] = serve_fresh(
                    builder,
                    requests[name][start],
                    args,
                    backend=common.BACKEND,
                    fabric_kind="fabric",
                )
            except Exception as exc:  # requests without an oracle fail
                rec.fail(f"serve_fresh {name}[{start}]: {type(exc).__name__}: {exc}")
        # A request from start 0 covers the whole input, so the oracle
        # itself is checked against the reference model there.
        for name, design in self.designs.items():
            if (name, 0) not in self.oracle:
                continue
            checksum_name = requests[name][0].outputs[0]
            got = self.oracle[name, 0].outputs[checksum_name]
            if got != reference_checksum(rec, design):
                del self.oracle[name, 0]
                rec.fail(f"serve_fresh {name} checksum {got} differs from the reference model")

    def elaborate(self, tracer) -> None:
        self.servers = {}
        for name, design in self.designs.items():
            builder, args = common.builder_of(design)
            self.servers[name] = FabricServer(
                builder, args, backend=common.BACKEND, fabric_kind="fabric"
            )

    def run_pass(self, rec, tracer, index) -> None:
        rec.begin_pass()
        for rid, key in enumerate(self.stream):
            name, start = key
            if tracer is not None:
                tracer.rid = rid
            rec.speed.sample()
            try:
                t0 = clock()
                served = self.servers[name].serve(self.requests[name][start])
                t1 = clock()
            except Exception as exc:  # counted, never fatal
                rec.fail(f"{key}: {type(exc).__name__}: {exc}")
                continue
            oracle = self.oracle.get(key)
            ok = (
                oracle is not None
                and served.outputs == oracle.outputs
                and served.result == oracle.result
            )
            rec.op_result(key, served.result, t1 - t0, t1 - t0, ok, "differs from serve_fresh")
        rec.end_pass()


WORKLOADS = {w.name: w for w in (SweepCold, VorbisWarm, ServeMixed)}
