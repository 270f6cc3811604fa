"""One fresh-interpreter job: a cold sweep pass, or cold set-up probes.

Run as ``python3 perfbench/cold.py '<job json>'``; prints one JSON object
as its last line.  Jobs:

* ``{"mode": "sweep", "designs": [...], "expected": {...}, "trace": bool,
  "spans": path}`` -- for every design spec: the builder, then
  ``partition_design`` and ``build_interface_spec`` plus every per-domain
  and per-link generator, then a cold ``CosimFabric`` and one run, then
  verification against the reference checksum.  With ``trace`` the pass
  runs under a :class:`tracer.Tracer`, writes its spans to ``spans`` and
  returns the additive layer totals.
* ``{"mode": "setup", "designs": [...]}`` -- the builder plus a ready
  fabric (constructed and snapshotted) for every design spec; returns the
  summed seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict

import common

common.require_source_tree()

from repro.codegen import bsv, cxx, interface  # noqa: E402
from repro.core import kernelcompile  # noqa: E402
from repro.core.domains import SW  # noqa: E402
from repro.core.partition import partition_design  # noqa: E402
from repro.sim.cosim import CosimFabric  # noqa: E402

import tracer as tracing  # noqa: E402


def generate_interfaces(workload) -> int:
    """Partition, build the interface spec and render every artifact.

    Generators are looked up on their modules at call time, so an
    installed tracer sees each call.  Returns the artifact count.
    """
    partitioning = partition_design(workload.design, SW)
    spec = interface.build_interface_spec(partitioning)
    by_name = {d.name: d for d in partitioning.domains}
    artifacts = []
    for name in spec.sw_domains:
        artifacts.append(interface.generate_sw_header(spec, name))
        artifacts.append(interface.generate_sw_marshal_source(spec, name))
        artifacts.append(
            cxx.generate_sw_partition(
                workload.design, spec=spec, partitioning=partitioning, domain=by_name[name]
            )
        )
    for name in spec.hw_domains:
        artifacts.append(interface.generate_hw_arbiter(spec, name))
        artifacts.append(
            bsv.generate_hw_partition(
                workload.design, spec=spec, partitioning=partitioning, domain=by_name[name]
            )
        )
    transactors = interface.generate_transactors(spec)
    return len(artifacts) + sum(len(pair) for pair in transactors.values())


def sweep(job) -> dict:
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()

    clock = time.perf_counter
    kernelcompile.set_kernel_cache(True)
    speed = common.HostSpeed()
    rows = []
    pass_start = clock()
    spent = speed.spent
    for index, design in enumerate(job["designs"]):
        if tracer is not None:
            tracer.rid = index
        speed.sample(force=True)
        row = {"name": design["name"], "ok": False, "t": clock()}
        try:
            builder, args = common.builder_of(design)
            t0 = clock()
            workload = tracing.call(tracer, "apps.build", builder, *args)
            tracing.call(tracer, "codegen.interface", generate_interfaces, workload)
            fabric = CosimFabric(workload.design, backend=common.BACKEND)
            t1 = clock()
            result = fabric.run(workload.cosim_done, max_cycles=common.MAX_CYCLES)
            t2 = clock()
            with tracing.paused(tracer):
                checksum = fabric.read(workload.checksum)
            digest = hashlib.sha1(
                json.dumps(asdict(result), sort_keys=True).encode()
            ).hexdigest()
            row.update(
                setup_s=t1 - t0,
                run_s=t2 - t1,
                latency_s=t2 - t0,
                firings=result.sw_firings + result.hw_firings,
                fpga_cycles=result.fpga_cycles,
                messages=result.channel_messages,
                words=result.channel_words,
                stalls=common.stall_count(result),
                digest=digest,
                ok=bool(result.completed) and checksum == job["expected"][design["name"]],
            )
            if not row["ok"]:
                row["error"] = f"checksum {checksum} or incomplete run"
        except Exception as exc:  # one failing design must not end the pass
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    wall = clock() - pass_start - (speed.spent - spent)
    speed.sample(force=True)
    for row in rows:
        row["scale"] = speed.scale(row.pop("t"))
    out = {"rows": rows, "wall_s": wall, "peak_rss_mb": common.peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        out["totals"] = tracing.totals(tracer)
        cache = kernelcompile.kernel_cache_info()
        out["totals"]["cache.hits"] = cache["hits"]
        out["totals"]["cache.lookups"] = cache["hits"] + cache["misses"]
        tracer.write_spans(job["spans"], {"workload": "sweep_cold", "pass": job.get("index")})
    return out


def setup(job) -> dict:
    """Set-up seconds of the designs, normalised like every other time."""
    clock = time.perf_counter
    speed = common.HostSpeed()
    samples = []
    for design in job["designs"]:
        builder, args = common.builder_of(design)
        speed.sample(force=True)
        t0 = clock()
        workload = builder(*args)
        CosimFabric(workload.design, backend=common.BACKEND).snapshot()
        samples.append((t0, clock() - t0))
    speed.sample(force=True)
    return {
        "setup_s": sum(seconds * speed.scale(t0) for t0, seconds in samples),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    out = sweep(job) if job["mode"] == "sweep" else setup(job)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
