"""Repository benchmark: three workloads, end-to-end metrics, a traced layer table.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vorbis_warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures untraced passes for ``--seconds`` seconds and prints
every end-to-end metric.  ``--trace 1`` spends half the time on untraced
passes and half on passes under :class:`tracer.Tracer`, and prints every
per-layer metric (per pass) plus the tracing overhead; the table rows that
make up a simulation call must add up to ``sim.cosim.run_s``.  Either way
the last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a result file (with the
run's conditions) under ``perfbench/results/`` and appends it to
``perfbench/results/history.jsonl``; traced runs write their spans there.

All simulation runs on ``backend="source"``.  See ``perfbench/README.md``
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "run_s_p50": "s",
    "run_s_p90": "s",
    "firings_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "fpga_cycles": "cycles",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (printed with ``--trace 1``);
#: all are per pass (``sim.distrib.*``: per distributed run) unless they are
#: ratios, and times are in reference-host seconds (scaled by the traced
#: phase's mean host-speed factor).
PER_LAYER = {
    "apps.build_s": "s",
    "sim.cosim.init_s": "s",
    "core.pycodegen.generate_s": "s",
    "core.pycodegen.modules": "count",
    "codegen.interface_s": "s",
    "codegen.artifact_bytes": "B",
    "sim.cosim.run_s": "s",
    "sim.swsim.step_s": "s",
    "sim.swsim.steps": "count",
    "sim.swsim.progress_ratio": "ratio",
    "sim.hwsim.step_s": "s",
    "sim.hwsim.steps": "count",
    "sim.hwsim.progress_ratio": "ratio",
    "sim.cosim.done_s": "s",
    "sim.cosim.done_calls": "count",
    "platform.marshal.encode_s": "s",
    "platform.marshal.decode_s": "s",
    "sim.cosim.loop_self_s": "s",
    "apps.kernels.call_s": "s",
    "apps.kernels.calls": "count",
    "core.kernelcompile.cache_hit_ratio": "ratio",
    "core.kernelcompile.cache_lookups": "count",
    "core.fixedpoint.boxed": "count",
    "sim.serve.restore_s": "s",
    "sim.cosim.write_s": "s",
    "sim.cosim.read_s": "s",
    "sim.distrib.member_wall_s": "s",
    "sim.distrib.dispatch_s": "s",
    "sim.distrib.members": "count",
    "sim.distrib.records": "count",
    "sim.distrib.words": "count",
    "platform.channel.messages": "count",
    "platform.channel.words": "count",
    "platform.channel.credit_stalls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.reconcile_gap": "ratio",
}

#: Spans a traced phase may hold before it stops starting passes.
SPAN_BUDGET = 300_000


def per_layer(totals, extra, passes, traced, untraced):
    """Per-pass layer metrics from additive traced totals."""
    from repro.sim.serve import safe_ratio

    import tracer as tracing

    def per_pass(value):
        return safe_ratio(value, passes)

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}_s"] = per_pass(totals[f"{layer}.self_s"])
    out["sim.cosim.run_s"] = per_pass(totals["sim.cosim.run.incl_s"])
    out["sim.cosim.loop_self_s"] = per_pass(totals["sim.cosim.run.self_s"])
    for engine in ("swsim", "hwsim"):
        spans = totals[f"sim.{engine}.step.spans"]
        out[f"sim.{engine}.steps"] = per_pass(spans)
        out[f"sim.{engine}.progress_ratio"] = safe_ratio(
            totals[f"sim.{engine}.step.progress"], spans
        )
    out["sim.cosim.done_calls"] = per_pass(totals["sim.cosim.done.spans"])
    out["apps.kernels.calls"] = per_pass(totals["apps.kernels.call.spans"])
    lookups = totals.get("cache.lookups", 0)
    out["core.kernelcompile.cache_hit_ratio"] = safe_ratio(totals.get("cache.hits", 0), lookups)
    out["core.kernelcompile.cache_lookups"] = per_pass(lookups)
    for key in ("core.fixedpoint.boxed", "core.pycodegen.modules", "codegen.artifact_bytes"):
        out[key] = per_pass(totals.get(key, 0))
    runs = extra.get("sim.distrib.runs", 0)
    for key in PER_LAYER:
        if key.startswith("sim.distrib."):  # per distributed run
            out[key] = safe_ratio(extra.get(key, 0), runs)
        elif key.startswith("platform.channel."):
            out[key] = per_pass(extra.get(key, 0))
    out["trace.overhead_ratio"] = safe_ratio(
        traced.end_to_end()["run_s_p50"], untraced.end_to_end()["run_s_p50"]
    )
    out["trace.reconcile_gap"] = tracing.reconcile(
        out["sim.cosim.run_s"],
        [out["sim.cosim.loop_self_s"]] + [out[f"{layer}_s"] for layer in tracing.RUN_PARTS],
    )
    # Layer times in reference-host seconds, like the end-to-end times.
    scale = traced.host_time()["scale_mean"]
    return {key: out[key] * scale if PER_LAYER[key] == "s" else out[key] for key in PER_LAYER}


def layer_table(name, totals, extra, passes) -> str:
    """Human-readable per-layer self times (host seconds per pass)."""
    from repro.sim.serve import safe_ratio

    import tracer as tracing

    run = safe_ratio(totals["sim.cosim.run.incl_s"], passes)
    lines = [
        f"layer table: {name}, {passes} traced pass(es); self host seconds and spans per pass,",
        "share of sim.cosim.run (rows marked * make it up, with the run's own self time)",
        f"{'layer':<34} {'self s/pass':>12} {'spans/pass':>11} {'share':>7}",
    ]
    rows = []
    for layer in tracing.LAYERS:
        seconds = safe_ratio(totals[f"{layer}.self_s"], passes)
        mark = ""
        if layer == "sim.cosim.run" or layer in tracing.RUN_PARTS:
            rows.append(seconds)
            mark = " *"
        lines.append(
            f"{layer + mark:<34} {seconds:>12.6f} "
            f"{safe_ratio(totals[f'{layer}.spans'], passes):>11.1f} "
            f"{safe_ratio(seconds, run):>6.1%}"
        )
    runs = extra.get("sim.distrib.runs", 0)
    for key in ("sim.distrib.member_wall_s", "sim.distrib.dispatch_s"):
        seconds = safe_ratio(extra.get(key, 0.0), runs)
        lines.append(f"{key[:-2] + ' (per run)':<34} {seconds:>12.6f} {'-':>11} {'-':>7}")
    lines.append(
        f"sim.cosim.run spans {run:.6f} s/pass; rows marked * {sum(rows):.6f} s/pass; "
        f"gap {tracing.reconcile(run, rows):.2e} (tolerance {tracing.RECONCILE_TOLERANCE})"
    )
    return "\n".join(lines)


def trace_problems(workload, totals, metrics) -> list:
    """Reconciliation and layer-coverage problems of a traced phase."""
    import tracer as tracing

    problems = []
    gap = metrics["trace.reconcile_gap"]
    if gap > tracing.RECONCILE_TOLERANCE:
        problems.append(f"layer table rows miss sim.cosim.run_s by {gap:.2%}")
    for layer in tracing.LAYERS:
        if f"{layer}.spans" not in totals:
            problems.append(f"layer {layer} missing from the table")
    for layer in workload.expected_layers:
        if not totals.get(f"{layer}.spans"):
            problems.append(f"no span recorded for layer {layer}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_source_tree()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}"
    workload.stem = stem
    common.RESULTS.mkdir(parents=True, exist_ok=True)

    untraced = workloads.Record()
    workload.prepare(untraced)
    problems = []
    from repro.core import kernelcompile

    with kernelcompile.kernel_cache_override(workload.memo):
        if args.trace == 0:
            workload.probe_setup(untraced)
            passes = workloads.measure(workload, args.seconds, untraced)
            metrics = untraced.end_to_end()
            units = END_TO_END
            records = [untraced]
        else:
            workloads.measure(workload, args.seconds / 2, untraced)
            traced = workloads.Record()
            tracer = tracing.Tracer()
            cache_before = kernelcompile.kernel_cache_info()
            tracer.install()
            try:
                passes = workloads.measure(
                    workload, args.seconds / 2, traced, tracer, SPAN_BUDGET
                )
            finally:
                tracer.uninstall()
            cache_after = kernelcompile.kernel_cache_info()
            totals = workload.trace_totals(tracer)
            tracing.add_totals(
                totals,
                {
                    "cache.hits": cache_after["hits"] - cache_before["hits"],
                    "cache.lookups": cache_after["hits"] + cache_after["misses"]
                    - cache_before["hits"] - cache_before["misses"],
                },
            )
            if len(tracer.spans):  # sweep_cold passes write their own
                tracer.write_spans(
                    str(common.RESULTS / f"{stem}-spans.jsonl.gz"),
                    {"workload": workload.name, "seed": args.seed},
                )
            metrics = per_layer(totals, traced.extra, passes, traced, untraced)
            units = PER_LAYER
            records = [untraced, traced]
            print(layer_table(workload.name, totals, traced.extra, passes))
            print(
                f"tracing overhead: traced run_s_p50 / untraced run_s_p50 = "
                f"{metrics['trace.overhead_ratio']:.3f}"
            )
            problems = trace_problems(workload, totals, metrics)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    for key, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {key} is not finite")
            metrics[key] = 0.0
    errors = [e for r in records for e in r.errors] + problems
    correct = failed == 0 and not problems and attempted > 0

    from repro.sim.serve import safe_ratio

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "host_time": records[-1].host_time(),
        "conditions": common.conditions(workload.memo, workload.regime),
        "inputs": workload.seeds,
        "extra": records[-1].extra,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": safe_ratio(failed, attempted),
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    text = json.dumps(report, sort_keys=True)
    (common.RESULTS / f"{stem}.json").write_text(text + "\n")
    with open(common.RESULTS / "history.jsonl", "a") as history:
        history.write(text + "\n")

    print(
        f"{workload.name} seed={args.seed} passes={passes} "
        f"operations={report['host_time']['operations']} memo={report['conditions']['kernel_memo']} "
        f"kernel_backend={report['conditions']['kernel_backend']}"
    )
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {units[key]}")
    print(f"  {'failed_frac':<36} {report['failed_frac']:>16.6g} (base: {attempted} attempted)")
    for message in errors:
        print(f"  problem: {message}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        common.stop_children()
    raise SystemExit(code)
