"""``python -m repro.analysis``: lint the shipped workloads statically.

For each selected workload the CLI elaborates the design, partitions it,
prints the promoted :meth:`~repro.core.partition.Partitioning.summary`
(the same topology description the examples print), runs every design
check plus the snapshot-completeness audit over a freshly built
:class:`~repro.sim.cosim.CosimFabric`, and reports diagnostics with their
stable codes.  The exit status is non-zero when any **non-suppressed**
diagnostic (error or warning) fired -- this is the CI ``lint-designs``
gate, and lint wall-time per workload is printed so EXPERIMENTS.md can
pin that the pass stays trivially cheap relative to elaboration.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.analysis.diagnostics import filter_suppressed, render_report
from repro.analysis.snapshot_audit import audit_fabric
from repro.analysis.verifier import verify_design
from repro.analysis.workloads import shipped_workloads, workload_by_name
from repro.sim.cosim import CosimFabric


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify shipped workloads (lint-designs gate).",
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        help="workload names to lint (default: every shipped workload)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list shipped workload names and exit"
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a diagnostic code (e.g. REPRO-W005) or check name "
        "(e.g. dead-rule); repeatable",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the snapshot-completeness audit (design checks only)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only failing workloads"
    )
    args = parser.parse_args(argv)

    if args.list:
        for spec in shipped_workloads():
            print(spec.name)
        return 0

    specs = (
        [workload_by_name(name) for name in args.workloads]
        if args.workloads
        else shipped_workloads()
    )

    total = 0
    for spec in specs:
        t0 = time.perf_counter()
        workload = spec.build()
        elaborate_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        diags = verify_design(workload.design)
        if not args.no_audit:
            fabric = CosimFabric(workload.design)
            diags += audit_fabric(fabric)
        diags = filter_suppressed(diags, args.suppress)
        lint_s = time.perf_counter() - t1
        total += len(diags)

        if args.quiet and not diags:
            continue
        print(f"== {spec.name} ==")
        if not args.quiet:
            from repro.core.partition import partition_design

            print(partition_design(workload.design).summary())
        print(
            f"  lint: {len(diags)} diagnostic(s) in {lint_s * 1e3:.1f} ms "
            f"(elaboration {elaborate_s * 1e3:.1f} ms)"
        )
        if diags:
            print(render_report(diags))

    if total:
        print(f"FAIL: {total} non-suppressed diagnostic(s) across {len(specs)} workload(s)")
        return 1
    print(f"OK: {len(specs)} workload(s) lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
