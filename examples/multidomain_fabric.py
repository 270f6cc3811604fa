"""Run the Vorbis back-end as an N-domain co-simulation fabric.

The paper's central claim is that synchronizer placement -- not a fixed
HW/SW split -- defines the partitioning.  This example takes it past two
partitions: the same back-end design is cut into *three* domains
(software front-end/control, an ``HW_IMDCT`` partition holding the IMDCT
and the IFFT pipe, and an ``HW_WIN`` partition holding the windowing
function) and into *four* (the IFFT pipe gets its own partition).  Each
domain elaborates to its own engine; each (producer, consumer) domain
route on the cut gets its own point-to-point link with credit-based
virtual channels; the PCM checksum stays bit-identical to every
two-partition placement -- the latency-insensitivity guarantee.

The example then fans a sweep over all partitionings (two-domain A-F plus
the multi-domain ones) across worker processes with
:func:`repro.sim.pool.run_pool`, and -- with ``--grouped`` -- runs a
*multi-group* workload (several independent pipelines in one design) two
ways: the fabric's own serially scheduled group sub-fabrics, and
:func:`repro.sim.pool.run_grouped` fanning the groups of that single
design across ``--processes`` workers, verifying the two results bitwise
identical and every checksum bit-exact.

With ``--distributed`` the multi-group workload additionally runs through
:func:`repro.sim.distrib.run_distributed`: each domain of a multi-domain
group runs in its own worker process, and every cut link between two of
them carries its messages as real framed wire words over a shared-memory
ring -- verified bitwise identical to the serial grouped run.

Run with:  python examples/multidomain_fabric.py [n_frames] [--grouped]
           [--distributed] [--group-letters BC] [--processes N]
"""

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis.partitions import (
    MULTI_PARTITION_ORDER,
    PARTITION_ORDER,
    build_group_partition,
    build_multi_partition,
    build_partition,
)
from repro.apps.vorbis.reference import expected_checksum
from repro.sim.cosim import CosimFabric
from repro.sim.distrib import run_distributed
from repro.sim.pool import PoolTask, run_grouped, run_pool


def outcome_rows(outcomes) -> str:
    """One row per pool outcome: task, simulated cycles, worker wall time, pid."""
    lines = [f"{'task':<22} {'fpga cycles':>12} {'wall (s)':>9} {'pid':>7}"]
    for o in outcomes:
        lines.append(
            f"{o.name:<22} {o.result.fpga_cycles:>12.0f} {o.wall_seconds:>9.3f} {o.pid:>7}"
        )
    return "\n".join(lines)


def run_grouped_section(letters: str, params: VorbisParams, processes: int) -> None:
    """The multi-group demonstration: per-group clocks and process fan-out."""
    reference = expected_checksum(params)
    print(f"\nMulti-group workload: {len(letters)} independent pipelines "
          f"({'+'.join(letters)}) in one design")

    workload = build_group_partition(letters, params)
    fabric = CosimFabric(workload.design)
    groups = [
        "+".join(d.name for d in fabric.group_domains(i))
        for i in range(fabric.group_count)
    ]
    print(f"  groups: {groups}")
    serial = fabric.run(workload.cosim_done, max_cycles=500_000_000)
    checksums = workload.checksums(fabric.read)
    print(f"  serially scheduled groups: {serial!r}")
    print(f"  checksums: {checksums} (reference {reference})")
    if not serial.completed or any(c != reference for c in checksums):
        raise SystemExit("multi-group serial run diverged from the reference")

    merged, outcomes = run_grouped(
        build_group_partition, args=(letters, params), processes=processes
    )
    print(outcome_rows(outcomes))
    print(f"  process-grouped merged result: {merged!r}")
    if asdict(merged) != asdict(serial):
        raise SystemExit(
            "process-grouped merged result diverged from the serial grouped run"
        )
    workers = len({o.pid for o in outcomes})
    print(
        f"  process-grouped merged result bitwise identical to the serial "
        f"grouped run ({len(outcomes)} groups on {workers} worker processes)"
    )


def run_distributed_section(letters: str, params: VorbisParams, processes: int) -> None:
    """The distributed demonstration: domains in worker processes, cut links
    as framed wire words over shared-memory rings."""
    reference = expected_checksum(params)
    print(f"\nDistributed co-simulation ({'+'.join(letters)})")

    workload = build_group_partition(letters, params)
    fabric = CosimFabric(workload.design)
    serial = fabric.run(workload.cosim_done, max_cycles=500_000_000)
    checksums = workload.checksums(fabric.read)
    if not serial.completed or any(c != reference for c in checksums):
        raise SystemExit("serial grouped reference diverged from the checksum")

    report = run_distributed(
        build_group_partition, args=(letters, params), processes=processes
    )
    print(report.table())
    if asdict(report.result) != asdict(serial):
        raise SystemExit("distributed result diverged from the serial grouped run")
    if not report.fallback:
        if report.data_plane["words"] <= 0:
            raise SystemExit(
                "domain placement moved no framed wire words across process "
                "boundaries"
            )
        print(
            f"  {report.data_plane['records']} framed records / "
            f"{report.data_plane['words']} wire words crossed process "
            "boundaries over shared-memory rings; result bitwise identical to "
            "the serial grouped run"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n_frames", nargs="?", type=int, default=12)
    parser.add_argument(
        "--grouped", action="store_true",
        help="also run the multi-group workload (serial groups vs worker processes)",
    )
    parser.add_argument(
        "--distributed", action="store_true",
        help="also run the multi-group workload with one worker process per "
             "domain (framed wire words on cut links)",
    )
    parser.add_argument(
        "--group-letters", default="BC",
        help="partition letter per independent pipeline of the grouped workload",
    )
    parser.add_argument(
        "--processes", type=int, default=2,
        help="worker processes for the sweep and the grouped run",
    )
    args = parser.parse_args()
    n_frames = args.n_frames
    params = VorbisParams(n_frames=n_frames)
    reference = expected_checksum(params)
    print(f"Ogg Vorbis back-end, {n_frames} frames, multi-domain fabrics")
    print(f"{'partition':<11} {'domains':<38} {'links':>6} {'cycles/frame':>13}  checksum")
    print("-" * 84)

    serial_cycles = {}
    for letter in MULTI_PARTITION_ORDER:
        workload = build_multi_partition(letter, params)
        # verify=True: statically lint the design and audit this fabric's
        # snapshot coverage before running (the `python -m repro.analysis`
        # checks, in strict elaboration mode).
        fabric = CosimFabric(workload.design, verify=True)
        result = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        serial_cycles[f"vorbis_{letter}_fabric"] = result.fpga_cycles
        checksum = fabric.read(workload.checksum)
        domains = "+".join(d.name for d in fabric.domains)
        status = "ok" if (result.completed and checksum == reference) else "MISMATCH"
        print(
            f"{letter:<11} {domains:<38} {len(fabric.topology):>6} "
            f"{result.fpga_cycles / n_frames:>13.1f}  {checksum} [{status}]"
        )
        if not result.completed or checksum != reference:
            raise SystemExit(f"multi-domain partition {letter} diverged from the reference")
        for link in fabric.topology.links:
            direction = fabric.topology.direction(link.src, link.dst)
            print(f"{'':<11}   link {link.name:<28} {direction.stats.messages:>6} msgs")

    print("\nPool sweep over every partitioning (2-domain A-F + multi-domain):")
    tasks = [
        PoolTask(name=f"vorbis_{letter}", builder=build_partition, args=(letter, params))
        for letter in PARTITION_ORDER
    ] + [
        # Default pool tasks: every worker serves on the N-domain fabric.
        PoolTask(
            name=f"vorbis_{letter}_fabric",
            builder=build_multi_partition,
            args=(letter, params),
        )
        for letter in MULTI_PARTITION_ORDER
    ]
    # A small fixed worker count even on small boxes so the multiprocess
    # path is exercised; run_pool(tasks) alone would use one per CPU.
    outcomes, processes = run_pool(tasks, processes=args.processes)
    print(outcome_rows(outcomes))
    print(f"{len(outcomes)} tasks on {processes} processes")
    results = {o.name: o.result for o in outcomes}
    incomplete = [n for n, r in results.items() if not r.completed]
    if incomplete:
        raise SystemExit(f"incomplete sweep tasks: {incomplete}")
    # Cross-check the worker-process fabric runs against the serial runs
    # whose checksums were verified above.
    for name, cycles in serial_cycles.items():
        if results[name].fpga_cycles != cycles:
            raise SystemExit(
                f"{name}: sweep worker simulated {results[name].fpga_cycles} "
                f"cycles, serial run simulated {cycles}"
            )
    print(
        "all partitionings completed; multi-domain checksums verified bit-identical "
        "above and sweep workers match the serial runs cycle-for-cycle"
    )

    if args.grouped:
        run_grouped_section(args.group_letters, params, args.processes)

    if args.distributed:
        run_distributed_section(args.group_letters, params, args.processes)


if __name__ == "__main__":
    main()
