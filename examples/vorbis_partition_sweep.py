"""Sweep the six HW/SW partitions of the Ogg Vorbis back-end (Figures 12/13).

For each partition A--F this example builds the same BCL back-end with a
different stage placement, co-simulates it on the ML507 platform model, checks
that the PCM checksum is bit-identical to the hand-written reference, and
prints the per-frame execution time -- the experiment at the heart of the
paper's evaluation.  The SystemC and hand-coded C++ baselines of Figure 13
are included for comparison.

Run with:  python examples/vorbis_partition_sweep.py [n_frames]
"""

import sys

from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis.partitions import PARTITION_ORDER, build_partition, hw_stage_names
from repro.apps.vorbis.reference import expected_checksum
from repro.baselines.handcoded import run_handcoded_vorbis, run_systemc_vorbis
from repro.sim.cosim import Cosimulator


def main():
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    params = VorbisParams(n_frames=n_frames)
    reference = expected_checksum(params)
    print(f"Ogg Vorbis back-end, {n_frames} frames, 64-point IFFT, 32/24 fixed point")
    print(f"{'partition':<12} {'HW stages':<28} {'cycles/frame':>14}  checksum")
    print("-" * 72)

    for letter in PARTITION_ORDER:
        backend = build_partition(letter, params)
        cosim = Cosimulator(backend.design)
        result = cosim.run(backend.cosim_done, max_cycles=500_000_000)
        checksum = cosim.read_sw(backend.checksum)
        hw = ", ".join(hw_stage_names(letter)) or "none"
        print(f"{letter:<12} {hw:<28} {result.fpga_cycles / n_frames:>14.1f}  "
              f"{'ok' if checksum == reference else 'MISMATCH'}")
        check(f"partition {letter}", checksum, reference)

    systemc = run_systemc_vorbis(params)
    handcoded = run_handcoded_vorbis(params)
    print(f"{'F1 SystemC':<12} {'none (event-driven model)':<28} "
          f"{systemc.fpga_cycles_per_frame():>14.1f}  "
          f"{'ok' if systemc.checksum == reference else 'MISMATCH'}")
    print(f"{'F2 hand C++':<12} {'none (manual software)':<28} "
          f"{handcoded.fpga_cycles_per_frame():>14.1f}  "
          f"{'ok' if handcoded.checksum == reference else 'MISMATCH'}")
    check("SystemC baseline", systemc.checksum, reference)
    check("hand-coded C++ baseline", handcoded.checksum, reference)


def check(what, checksum, reference):
    if checksum != reference:
        raise SystemExit(
            f"{what}: PCM checksum {checksum} differs from the reference {reference}"
        )


if __name__ == "__main__":
    main()
