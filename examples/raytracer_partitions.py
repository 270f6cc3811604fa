"""Explore the four HW/SW partitions of the ray tracer (Figures 13/14).

Builds the BVH-based ray tracer with each of the paper's four placements,
co-simulates them, verifies the rendered image checksum against the software
reference, and prints per-ray execution time together with the channel
traffic -- showing why co-locating the scene data with the intersection
hardware (partition C) wins while the other accelerated configurations lose
to plain software.

Run with:  python examples/raytracer_partitions.py [n_triangles] [image_size]
"""

import sys

from repro.apps.raytracer.params import RayTracerParams
from repro.apps.raytracer.partitions import PARTITION_ORDER, build_partition, hw_module_names
from repro.apps.raytracer.reference import render
from repro.sim.cosim import Cosimulator


def main():
    n_triangles = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    image_size = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    params = RayTracerParams(
        n_triangles=n_triangles, image_width=image_size, image_height=image_size
    )
    reference = render(params)
    print(
        f"Ray tracer: {params.n_triangles} triangles, {params.n_rays} primary rays, "
        f"{reference.hits} hit pixels"
    )
    print(f"{'partition':<10} {'HW modules':<42} {'cycles/ray':>12} {'channel words':>14}  checksum")
    print("-" * 96)

    for letter in PARTITION_ORDER:
        tracer = build_partition(letter, params)
        cosim = Cosimulator(tracer.design)
        result = cosim.run(tracer.cosim_done, max_cycles=500_000_000)
        checksum = cosim.read_sw(tracer.checksum)
        ok = "ok" if checksum == reference.checksum else "MISMATCH"
        hw = ", ".join(hw_module_names(letter)) or "none"
        print(
            f"{letter:<10} {hw:<42} {result.fpga_cycles / params.n_rays:>12.1f} "
            f"{result.channel_words:>14}  {ok}"
        )
        if checksum != reference.checksum:
            raise SystemExit(
                f"partition {letter}: image checksum {checksum} differs from the "
                f"software reference {reference.checksum}"
            )


if __name__ == "__main__":
    main()
