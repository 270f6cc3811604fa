"""Regenerate the fig13 golden CosimResult snapshot.

The snapshot ``fig13_cosim.json`` was captured at commit ``9df8a7b`` --
the last revision with the original two-partition ``Cosimulator`` -- and
is the bit-for-bit reference the N-domain fabric's two-partition
compatibility wrapper is tested against (``tests/test_fabric.py``).

Do NOT regenerate it casually: rerunning this script after a behavioural
change would launder the change through the golden file.  Regenerating is
only legitimate when the *workload definitions* change (new kernels, new
sizes), in which case note the regeneration commit here.

Usage::

    PYTHONPATH=src python tests/golden/regen_fig13_golden.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))

from repro.apps.raytracer import partitions as rt_partitions
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import partitions as vorbis_partitions
from repro.apps.vorbis.params import VorbisParams
from repro.sim.cosim import Cosimulator

#: Reduced fig13 sizes (steady state is reached after a handful of frames;
#: what the golden file pins is the exact cycle/fire/channel accounting).
VORBIS_PARAMS = VorbisParams(n_frames=4)
RAYTRACER_PARAMS = RayTracerParams(n_triangles=24, image_width=3, image_height=3)

#: The CosimResult fields the golden file pins (the pre-refactor field set;
#: fields added later are deliberately not part of the frozen contract).
GOLDEN_FIELDS = (
    "design_name",
    "fpga_cycles",
    "completed",
    "sw_busy_fpga_cycles",
    "sw_cpu_cycles",
    "sw_cpu_cycles_wasted",
    "sw_cpu_cycles_driver",
    "sw_firings",
    "sw_guard_failures",
    "hw_firings",
    "hw_active_cycles",
    "channel_messages",
    "channel_words",
    "channel_busy_cycles",
    "fire_counts",
    "vc_stats",
)


#: Golden key -> the backend that captures it.  ``compiled`` names the fast
#: execution tier the file was first recorded with; that tier is now
#: ``source``, and its bits equal the ``interp`` entry's on every workload.
TIERS = {"interp": "interp", "compiled": "source"}


def fig13_workloads():
    for letter in vorbis_partitions.PARTITION_ORDER:
        yield f"vorbis_{letter}", vorbis_partitions.build_partition(letter, VORBIS_PARAMS)
    for letter in rt_partitions.PARTITION_ORDER:
        yield f"raytracer_{letter}", rt_partitions.build_partition(letter, RAYTRACER_PARAMS)


def snapshot(workload, backend: str) -> dict:
    cosim = Cosimulator(workload.design, backend=backend)
    result = cosim.run(workload.cosim_done, max_cycles=500_000_000)
    full = asdict(result)
    entry = {field: full[field] for field in GOLDEN_FIELDS}
    # The committed architectural state, repr'd (values are ints/tuples of
    # ints -- repr round-trips them exactly and keeps the file diffable).
    entry["stores"] = {
        reg.full_name: repr(cosim.read(reg)) for reg in workload.design.all_registers()
    }
    return entry


def main() -> int:
    golden = {}
    for name, workload in fig13_workloads():
        golden[name] = {key: snapshot(workload, backend) for key, backend in TIERS.items()}
        print(f"captured {name}")
    out = Path(__file__).resolve().parent / "fig13_cosim.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
