"""Generate the three compiler outputs for a partitioned design (Figure 6).

Given a Vorbis partition letter, this example runs the partitioner and emits
the software C++ translation unit, the hardware BSV module and the HW/SW
interface (C header + BSV arbiter) into ``generated/<partition>/`` -- the
"Fully Automatic" and "Interface Only" methodologies of Section 1.  The
BSV is the hardware output, as in the paper, which hands it to Bluespec's
``bsc``.

Run with:  python examples/generate_interfaces.py [partition-letter]
"""

import pathlib
import sys

from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis.partitions import build_partition
from repro.codegen.bsv import generate_hw_partition
from repro.codegen.cxx import generate_sw_partition
from repro.codegen.interface import build_interface_spec, generate_hw_arbiter, generate_sw_header
from repro.core.domains import HW, SW
from repro.core.partition import partition_design


def main():
    letter = sys.argv[1] if len(sys.argv) > 1 else "B"
    backend = build_partition(letter, VorbisParams(n_frames=4))
    partitioning = partition_design(backend.design, SW)
    spec = build_interface_spec(partitioning)

    out_dir = pathlib.Path("generated") / f"vorbis_{letter}"
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = {
        "sw_partition.cpp": generate_sw_partition(
            backend.design, partitioning.program(SW), spec=spec
        ),
        "interface.h": generate_sw_header(spec),
        "hw_interface.bsv": generate_hw_arbiter(spec),
    }
    if HW in partitioning.programs:
        outputs["hw_partition.bsv"] = generate_hw_partition(
            backend.design, partitioning.program(HW), spec=spec
        )

    for name, text in outputs.items():
        (out_dir / name).write_text(text)
        print(f"wrote {out_dir / name}  ({len(text.splitlines())} lines)")

    print()
    print(spec.report())


if __name__ == "__main__":
    main()
