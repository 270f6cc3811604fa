"""The six HW/SW partitions of the Vorbis back-end (Figure 12).

Each partition is a placement of the back-end's stage groups onto the HW and
SW domains.  ``F`` is the full-software design and ``E`` the full-hardware
back-end (the front end and the audio output always stay in software, as in
the paper).  The intermediate points reproduce the trade-offs the evaluation
discusses:

* ``A`` -- only the IFFT core is in hardware.  The IMDCT invokes it with a
  full complex frame in each direction, so the communication cost roughly
  cancels the computation savings ("the effect of moving only the IFFT to HW
  is marginal"; the measured partition is slightly *slower* than F).
* ``B`` -- IFFT plus the IMDCT FSMs move to hardware; traffic drops to the
  small real-valued frames at the group boundary and the partition beats F.
* ``C`` -- IFFT and the windowing function are in hardware but the IMDCT FSMs
  stay in software, so every frame crosses the boundary four times; this is
  the slowest partition ("moving the windowing function to HW is not worth
  the communication overhead").
* ``D`` -- everything except the back-end input control is in hardware.
* ``E`` -- the complete back-end, including its control, is in hardware.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.vorbis.backend import VorbisBackend, build_backend
from repro.apps.vorbis.params import VorbisParams
from repro.core.domains import HW, SW, Domain
from repro.core.module import Design, Module
from repro.sim.cosim import ThresholdDone

#: Placement of each stage group, per partition letter.
PARTITIONS: Dict[str, Dict[str, Domain]] = {
    "A": {"ctrl": SW, "imdct": SW, "ifft": HW, "window": SW},
    "B": {"ctrl": SW, "imdct": HW, "ifft": HW, "window": SW},
    "C": {"ctrl": SW, "imdct": SW, "ifft": HW, "window": HW},
    "D": {"ctrl": SW, "imdct": HW, "ifft": HW, "window": HW},
    "E": {"ctrl": HW, "imdct": HW, "ifft": HW, "window": HW},
    "F": {"ctrl": SW, "imdct": SW, "ifft": SW, "window": SW},
}

#: Display order used by the Figure 13 benchmark (matches the paper's x axis).
PARTITION_ORDER: List[str] = ["A", "B", "C", "D", "E", "F"]


def partition_placement(letter: str) -> Dict[str, Domain]:
    """The stage placement of one of the paper's partitions (A--F)."""
    if letter not in PARTITIONS:
        raise KeyError(f"unknown Vorbis partition {letter!r}; expected one of {PARTITION_ORDER}")
    return dict(PARTITIONS[letter])


def build_partition(letter: str, params: Optional[VorbisParams] = None) -> VorbisBackend:
    """Build the back-end design for partition ``letter``."""
    return build_backend(
        params=params,
        placement=partition_placement(letter),
        name=f"vorbis_{letter}",
    )


def hw_stage_names(letter: str) -> List[str]:
    """Which stage groups are in hardware for a partition (used in reports)."""
    return sorted(stage for stage, dom in PARTITIONS[letter].items() if dom == HW)


# --------------------------------------------------------------------------
# multi-domain partitions (N-domain fabric workloads)
# --------------------------------------------------------------------------
#
# Beyond the paper's two-way split: the same back-end, cut into more than
# two domain partitions by giving stage groups their *own* hardware
# domains.  Each extra domain becomes its own cycle-level engine with its
# own point-to-point links in the co-simulation fabric -- e.g. partition G
# is the front-end/control in software, the IMDCT+IFFT on one hardware
# partition and the windowing function on a second, with the q_post
# synchronizer riding a dedicated HW_IMDCT->HW_WIN link instead of
# competing with the SW-side traffic.  Domain names start with ``HW`` so
# :func:`repro.sim.cosim.default_engine_kinds` picks the hardware engine.

HW_IMDCT = Domain("HW_IMDCT")
HW_IFFT = Domain("HW_IFFT")
HW_WIN = Domain("HW_WIN")

#: Multi-domain placements: G = 3 domains (SW -> HW-imdct/ifft -> HW-window),
#: H = 4 domains (the IFFT pipe gets its own partition as well).
MULTI_PARTITIONS: Dict[str, Dict[str, Domain]] = {
    "G": {"ctrl": SW, "imdct": HW_IMDCT, "ifft": HW_IMDCT, "window": HW_WIN},
    "H": {"ctrl": SW, "imdct": HW_IMDCT, "ifft": HW_IFFT, "window": HW_WIN},
}

MULTI_PARTITION_ORDER: List[str] = ["G", "H"]


def multi_partition_placement(letter: str) -> Dict[str, Domain]:
    """The stage placement of one multi-domain partition (G, H)."""
    if letter not in MULTI_PARTITIONS:
        raise KeyError(
            f"unknown multi-domain Vorbis partition {letter!r}; "
            f"expected one of {MULTI_PARTITION_ORDER}"
        )
    return dict(MULTI_PARTITIONS[letter])


def build_multi_partition(letter: str, params: Optional[VorbisParams] = None):
    """Build the back-end design for multi-domain partition ``letter``."""
    return build_backend(
        params=params,
        placement=multi_partition_placement(letter),
        name=f"vorbis_{letter}",
    )


# --------------------------------------------------------------------------
# multi-group partitions (independently clocked pipelines in one design)
# --------------------------------------------------------------------------
#
# Where G/H cut one pipeline into more *domains*, the workloads below cut
# one design into more *groups*: several complete back-end pipelines under
# one root, each on its own disjoint domain set (``SW_P<i>``/``HW_P<i>``),
# with no synchronizer joining them.  ``Partitioning.independent_groups()``
# therefore reports one group per pipeline, and the co-simulation fabric
# runs each under its own clock -- serially with per-group idle-skip, or
# fanned across processes by ``repro.sim.pool.run_grouped``.  This models
# a platform hosting several latency-insensitive accelerated streams at
# once (the paper's modular-refinement guarantee applies per pipeline).

class MultiGroupVorbis:
    """Several independent Vorbis back-end pipelines in one design.

    ``pipes[i]`` is the :class:`~repro.apps.vorbis.backend.VorbisBackend`
    handle of pipeline ``i`` (placed per ``letters[i]`` on domains
    ``SW_P<i>``/``HW_P<i>``).  The termination predicate spans every
    pipeline -- each group's sub-fabric quiesces on its own, and the merged
    run is complete when every sink has emitted all frames.
    """

    def __init__(self, design, params: VorbisParams, letters: str, pipes):
        self.design = design
        self.params = params
        self.letters = letters
        self.pipes = list(pipes)

    @property
    def cosim_done(self) -> ThresholdDone:
        """Every pipeline's ``frames_out`` has reached ``n_frames``.

        A :class:`~repro.sim.cosim.ThresholdDone`, as every run across
        groups or processes requires: its registers say which group each
        threshold belongs to, and a process-parallel grouped run compares
        each minimum with the final its group's worker reports.
        """
        return ThresholdDone((pipe.frames_out, self.params.n_frames) for pipe in self.pipes)

    def checksums(self, reader) -> List[int]:
        """Per-pipeline PCM checksums via a register reader function."""
        return [reader(pipe.checksum) for pipe in self.pipes]


def multi_group_placement(letter: str, index: int) -> Dict[str, Domain]:
    """Partition ``letter``'s placement, renamed onto pipeline ``index``'s domains."""
    sw = Domain(f"SW_P{index}")
    hw = Domain(f"HW_P{index}")
    return {
        stage: (hw if dom == HW else sw)
        for stage, dom in partition_placement(letter).items()
    }


def build_group_partition(
    letters: str = "BC", params: Optional[VorbisParams] = None
) -> MultiGroupVorbis:
    """Build ``len(letters)`` independent pipelines, one per partition letter.

    Each pipeline is a full back-end placed per its letter (A--F), living
    on its own ``SW_P<i>``/``HW_P<i>`` domain pair; the returned design has
    exactly one independent group per pipeline.
    """
    params = params or VorbisParams()
    top = Module(f"vorbis_mg_{letters}")
    pipes = []
    for index, letter in enumerate(letters):
        sw = Domain(f"SW_P{index}")
        pipe = build_backend(
            params=params,
            placement=multi_group_placement(letter, index),
            name=f"vorbis_{letter}_p{index}",
            sw_domain=sw,
        )
        top.add_submodule(pipe.design.root)
        pipes.append(pipe)
    design = Design(top, f"vorbis_mg_{letters}")
    return MultiGroupVorbis(design, params, letters, pipes)

