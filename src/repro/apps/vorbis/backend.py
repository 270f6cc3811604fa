"""The Vorbis back-end as an elaborated BCL design.

The module structure follows Section 4.1's ``mkVorbisBackEnd`` /
``mkPartitionedVorbisBackEnd``: a synthetic front end feeds spectral frames
into the back-end, which runs them through the IMDCT pre-multiply, a
three-stage pipelined IFFT (``mkIFFTPipe``), the IMDCT post step, the
sliding-window overlap-add and finally the audio-device sink.  Every stage
boundary is a synchronizer, so a *placement* mapping stage groups to
computational domains is all that is needed to express any of the paper's
partitions -- the same code builds all of Figure 12's configurations, which
is exactly the paper's point.

The audio sink accumulates a checksum of the emitted PCM words; because every
kernel is bit-exact fixed point, all partitions of the same workload must
produce the same checksum (the latency-insensitivity / modular-refinement
correctness claim), and the tests assert this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.apps.vorbis import kernels
from repro.apps.vorbis.params import VorbisParams
from repro.core.action import par
from repro.core.domains import HW, SW, Domain
from repro.core.expr import BinOp, Const, FieldSelect, KernelCall, RegRead, Var
from repro.core.module import Design, Module, Register
from repro.core.primitives import Fifo
from repro.core.synchronizers import SyncFifo
from repro.core.types import ComplexT, FixPtT, UIntT, VectorT

#: The stage groups whose domain can be chosen per partition.  ``frontend``
#: and ``audio`` always execute in software (the stream parser is hand-written
#: C++ in the paper; the audio device is reached through the processor's
#: memory-mapped IO).
PLACEABLE_STAGES = ("ctrl", "imdct", "ifft", "window")


@dataclass
class VorbisBackend:
    """Handle onto one built Vorbis back-end design and its observation points."""

    design: Design
    params: VorbisParams
    placement: Dict[str, Domain]
    frames_out: Register
    checksum: Register
    frame_idx: Register
    modules: Dict[str, Module] = field(default_factory=dict)
    syncs: Dict[str, SyncFifo] = field(default_factory=dict)

    def done(self, reader: Callable[[Register], object]) -> bool:
        """Whether all frames have been emitted, given a register reader."""
        return reader(self.frames_out) >= self.params.n_frames

    def cosim_done(self, cosim) -> bool:
        """Termination predicate for any :class:`~repro.sim.cosim.CosimFabric`.

        Uses the fabric's owner-resolved ``read`` so the same predicate
        drives the two-partition wrapper and N-domain fabrics alike
        (``frames_out`` lives in the always-software audio sink).
        """
        return cosim.read(self.frames_out) >= self.params.n_frames

    def frame_request(self, start_frame: int = 0, name: str = ""):
        """A serving request decoding frames ``start_frame..n_frames-1``.

        The request writes the generator cursor ``frame_idx`` (so the
        pipeline emits ``n_frames - start_frame`` frames -- different
        starts produce different checksums, which is what lets the serving
        tests detect any state leaking across snapshot resets), declares
        completion as ``frames_out`` reaching that count, and returns the
        audio checksum.  Plain picklable data, servable by a resident
        :class:`~repro.sim.serve.FabricServer` or a pool worker.
        """
        from repro.sim.serve import Request

        n_frames = self.params.n_frames
        if not 0 <= start_frame < n_frames:
            raise ValueError(
                f"start_frame must be in [0, {n_frames}), got {start_frame}"
            )
        return Request(
            name=name or f"{self.design.name}:frames[{start_frame}:{n_frames}]",
            writes={self.frame_idx.full_name: start_frame},
            done_min={self.frames_out.full_name: n_frames - start_frame},
            outputs=(self.checksum.full_name, self.frames_out.full_name),
        )


def build_backend(
    params: Optional[VorbisParams] = None,
    placement: Optional[Dict[str, Domain]] = None,
    name: str = "vorbis_backend",
    sync_depth: int = 2,
    sw_domain: Domain = SW,
) -> VorbisBackend:
    """Build the Vorbis back-end with the given HW/SW placement.

    ``placement`` maps each of :data:`PLACEABLE_STAGES` to a domain; stages
    not mentioned default to software.  The full-software design is therefore
    ``build_backend()`` with no placement at all.

    ``sw_domain`` renames the always-software side (front end and audio
    sink, plus the placement default).  Instantiating several back-ends with
    disjoint domain sets under one root module yields a design whose
    pipelines are *independent partition groups* -- no synchronizer joins
    them -- which is the multi-group workload the group-decomposed fabric
    and the process-parallel group runner exercise.
    """
    params = params or VorbisParams()
    placement = dict(placement or {})
    for stage in PLACEABLE_STAGES:
        placement.setdefault(stage, sw_domain)
    unknown = set(placement) - set(PLACEABLE_STAGES)
    if unknown:
        raise ValueError(f"unknown Vorbis stages in placement: {sorted(unknown)}")

    n = params.n
    points = params.ifft_points
    ib, fb = params.int_bits, params.frac_bits
    costs = kernels.kernel_costs(n)

    frame_t = VectorT(n, FixPtT(ib, fb))
    spectrum_t = VectorT(points, ComplexT(FixPtT(ib, fb)))
    samples_t = VectorT(points, FixPtT(ib, fb))
    pcm_t = VectorT(n, FixPtT(ib, fb))

    top = Module(name)

    # -- modules ---------------------------------------------------------------
    frontend = top.add_submodule(Module("frontend", domain=sw_domain))
    ctrl = top.add_submodule(Module("backend_ctrl", domain=placement["ctrl"]))
    imdct = top.add_submodule(Module("imdct", domain=placement["imdct"]))
    ifft = top.add_submodule(Module("ifft", domain=placement["ifft"]))
    window = top.add_submodule(Module("window", domain=placement["window"]))
    audio = top.add_submodule(Module("audio", domain=sw_domain))

    # -- synchronizers between stage groups -------------------------------------
    def sync(sync_name: str, ty, producer: Domain, consumer: Domain) -> SyncFifo:
        return top.add_submodule(
            SyncFifo(sync_name, ty, domain_enq=producer, domain_deq=consumer, depth=sync_depth)
        )

    q_in = sync("q_in", frame_t, sw_domain, placement["ctrl"])
    q_ctrl = sync("q_ctrl", frame_t, placement["ctrl"], placement["imdct"])
    q_pre = sync("q_pre", spectrum_t, placement["imdct"], placement["ifft"])
    q_ifft = sync("q_ifft", spectrum_t, placement["ifft"], placement["imdct"])
    q_post = sync("q_post", samples_t, placement["imdct"], placement["window"])
    q_pcm = sync("q_pcm", pcm_t, placement["window"], sw_domain)

    # The pipelined IFFT's internal stage buffers (never cross a domain).
    buffers = [
        ifft.add_submodule(Fifo(f"buff{i}", spectrum_t, depth=1))
        for i in range(1, params.ifft_stages)
    ]

    # -- registers ----------------------------------------------------------------
    frame_idx = frontend.add_register("frame_idx", UIntT(32), 0)
    prev_half = window.add_register("prev_half", pcm_t)
    frames_out = audio.add_register("frames_out", UIntT(32), 0)
    checksum = audio.add_register("checksum", UIntT(32), 0)

    # -- kernels -------------------------------------------------------------------
    def kc(kernel_name: str, fn, args) -> KernelCall:
        sw_c, hw_c = costs[kernel_name]
        return KernelCall(kernel_name, fn, args, sw_cycles=sw_c, hw_cycles=hw_c)

    gen_fn = lambda i: kernels.gen_frame(i, n, params.seed, ib, fb)  # noqa: E731
    input_fn = lambda frame: kernels.backend_input(frame, ib, fb)  # noqa: E731
    pre_fn = lambda frame: kernels.imdct_pre(frame, ib, fb)  # noqa: E731
    post_fn = lambda spectrum: kernels.imdct_post(spectrum, ib, fb)  # noqa: E731
    window_fn = lambda prev, cur: kernels.window_overlap(prev, cur, ib, fb)  # noqa: E731

    stages_per_rule = (points.bit_length() - 1 + params.ifft_stages - 1) // params.ifft_stages

    # -- rules -----------------------------------------------------------------------
    frontend.add_rule(
        "parse_frame",
        par(
            q_in.call("enq", kc("gen_frame", gen_fn, [RegRead(frame_idx)])),
            frame_idx.write(BinOp("+", RegRead(frame_idx), Const(1))),
        ).when(BinOp("<", RegRead(frame_idx), Const(params.n_frames))),
    )

    ctrl.add_rule(
        "backend_input",
        par(
            q_ctrl.call("enq", kc("backend_input", input_fn, [q_in.value("first")])),
            q_in.call("deq"),
        ),
    )

    imdct.add_rule(
        "imdct_pre",
        par(
            q_pre.call("enq", kc("imdct_pre", pre_fn, [q_ctrl.value("first")])),
            q_ctrl.call("deq"),
        ),
    )

    # Pipelined IFFT: one rule per stage, exactly mkIFFTPipe's generated rules.
    stage_inputs = [q_pre] + buffers
    stage_outputs = buffers + [q_ifft]
    for stage in range(params.ifft_stages):
        stage_fn = (
            lambda data, _s=stage: kernels.ifft_rule_stage(_s, data, stages_per_rule, ib, fb)
        )
        src, dst = stage_inputs[stage], stage_outputs[stage]
        ifft.add_rule(
            f"ifft_stage{stage}",
            par(
                dst.call("enq", kc("ifft_rule_stage", stage_fn, [src.value("first")])),
                src.call("deq"),
            ),
        )

    imdct.add_rule(
        "imdct_post",
        par(
            q_post.call("enq", kc("imdct_post", post_fn, [q_ifft.value("first")])),
            q_ifft.call("deq"),
        ),
    )

    window.add_rule(
        "window_overlap",
        # let wres = window(prev, cur) in { pcm out | keep second half | deq }
        _let_window_rule(window_fn, costs, prev_half, q_post, q_pcm),
    )

    audio.add_rule(
        "audio_out",
        par(
            checksum.write(
                kc(
                    "audio_out",
                    kernels.audio_checksum,
                    [q_pcm.value("first"), RegRead(checksum)],
                )
            ),
            frames_out.write(BinOp("+", RegRead(frames_out), Const(1))),
            q_pcm.call("deq"),
        ),
    )

    design = Design(top, name)
    backend = VorbisBackend(
        design=design,
        params=params,
        placement=placement,
        frames_out=frames_out,
        checksum=checksum,
        frame_idx=frame_idx,
        modules={
            "frontend": frontend,
            "ctrl": ctrl,
            "imdct": imdct,
            "ifft": ifft,
            "window": window,
            "audio": audio,
        },
        syncs={
            "q_in": q_in,
            "q_ctrl": q_ctrl,
            "q_pre": q_pre,
            "q_ifft": q_ifft,
            "q_post": q_post,
            "q_pcm": q_pcm,
        },
    )
    return backend


def _let_window_rule(window_fn, costs, prev_half, q_post, q_pcm):
    """Build the windowing rule: overlap-add, emit PCM, retain the new half frame."""
    from repro.core.action import LetA

    sw_c, hw_c = costs["window_overlap"]
    call = KernelCall(
        "window_overlap",
        window_fn,
        [RegRead(prev_half), q_post.value("first")],
        sw_cycles=sw_c,
        hw_cycles=hw_c,
    )
    body = par(
        q_pcm.call("enq", FieldSelect(Var("wres"), 0)),
        prev_half.write(FieldSelect(Var("wres"), 1)),
        q_post.call("deq"),
    )
    return LetA("wres", call, body)
