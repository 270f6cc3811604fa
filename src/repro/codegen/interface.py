"""Interface (transactor) generation: the compiler's third output (Figure 6).

For every synchronizer on a domain cut the compiler must produce the glue
that implements its two endpoints over a physical link: a virtual channel
id, marshaling/demarshaling code sized by the element type's canonical bit
layout, and an arbiter entry that multiplexes all virtual channels sharing
one physical link.  This module derives that information from a
partitioning and renders it in several forms:

* a software-side C header per software domain (virtual-channel table +
  send/receive helpers for every link that domain touches),
* a hardware-side BSV arbiter/marshaler skeleton per hardware domain (one
  arbitration group per outbound link),
* a transactor pair per point-to-point link (producer-side marshaler,
  consumer-side demarshaler, each rendered for the engine kind of the
  domain it runs on), and
* human-readable reports used by the examples and the Figure 12/14
  structure benchmarks.

The model is *route-keyed*: an :class:`InterfaceSpec` holds one
:class:`LinkSpec` per (producer domain, consumer domain) pair of
:meth:`~repro.core.partition.Partitioning.route_pairs`, mirroring the
N-domain co-simulation fabric's topology.  Virtual-channel ids are assigned
globally in cut order (they identify a message on the wire, exactly as the
simulator's :class:`~repro.platform.libdn.VirtualChannelTable` does) and
each link additionally numbers its own channels from zero -- the
numbering its arbitration group and transactor pair are generated against.
Hardware-ness of a domain is resolved through the partitioning's
engine-kind mapping (:func:`repro.core.partition.default_engine_kind` plus
explicit overrides), never by matching a literal domain name.

The classic two-partition HW/SW interface is the degenerate case (two
links, one hardware and one software domain); its ``report()``, C header
and BSV arbiter render byte-identically to the historical two-sided
generator, pinned by ``tests/golden/fig13_interface.json``.

Because the spec is derived purely from the cut, the paper's "Interface
Only" methodology falls out for free: a team can implement either side of
any link by hand against this contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.codegen.bsv import generate_demarshal_rules, generate_marshal_rules
from repro.codegen.cxx import (
    generate_field_macros,
    generate_pack_function,
    generate_unpack_function,
)
from repro.core.domains import Domain
from repro.core.errors import CodegenError
from repro.core.partition import Partitioning
from repro.core.types import words_for
from repro.platform.channel import ChannelParams
from repro.platform.marshal import message_words, validate_wire_format


def _identifier(text: str) -> str:
    """Sanitize ``text`` into a C/BSV identifier (deterministically)."""
    out = re.sub(r"[^0-9A-Za-z_]", "_", text)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _camel(text: str) -> str:
    """``HW_IMDCT`` -> ``HwImdct`` (for generated BSV module names)."""
    return "".join(part.title() for part in _identifier(text).split("_") if part)


def _c_word_type(word_bits: int) -> str:
    """The C container type holding one link word (payload arrays are counted
    in link words, so the buffer contract must match the link width)."""
    for bits in (8, 16, 32, 64):
        if word_bits <= bits:
            return f"uint{bits}_t"
    raise CodegenError(
        f"link word width {word_bits} exceeds 64 bits; no C integer type holds one word"
    )


class _IdentTable:
    """Collision-checked identifier allocation for one generated artifact."""

    def __init__(self, artifact: str):
        self.artifact = artifact
        self._owners: Dict[str, str] = {}

    def claim(self, ident: str, source: str) -> str:
        owner = self._owners.get(ident)
        if owner is not None and owner != source:
            raise CodegenError(
                f"{self.artifact}: generated identifier {ident!r} collides between "
                f"{owner!r} and {source!r}; rename one of them"
            )
        self._owners[ident] = source
        return ident


@dataclass(frozen=True)
class ChannelSpec:
    """One synchronizer's mapping onto its route's physical link."""

    vc_id: int
    name: str
    producer: str
    consumer: str
    element_type: str
    payload_words: int
    message_words: int
    depth: int
    #: This channel's slot within its link's own virtual-channel numbering.
    link_vc: int = 0
    #: Word width of the link this channel is marshalled for.
    word_bits: int = 32
    #: The element's :class:`~repro.core.types.BCLType` (``None`` for
    #: synthetic specs); with it, the generators render this channel's real
    #: marshaling code from its canonical :class:`~repro.platform.marshal.MessageLayout`.
    ty: Any = None

    @property
    def direction(self) -> str:
        return f"{self.producer}->{self.consumer}"

    @property
    def macro(self) -> str:
        """The sanitized identifier stem used for C macros and BSV names."""
        return _identifier(self.name)


@dataclass
class LinkSpec:
    """One point-to-point link: every channel routed over one (src, dst) pair.

    Channels carry their link-local ``link_vc`` numbering (0..n-1 in cut
    order); ``params`` are the physical parameters the fabric's
    ``link_params`` assigned to this route (``None`` means the platform
    default).  Each link owns one transactor pair: a producer-side
    marshaler/arbiter and a consumer-side demarshaler/dispatcher.
    """

    producer: str
    consumer: str
    channels: List[ChannelSpec]
    word_bits: int = 32
    params: Optional[ChannelParams] = None

    @property
    def name(self) -> str:
        return f"{self.producer}->{self.consumer}"

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def tx_name(self) -> str:
        """Identifier of the producer-side (marshaling) transactor."""
        return f"tx_{_identifier(self.producer)}_to_{_identifier(self.consumer)}"

    @property
    def rx_name(self) -> str:
        """Identifier of the consumer-side (demarshaling) transactor."""
        return f"rx_{_identifier(self.producer)}_to_{_identifier(self.consumer)}"


@dataclass
class InterfaceSpec:
    """The complete inter-domain interface of one partitioned design.

    ``channels`` is the flat cut-ordered view (global vc ids, the wire
    numbering); ``links`` is the route-keyed view (one :class:`LinkSpec`
    per (producer, consumer) pair, in ``route_pairs()`` order).
    ``hw_domains``/``sw_domains`` record the engine-kind classification the
    spec was generated against.
    """

    design_name: str
    channels: List[ChannelSpec]
    word_bits: int = 32
    links: List[LinkSpec] = field(default_factory=list)
    hw_domains: List[str] = field(default_factory=list)
    sw_domains: List[str] = field(default_factory=list)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def domains(self) -> List[str]:
        return sorted(set(self.hw_domains) | set(self.sw_domains))

    def channels_of(self, domain: str) -> List[ChannelSpec]:
        """Every channel the domain touches (as producer or consumer), cut order."""
        return [c for c in self.channels if domain in (c.producer, c.consumer)]

    def link(self, producer: str, consumer: str) -> LinkSpec:
        for link in self.links:
            if link.producer == producer and link.consumer == consumer:
                return link
        raise KeyError(
            f"interface of {self.design_name} has no link {producer}->{consumer}; "
            f"routes: {[l.name for l in self.links]}"
        )

    def links_from(self, domain: str) -> List[LinkSpec]:
        return [l for l in self.links if l.producer == domain]

    def links_to(self, domain: str) -> List[LinkSpec]:
        return [l for l in self.links if l.consumer == domain]

    def is_hw(self, domain: str) -> bool:
        return domain in self.hw_domains

    def transactor_pairs(self) -> Dict[str, Tuple[str, str]]:
        """Link name -> (producer transactor, consumer transactor), route order."""
        return {l.name: (l.tx_name, l.rx_name) for l in self.links}

    def channel(self, name: str) -> Optional[ChannelSpec]:
        for ch in self.channels:
            if ch.name == name:
                return ch
        return None

    def endpoint_annotation(self, channel_name: str, role: str) -> Optional[str]:
        """The link-granular contract of one synchronizer endpoint.

        ``role`` is ``"send"`` (producer side) or ``"recv"`` (consumer
        side).  Both partition generators annotate their endpoint
        declarations with this one string, so the C and BSV outputs can
        never disagree about which link, per-link virtual channel and
        transactor implement an endpoint.  Returns ``None`` for a channel
        not on the cut.
        """
        ch = self.channel(channel_name)
        if ch is None:
            return None
        link = self.link(ch.producer, ch.consumer)
        transactor = link.tx_name if role == "send" else link.rx_name
        return (
            f"link {link.name} vc {ch.link_vc} (wire vc {ch.vc_id}, "
            f"{ch.message_words}x{ch.word_bits}-bit words/message, "
            f"transactor {transactor})"
        )

    def report(self) -> str:
        """Human-readable summary of the generated interface (flat wire view)."""
        lines = [f"HW/SW interface for {self.design_name}: {self.n_channels} virtual channel(s)"]
        for ch in self.channels:
            lines.append(
                f"  vc{ch.vc_id:<3} {ch.name:<14} {ch.direction:<10} depth={ch.depth} "
                f"{ch.payload_words:>4} payload words ({ch.message_words} with header)  {ch.element_type}"
            )
        return "\n".join(lines)

    def link_report(self) -> str:
        """Human-readable summary of the route-keyed view (one section per link)."""
        lines = [
            f"Interface for {self.design_name}: {len(self.links)} link(s), "
            f"{self.n_channels} virtual channel(s)"
        ]
        for link in self.links:
            lines.append(
                f"  link {link.name} ({link.word_bits}-bit words): "
                f"{link.n_channels} vc(s), transactors {link.tx_name} / {link.rx_name}"
            )
            for ch in link.channels:
                lines.append(
                    f"    link vc{ch.link_vc} (wire vc{ch.vc_id}) {ch.name:<14} depth={ch.depth} "
                    f"{ch.payload_words:>4} payload words ({ch.message_words} with header)"
                )
        if not self.links:
            lines.append("  (empty cut: single-domain design)")
        return "\n".join(lines)


def build_interface_spec(
    partitioning: Partitioning,
    word_bits: int = 32,
    engine_kinds: Optional[Dict[Union[Domain, str], str]] = None,
    link_params: Optional[Dict[Tuple[str, str], ChannelParams]] = None,
    verify: bool = False,
) -> InterfaceSpec:
    """Derive the route-keyed interface specification from a partitioned design.

    One :class:`LinkSpec` is produced per (producer, consumer) domain pair of
    ``partitioning.route_pairs()``; ``link_params`` overrides the physical
    parameters (and hence the marshaling word width) of individual routes,
    exactly as the co-simulation fabric's ``link_params`` does.  Domains are
    classified hardware/software through ``partitioning.engine_kinds`` --
    the same defaults-plus-overrides mapping the fabric simulates with -- so
    the generated transactors always agree with the simulation about which
    side of a link is a processor.

    ``verify=True`` statically lints the partitioned design first (isolation,
    channel deadlock, dead rules, kernel purity) and raises
    :class:`repro.analysis.VerificationError` on error-severity diagnostics,
    so transactors are never generated for a design the verifier rejects.
    """
    if verify:
        # Lazy import: the analysis package imports the simulator stack.
        from repro.analysis import require_clean, verify_partitioning

        require_clean(
            verify_partitioning(partitioning, link_params=link_params),
            context=f"build_interface_spec({partitioning.design.name!r})",
        )
    kinds = partitioning.engine_kinds(engine_kinds)
    overrides = link_params or {}

    routes = partitioning.route_pairs()
    link_word_bits = {
        route: (overrides[route].word_bits if route in overrides else word_bits)
        for route in routes
    }
    per_link_counts: Dict[Tuple[str, str], int] = {route: 0 for route in routes}

    channels: List[ChannelSpec] = []
    by_route: Dict[Tuple[str, str], List[ChannelSpec]] = {route: [] for route in routes}
    n_channels = len(partitioning.cut)
    for vc_id, sync in enumerate(partitioning.cut):
        route = (sync.domain_enq.name, sync.domain_deq.name)
        bits = link_word_bits[route]
        payload_words = words_for(sync.ty, bits)
        # Fail at spec-build time if the wire format cannot carry this
        # channel (vc-id space, length field, header width) -- the same
        # check the simulator's VirtualChannelTable performs, so a bad
        # link_params configuration cannot generate corrupt headers.
        validate_wire_format(
            n_channels,
            payload_words,
            bits,
            context=f"channel {sync.name} on link {route[0]}->{route[1]}",
        )
        spec = ChannelSpec(
            vc_id=vc_id,
            name=sync.name,
            producer=route[0],
            consumer=route[1],
            element_type=repr(sync.ty),
            payload_words=payload_words,
            message_words=message_words(sync.ty, bits),
            depth=sync.depth,
            link_vc=per_link_counts[route],
            word_bits=bits,
            ty=sync.ty,
        )
        per_link_counts[route] += 1
        channels.append(spec)
        by_route[route].append(spec)

    links = [
        LinkSpec(
            producer=src,
            consumer=dst,
            channels=by_route[(src, dst)],
            word_bits=link_word_bits[(src, dst)],
            params=overrides.get((src, dst)),
        )
        for src, dst in routes
    ]
    return InterfaceSpec(
        design_name=partitioning.design.name,
        channels=channels,
        word_bits=word_bits,
        links=links,
        hw_domains=sorted(name for name, kind in kinds.items() if kind == "hw"),
        sw_domains=sorted(name for name, kind in kinds.items() if kind == "sw"),
    )


def _resolve_domain(
    spec: InterfaceSpec, domain: Optional[Union[Domain, str]], want_kind: str
) -> str:
    """Resolve the target domain of a per-domain generator call.

    ``None`` selects the unique domain of the wanted kind (the historical
    one-header / one-arbiter API); with several candidates the caller must
    name one.
    """
    candidates = spec.sw_domains if want_kind == "sw" else spec.hw_domains
    if domain is None:
        if len(candidates) == 1:
            return candidates[0]
        if not candidates and want_kind == "hw":
            # Full-software design: the hardware side of the interface is
            # empty but the historical generator still renders its skeleton.
            return "HW"
        raise CodegenError(
            f"design {spec.design_name} has {len(candidates)} {want_kind} domain(s) "
            f"{candidates}; pass the domain to generate for explicitly"
        )
    name = domain.name if isinstance(domain, Domain) else domain
    if name not in candidates:
        raise CodegenError(
            f"domain {name!r} is not a {want_kind} domain of {spec.design_name} "
            f"(engine kinds classify {candidates} as {want_kind!r})"
        )
    return name


def generate_sw_header(
    spec: InterfaceSpec, domain: Optional[Union[Domain, str]] = None
) -> str:
    """Generate the C header of one software domain's transactors.

    The header covers every link the domain touches: a virtual-channel table
    (wire vc ids), a send helper per channel the domain produces and a
    receive helper per channel it consumes.  ``domain=None`` selects the
    design's unique software domain (the classic two-partition call).
    """
    dom = _resolve_domain(spec, domain, "sw")
    channels = spec.channels_of(dom)
    idents = _IdentTable(f"sw header for domain {dom} of {spec.design_name}")

    lines = [
        "/* Generated HW/SW interface header -- do not edit by hand. */",
        f"/* design: {spec.design_name} */",
        "#pragma once",
        "#include <stdint.h>",
        "",
        f"#define BCL_CHANNEL_WORD_BITS {spec.word_bits}",
        # The wire vc-id space is global (cut order), so a dispatch table
        # sized by this macro is indexable by every BCL_VC_* defined below
        # even when this domain touches only a subset of the channels.
        f"#define BCL_NUM_VIRTUAL_CHANNELS {spec.n_channels}",
    ]
    if len(channels) != spec.n_channels:
        lines.append(f"#define BCL_NUM_LOCAL_CHANNELS {len(channels)}")
    lines.append("")
    for ch in channels:
        macro = idents.claim(ch.macro.upper(), ch.name)
        lines.append(f"#define BCL_VC_{macro} {ch.vc_id}")
        lines.append(f"#define BCL_VC_{macro}_PAYLOAD_WORDS {ch.payload_words}")
        lines.append(f"#define BCL_VC_{macro}_DEPTH {ch.depth}")
        if ch.word_bits != spec.word_bits:
            lines.append(f"#define BCL_VC_{macro}_WORD_BITS {ch.word_bits}")
    lines.append("")
    lines.append("typedef struct { uint8_t vc; uint16_t len; } bcl_msg_header_t;")
    lines.append("")
    for ch in channels:
        name = ch.macro
        word_ty = _c_word_type(ch.word_bits)
        if ch.producer == dom:
            idents.claim(f"bcl_send_{name}", ch.name)
            lines.append(
                f"int bcl_send_{name}(const {word_ty} payload[{ch.payload_words}]); "
                f"/* {ch.producer} -> {ch.consumer} */"
            )
        if ch.consumer == dom:
            idents.claim(f"bcl_recv_{name}", ch.name)
            lines.append(
                f"int bcl_recv_{name}({word_ty} payload[{ch.payload_words}]);      "
                f"/* {ch.producer} -> {ch.consumer} */"
            )
    return "\n".join(lines) + "\n"


def generate_hw_arbiter(
    spec: InterfaceSpec, domain: Optional[Union[Domain, str]] = None
) -> str:
    """Generate the BSV arbiter/marshaling skeleton of one hardware domain.

    One marshaler FIFO per channel the domain produces, one demarshaler per
    channel it consumes, and one round-robin arbitration group per outbound
    link (each link is its own serialised physical resource, so its virtual
    channels arbitrate only among themselves).  ``domain=None`` selects the
    design's unique hardware domain (the classic two-partition call).
    """
    dom = _resolve_domain(spec, domain, "hw")
    channels = spec.channels_of(dom)
    idents = _IdentTable(f"hw arbiter for domain {dom} of {spec.design_name}")

    # The historical single-hardware-domain interface keeps its historical
    # module name; with several hardware domains each arbiter is named
    # after its domain so the generated modules can coexist.
    if len(spec.hw_domains) <= 1:
        module_name = "mkHwSwInterface"
    else:
        module_name = f"mk{_camel(dom)}Interface"

    lines = [
        "// Generated HW/SW interface (hardware side): arbitration + (de)marshaling",
        f"// design: {spec.design_name}",
        "import FIFO::*;",
        "",
        f"module {module_name} (Empty);",
        "  // One marshaling engine per outbound virtual channel, one demarshaler per inbound.",
    ]
    for ch in channels:
        if ch.producer == dom:
            lines.append(
                f"  // vc {ch.vc_id}: marshal {ch.name} ({ch.payload_words} words) onto the link"
            )
            fifo = idents.claim(f"{ch.macro}_out", ch.name)
            lines.append(f"  FIFO#(Bit#({ch.word_bits})) {fifo} <- mkSizedFIFO({ch.depth});")
        else:
            lines.append(
                f"  // vc {ch.vc_id}: demarshal {ch.name} ({ch.payload_words} words) from the link"
            )
            fifo = idents.claim(f"{ch.macro}_in", ch.name)
            lines.append(f"  FIFO#(Bit#({ch.word_bits})) {fifo} <- mkSizedFIFO({ch.depth});")
    lines.append("")

    outbound_links = spec.links_from(dom)
    if len(outbound_links) <= 1:
        # Single outbound link: the arbitration group is the whole outbound
        # set (the historical two-partition layout).
        lines.append(
            "  // Round-robin arbitration of outbound virtual channels onto the physical link."
        )
        for ch in (outbound_links[0].channels if outbound_links else []):
            rule = idents.claim(f"arbitrate_{ch.macro}", ch.name)
            lines.append(f"  rule {rule};")
            lines.append(f"    // grant vc {ch.vc_id} when its turn comes and it has a full message")
            lines.append("  endrule")
    else:
        for i, link in enumerate(outbound_links):
            if i:
                lines.append("")
            lines.append(
                f"  // Round-robin arbitration of outbound virtual channels onto link {link.name}."
            )
            for ch in link.channels:
                rule = idents.claim(f"arbitrate_{ch.macro}", ch.name)
                lines.append(f"  rule {rule};")
                lines.append(
                    f"    // grant link vc {ch.link_vc} (wire vc {ch.vc_id}) "
                    "when its turn comes and it has a full message"
                )
                lines.append("  endrule")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def generate_link_transactor(spec: InterfaceSpec, link: LinkSpec, side: str) -> str:
    """Generate one endpoint of a link's transactor pair.

    ``side`` is ``"tx"`` (producer endpoint: marshal + arbitrate onto the
    link) or ``"rx"`` (consumer endpoint: demarshal + dispatch by virtual
    channel).  The endpoint renders as BSV when the domain it runs on is a
    hardware domain and as a C header otherwise -- the per-engine-kind shape
    the co-simulation fabric executes.
    """
    if side not in ("tx", "rx"):
        raise CodegenError(f"transactor side must be 'tx' or 'rx', got {side!r}")
    domain = link.producer if side == "tx" else link.consumer
    name = link.tx_name if side == "tx" else link.rx_name
    role = (
        f"producer endpoint of link {link.name} (marshal + arbitrate)"
        if side == "tx"
        else f"consumer endpoint of link {link.name} (demarshal + dispatch)"
    )
    idents = _IdentTable(f"transactor {name} of {spec.design_name}")
    idents.claim(name, link.name)

    if spec.is_hw(domain):
        # Arbitrated producer endpoints (several channels sharing the link)
        # need FIFOF endpoint FIFOs: the round-robin arbiter's yield rule
        # tests notEmpty to pass the grant over an idle channel.
        arbitrated = side == "tx" and link.n_channels > 1
        fifo_import = "import FIFOF::*;" if arbitrated else "import FIFO::*;"
        fifo_kind = "FIFOF" if arbitrated else "FIFO"
        fifo_ctor = "mkSizedFIFOF" if arbitrated else "mkSizedFIFO"
        lines = [
            f"// Transactor {name}: {role}",
            f"// design: {spec.design_name}   domain: {domain} (hw)",
            fifo_import,
            "",
            f"module mk{_camel(name)} (Empty);",
            f"  // Link word stream ({link.word_bits}-bit words, header first).",
        ]
        link_fifo = idents.claim("link_words", link.name)
        lines.append(
            f"  {fifo_kind}#(Bit#({link.word_bits})) {link_fifo} <- {fifo_ctor}(4);"
        )
        for ch in link.channels:
            verb = "marshal" if side == "tx" else "demarshal"
            suffix = "_out" if side == "tx" else "_in"
            fifo = idents.claim(f"{ch.macro}{suffix}", ch.name)
            payload_bits = ch.payload_words * ch.word_bits
            lines.append(
                f"  // link vc {ch.link_vc} (wire vc {ch.vc_id}): {verb} {ch.name} "
                f"({ch.payload_words} words, depth {ch.depth})"
            )
            lines.append(
                f"  {fifo_kind}#(Bit#({payload_bits})) {fifo} <- {fifo_ctor}({ch.depth});"
            )
        if side == "tx":
            # Real pack rules, with an explicit round-robin arbiter when
            # several channels share this link's word stream; each
            # header/word rule pair streams one message least-significant
            # word first.
            lines.extend(generate_marshal_rules(link.channels, link_fifo, idents))
        else:
            # Real unpack rules: shared header decode (vc/length fields of
            # the canonical header layout), payload accumulation, and one
            # header-checked dispatch rule per channel.
            lines.extend(generate_demarshal_rules(link.channels, link_fifo, idents))
        lines.append("endmodule")
        return "\n".join(lines) + "\n"

    lines = [
        f"/* Transactor {name}: {role} */",
        f"/* design: {spec.design_name}   domain: {domain} (sw) */",
        "#pragma once",
        "#include <stdint.h>",
        "",
        f"#define {name.upper()}_NUM_VCS {link.n_channels}",
        f"#define {name.upper()}_WORD_BITS {link.word_bits}",
        "",
    ]
    word_ty = _c_word_type(link.word_bits)
    lines.append("/* Physical word stream of this link (provided by the platform). */")
    if side == "tx":
        lines.append(f"int {name}_write_words(const {word_ty} *words, unsigned n);")
    else:
        lines.append(f"int {name}_read_words({word_ty} *words, unsigned n);")
    lines.append("")
    for ch in link.channels:
        if side == "tx":
            pack_fn = f"{name}_pack_{ch.macro}"
            idents.claim(pack_fn, ch.name)
            lines.extend(generate_pack_function(ch, word_ty, name))
            fn = idents.claim(f"{name}_send_{ch.macro}", ch.name)
            lines.append(
                f"static inline int {fn}(const {word_ty} payload[{ch.payload_words}]) "
                f"{{ /* link vc {ch.link_vc}, wire vc {ch.vc_id} */"
            )
            lines.append(f"  {word_ty} msg[{ch.message_words}];")
            lines.append(f"  {pack_fn}(msg, payload);")
            lines.append(f"  return {name}_write_words(msg, {ch.message_words}u);")
            lines.append("}")
        else:
            unpack_fn = f"{name}_unpack_{ch.macro}"
            idents.claim(unpack_fn, ch.name)
            lines.extend(generate_unpack_function(ch, word_ty, name))
            fn = idents.claim(f"{name}_recv_{ch.macro}", ch.name)
            lines.append(
                f"static inline int {fn}({word_ty} payload[{ch.payload_words}]) "
                f"{{ /* link vc {ch.link_vc}, wire vc {ch.vc_id} */"
            )
            lines.append(f"  {word_ty} msg[{ch.message_words}];")
            lines.append(
                f"  if ({name}_read_words(msg, {ch.message_words}u) != 0) {{ return -1; }}"
            )
            lines.append(f"  return {unpack_fn}(msg, payload);")
            lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def generate_sw_marshal_source(
    spec: InterfaceSpec, domain: Optional[Union[Domain, str]] = None
) -> str:
    """Generate the C marshaling implementation of one software domain.

    Implements every ``bcl_send_*``/``bcl_recv_*`` helper the domain's
    generated header declares: pack the payload behind the channel's
    constant header word, hand the framed message to the platform's word
    stream (two extern hooks -- the only thing a porter supplies), and on
    receive validate the header before copying a single payload word out.
    All constants come from the channel's canonical
    :class:`~repro.platform.marshal.MessageLayout`, the same one the
    simulator's dataplane packs with, which is what makes the paper's
    "Interface Only" artifact self-contained: this translation unit plus
    the header compile as-is.
    """
    dom = _resolve_domain(spec, domain, "sw")
    channels = spec.channels_of(dom)
    idents = _IdentTable(f"sw marshal source for domain {dom} of {spec.design_name}")

    lines = [
        "/* Generated HW/SW marshaling implementation -- do not edit by hand. */",
        f"/* design: {spec.design_name}   domain: {dom} (sw) */",
        "#include <stdint.h>",
        "",
        "/* Platform word-stream hooks (the only port-specific code). */",
        "int bcl_platform_write_words(const void *words, unsigned n_words, unsigned word_bytes);",
        "int bcl_platform_read_words(void *words, unsigned n_words, unsigned word_bytes);",
        "",
    ]
    for ch in channels:
        word_ty = _c_word_type(ch.word_bits)
        field_macros = generate_field_macros(ch)
        if field_macros:
            lines.append(f"/* Packed-field positions of {ch.name} ({ch.element_type}): */")
            lines.extend(field_macros)
        idents.claim(f"bcl_pack_{ch.macro}", ch.name)
        idents.claim(f"bcl_unpack_{ch.macro}", ch.name)
        if ch.producer == dom:
            lines.extend(generate_pack_function(ch, word_ty, "bcl"))
            fn = idents.claim(f"bcl_send_{ch.macro}", ch.name)
            lines.append(f"int {fn}(const {word_ty} payload[{ch.payload_words}]) {{")
            lines.append(f"  {word_ty} msg[{ch.message_words}];")
            lines.append(f"  bcl_pack_{ch.macro}(msg, payload);")
            lines.append(
                f"  return bcl_platform_write_words(msg, {ch.message_words}u, "
                f"sizeof({word_ty}));"
            )
            lines.append("}")
        if ch.consumer == dom:
            lines.extend(generate_unpack_function(ch, word_ty, "bcl"))
            fn = idents.claim(f"bcl_recv_{ch.macro}", ch.name)
            lines.append(f"int {fn}({word_ty} payload[{ch.payload_words}]) {{")
            lines.append(f"  {word_ty} msg[{ch.message_words}];")
            lines.append(
                f"  if (bcl_platform_read_words(msg, {ch.message_words}u, "
                f"sizeof({word_ty})) != 0) {{"
            )
            lines.append("    return -1;")
            lines.append("  }")
            lines.append(f"  return bcl_unpack_{ch.macro}(msg, payload);")
            lines.append("}")
        lines.append("")
    if not channels:
        lines.append("/* empty cut: this domain touches no link */")
    return "\n".join(lines).rstrip("\n") + "\n"


def generate_transactors(spec: InterfaceSpec) -> Dict[str, Dict[str, str]]:
    """Generate the complete transactor set: one tx/rx pair per link.

    Returns ``{link name: {"tx": text, "rx": text}}`` in route order and
    verifies the pair names are globally collision-free (the acceptance
    property the multi-domain workloads are tested against).
    """
    idents = _IdentTable(f"transactor set of {spec.design_name}")
    out: Dict[str, Dict[str, str]] = {}
    for link in spec.links:
        idents.claim(link.tx_name, link.name)
        idents.claim(link.rx_name, link.name)
        out[link.name] = {
            "tx": generate_link_transactor(spec, link, "tx"),
            "rx": generate_link_transactor(spec, link, "rx"),
        }
    return out
