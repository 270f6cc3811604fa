"""Marshaling and demarshaling of typed values into channel words.

Section 4.4: the design specifies atomic transfers at (say) audio-frame
granularity, but the physical substrate moves fixed-width words, so the
compiler generates marshaling/demarshaling code on both sides of every
synchronizer.  Because both sides use the same canonical bit-level packing
(:mod:`repro.core.types`), the data-format mismatch problem of Section 2.3
cannot arise.

A marshaled message is a list of unsigned integers: one header word carrying
the virtual-channel id and the payload length, followed by the payload words
(least significant word first).

The module is a small **layout compiler**: :func:`layout_for` derives, once
per ``(element type, word width)`` pair, a :class:`MessageLayout` -- the
header field shifts/masks, the per-field bit slices of the payload, the
total word count, and compiled encode/decode closures.  That one layout is
the single source of truth for three layers at once: the simulator's
transport dataplane packs and unpacks link words through it
(:mod:`repro.platform.libdn` / :mod:`repro.sim.cosim`), the interface
generator renders its C and BSV marshaling loops from it
(:mod:`repro.codegen.interface`), and the cross-layer differential tests
re-execute it to prove the two agree byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SimulationError, WireFormatError
from repro.core.fixedpoint import RawComplexVector, RawFixVector
from repro.core.pycodegen import register_source
from repro.core.types import (
    BCLType,
    BoolT,
    ComplexT,
    FixPtT,
    IntT,
    RawStruct,
    StructT,
    VectorT,
    words_for,
)

#: Number of header bits reserved for the virtual-channel id.
VC_ID_BITS = 8
#: Number of header bits reserved for the payload word count.
LENGTH_BITS = 16


def wire_header(vc_id: int, payload_words: int) -> int:
    """The canonical header word for one message of a virtual channel.

    This formula is the *only* definition of the header layout: the
    simulator's dataplane, the generated C pack/unpack helpers and the
    generated BSV marshal rules all embed its result, so they cannot
    disagree about where the vc id and length live.
    """
    return (vc_id << LENGTH_BITS) | payload_words


def unframe_header(header: int) -> Tuple[int, int]:
    """Split a header word into ``(vc_id, payload_length)``."""
    return (header >> LENGTH_BITS) & ((1 << VC_ID_BITS) - 1), header & (
        (1 << LENGTH_BITS) - 1
    )


def validate_wire_format(
    n_channels: int, payload_words: int, word_bits: int, context: str = ""
) -> None:
    """Check that a channel configuration is representable on the wire.

    Raises :class:`~repro.core.errors.WireFormatError` when the global
    vc-id space does not fit ``VC_ID_BITS``, the payload length does not
    fit ``LENGTH_BITS``, or the header does not fit one ``word_bits`` link
    word.  Called at topology/spec *build* time so a misconfigured
    ``link_params`` fails loudly instead of silently corrupting headers.
    """
    where = f" ({context})" if context else ""
    if n_channels > (1 << VC_ID_BITS):
        raise WireFormatError(
            f"{n_channels} virtual channels exceed the {VC_ID_BITS}-bit wire "
            f"vc-id space ({1 << VC_ID_BITS} ids){where}"
        )
    if payload_words >= (1 << LENGTH_BITS):
        raise WireFormatError(
            f"payload of {payload_words} words does not fit the {LENGTH_BITS}-bit "
            f"header length field{where}"
        )
    if VC_ID_BITS + LENGTH_BITS > word_bits:
        raise WireFormatError(
            f"message header needs {VC_ID_BITS + LENGTH_BITS} bits but the link "
            f"word width is {word_bits}{where}"
        )


def marshal_value(ty: BCLType, value: Any, word_bits: int = 32) -> List[int]:
    """Pack one typed value into a list of ``word_bits``-wide payload words."""
    bits = ty.pack(value)
    n_words = words_for(ty, word_bits)
    mask = (1 << word_bits) - 1
    return [(bits >> (i * word_bits)) & mask for i in range(n_words)]


def demarshal_value(
    ty: BCLType,
    words: Sequence[int],
    word_bits: int = 32,
    start: int = 0,
    end: Optional[int] = None,
) -> Any:
    """Reassemble a typed value from its payload words.

    ``start``/``end`` select a slice of ``words`` *by index* so callers on
    the per-message hot path (the transport dataplane draining a shared
    word ring) never copy the payload out first.
    """
    if end is None:
        end = len(words)
    expected = words_for(ty, word_bits)
    if end - start != expected:
        raise SimulationError(
            f"demarshal: expected {expected} words for {ty!r}, got {end - start}"
        )
    bits = 0
    limit = 1 << word_bits
    for i in range(start, end):
        word = words[i]
        if word < 0 or word >= limit:
            raise SimulationError(
                f"demarshal: word {i - start} out of range for {word_bits}-bit channel"
            )
        bits |= word << ((i - start) * word_bits)
    return ty.unpack(bits)


def frame_message(vc_id: int, payload: Sequence[int], word_bits: int = 32) -> List[int]:
    """Prepend the header word (vc id + length) to a marshaled payload."""
    if not 0 <= vc_id < (1 << VC_ID_BITS):
        raise SimulationError(f"virtual channel id {vc_id} does not fit in {VC_ID_BITS} bits")
    if len(payload) >= (1 << LENGTH_BITS):
        raise SimulationError(f"payload of {len(payload)} words does not fit in the length field")
    if VC_ID_BITS + LENGTH_BITS > word_bits:
        raise SimulationError("header does not fit in one channel word")
    return [wire_header(vc_id, len(payload))] + list(payload)


def unframe_message(words: Sequence[int], word_bits: int = 32) -> Tuple[int, List[int]]:
    """Split a framed message back into ``(vc_id, payload_words)``.

    The returned payload is a fresh list (the historical API); hot-path
    callers should use :func:`demarshal_message`'s index-based decoding
    instead, which never copies the payload.
    """
    if not words:
        raise SimulationError("cannot unframe an empty message")
    vc_id, length = unframe_header(words[0])
    if len(words) - 1 != length:
        raise SimulationError(
            f"unframe: header declares {length} payload words but {len(words) - 1} were received"
        )
    return vc_id, list(words[1:])


def marshal_message(vc_id: int, ty: BCLType, value: Any, word_bits: int = 32) -> List[int]:
    """Marshal a typed value and frame it for the given virtual channel."""
    return frame_message(vc_id, marshal_value(ty, value, word_bits), word_bits)


def demarshal_message(
    ty: BCLType,
    words: Sequence[int],
    word_bits: int = 32,
    start: int = 0,
    end: Optional[int] = None,
) -> Tuple[int, Any]:
    """Unframe and decode a message; returns ``(vc_id, value)``.

    Index-based: ``words[start:end]`` is the framed message, but no slice is
    materialised -- the header is read in place and the payload is decoded
    through :func:`demarshal_value`'s ``start``/``end`` window.
    """
    if end is None:
        end = len(words)
    if end <= start:
        raise SimulationError("cannot unframe an empty message")
    vc_id, length = unframe_header(words[start])
    if end - start - 1 != length:
        raise SimulationError(
            f"unframe: header declares {length} payload words but "
            f"{end - start - 1} were received"
        )
    return vc_id, demarshal_value(ty, words, word_bits, start + 1, end)


def message_words(ty: BCLType, word_bits: int = 32) -> int:
    """Total channel words for one value of ``ty`` including the header word."""
    return 1 + words_for(ty, word_bits)


# --------------------------------------------------------------------------
# The layout compiler
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSlice:
    """One leaf field's position within the payload bit vector (LSB-first).

    Uniform repetitions (vector elements) are collapsed: ``count`` instances
    of the field live at ``bit_offset + k * stride`` for ``k`` in
    ``range(count)`` -- which is exactly the shape a generated C or BSV
    marshaling *loop* iterates over.  A scalar field has ``count == 1``.
    """

    path: str
    bit_offset: int
    bit_width: int
    count: int = 1
    stride: int = 0


@dataclass(frozen=True)
class WordSpan:
    """Where (part of) one field instance lands in the payload word array."""

    path: str
    word: int  #: payload word index (header not counted)
    shift: int  #: bit position within that word
    width: int  #: bits of the field stored in this span
    field_lsb: int  #: offset of those bits within the field's own value


def _collect_leaves(ty: BCLType, path: str, offset: int, out: List[FieldSlice]) -> None:
    if isinstance(ty, StructT):
        # The first declared field occupies the most significant bits, so
        # LSB-first offsets walk the declaration order in reverse.
        off = offset
        for fname, fty in reversed(ty.fields):
            _collect_leaves(fty, f"{path}.{fname}" if path else fname, off, out)
            off += fty.bit_width()
    elif isinstance(ty, ComplexT):
        w = ty.elem.bit_width()
        _collect_leaves(ty.elem, f"{path}.im" if path else "im", offset, out)
        _collect_leaves(ty.elem, f"{path}.re" if path else "re", offset + w, out)
    elif isinstance(ty, VectorT):
        sub: List[FieldSlice] = []
        _collect_leaves(ty.elem, "", 0, sub)
        stride = ty.elem.bit_width()
        if any(leaf.count != 1 for leaf in sub):
            # The element itself repeats (nested vectors): expand the outer
            # indices so every slice keeps a single stride.
            for i in range(ty.n):
                for leaf in sub:
                    out.append(
                        FieldSlice(
                            f"{path}[{i}]{leaf.path}",
                            offset + i * stride + leaf.bit_offset,
                            leaf.bit_width,
                            leaf.count,
                            leaf.stride,
                        )
                    )
        else:
            for leaf in sub:
                out.append(
                    FieldSlice(
                        f"{path}[*]{leaf.path}",
                        offset + leaf.bit_offset,
                        leaf.bit_width,
                        ty.n,
                        stride,
                    )
                )
    else:
        out.append(FieldSlice(path, offset, ty.bit_width()))


#: ``struct`` codes of the link word widths the aligned codec converts (in
#: C) between wrapped signed raws and unsigned words; a header needs at
#: least 24 bits, so no narrower width has a layout.
_STRUCT_CODES = {32: "i", 64: "q"}


def _word_converters(count: int, width: int) -> Tuple[Callable, Callable]:
    """``(to_words, to_raws)`` for ``count`` values of ``width`` bits each:
    wrapped signed raws to unsigned words, and back."""
    signed = struct.Struct(f"<{count}{_STRUCT_CODES[width]}")
    unsigned = struct.Struct(f"<{count}{_STRUCT_CODES[width].upper()}")
    pack_signed, unpack_unsigned = signed.pack, unsigned.unpack
    pack_unsigned, unpack_signed = unsigned.pack, signed.unpack
    return (
        lambda raws: unpack_unsigned(pack_signed(*raws)),
        lambda words: unpack_signed(pack_unsigned(*words)),
    )


#: ``(encode, decode)`` of a layout whose codec skips the big-int payload:
#: ``encode(header, value)`` is the framed words of a raw-form value of the
#: layout's type, or ``None`` for any other value (which then takes the
#: reference :func:`marshal_value`); ``decode(words, start)`` builds the raw
#: form from the payload words at ``start``.
_WordCodec = Tuple[
    Callable[[int, Any], Optional[Tuple[int, ...]]], Callable[[Sequence[int], int], Any]
]


def _aligned_vector_codec(ty: VectorT, word_bits: int) -> Optional[_WordCodec]:
    """The word-level codec of an *aligned* vector layout, or ``None``.

    A ``Vector#(FixPt)`` whose elements, or a ``Vector#(Complex#(FixPt))``
    whose complex halves, are exactly ``word_bits`` wide puts one raw int in
    each payload word (a complex element as its imaginary then its real
    word), so on 32- and 64-bit links its raw form converts to and from
    link words without assembling the payload as one big int.  Other
    vector layouts have no codec.
    """
    if word_bits not in _STRUCT_CODES:
        return None
    n = ty.n
    elem = ty.elem
    if isinstance(elem, FixPtT) and elem.bit_width() == word_bits:
        ib, fb = elem.int_bits, elem.frac_bits
        to_words, to_raws = _word_converters(n, word_bits)

        def encode_fix(header: int, value: Any) -> Optional[Tuple[int, ...]]:
            if (
                value.__class__ is RawFixVector
                and value.int_bits == ib
                and value.frac_bits == fb
                and len(value.raws) == n
            ):
                return (header, *to_words(value.raws))
            return None

        def decode_fix(words: Sequence[int], start: int) -> RawFixVector:
            return RawFixVector(to_raws(words[start : start + n]), ib, fb)

        return encode_fix, decode_fix
    if isinstance(elem, ComplexT) and elem.elem.bit_width() == word_bits:
        ib, fb = elem.elem.int_bits, elem.elem.frac_bits
        to_words, to_raws = _word_converters(2 * n, word_bits)

        def encode_complex(header: int, value: Any) -> Optional[Tuple[int, ...]]:
            if (
                value.__class__ is RawComplexVector
                and value.int_bits == ib
                and value.frac_bits == fb
                and len(value.re) == n
            ):
                interleaved = [0] * (2 * n)
                interleaved[0::2] = value.im
                interleaved[1::2] = value.re
                return (header, *to_words(interleaved))
            return None

        def decode_complex(words: Sequence[int], start: int) -> RawComplexVector:
            raws = to_raws(words[start : start + 2 * n])
            return RawComplexVector(raws[1::2], raws[0::2], ib, fb)

        return encode_complex, decode_complex
    return None


def _paren(expr: str) -> str:
    return expr if expr.isidentifier() else f"({expr})"


def _leaf_decode_source(offset: int, width: int, leaf: BCLType, word_bits: int) -> str:
    """The expression reading one leaf's raw from the payload words ``w<j>``:
    shift and OR its pieces together, mask, then sign-extend a FixPt or Int
    leaf, or compare a Bool leaf to 1."""
    pieces = []
    taken = 0
    while taken < width:
        word, shift = divmod(offset + taken, word_bits)
        piece = f"w{word} >> {shift}" if shift else f"w{word}"
        pieces.append(f"{_paren(piece)} << {taken}" if taken else piece)
        taken += word_bits - shift
    expr = " | ".join(pieces if len(pieces) == 1 else map(_paren, pieces))
    if taken != width:  # the leaf ends below the top of its last word
        expr = f"{_paren(expr)} & {(1 << width) - 1:#x}"
    if isinstance(leaf, BoolT):
        return f"{_paren(expr)} == 1"
    if isinstance(leaf, (FixPtT, IntT)):
        sign = 1 << (width - 1)
        return f"({_paren(expr)} ^ {sign:#x}) - {sign:#x}"
    return expr


def _word_encode_sources(leaves: Sequence[Tuple[int, int]], n_words: int, word_bits: int) -> List[str]:
    """The expression of every payload word: the OR of the pieces of the
    leaf raws ``r<i>`` (bit offset and width in ``leaves``) that land in it."""
    pieces: List[List[str]] = [[] for _ in range(n_words)]
    for i, (offset, width) in enumerate(leaves):
        taken = 0
        while taken < width:
            word, shift = divmod(offset + taken, word_bits)
            bits = min(width - taken, word_bits - shift)
            raw = f"(r{i} >> {taken})" if taken else f"r{i}"
            piece = f"({raw} & {(1 << bits) - 1:#x})"
            pieces[word].append(f"{piece} << {shift}" if shift else piece)
            taken += bits
    return [" | ".join(word) for word in pieces]


def _struct_codec(ty: StructT, word_bits: int) -> _WordCodec:
    """Generate and compile the straight-line codec of a struct layout.

    The leaf positions are the struct's own leaf table
    (:attr:`~repro.core.types.StructT.leaves`, raw struct order, LSB-first
    payload offsets).  ``decode`` reads every leaf from its payload word or
    words (shift, mask, sign) straight into a
    :class:`~repro.core.types.RawStruct`; ``encode`` writes a raw struct's
    leaves into the framed words and returns ``None`` for any other value.
    Neither boxes.  The text is compiled here -- once per layout, which
    :func:`layout_for` caches -- and made debuggable like the generated
    modules (:func:`repro.core.pycodegen.register_source`).
    """
    wb = word_bits
    n = words_for(ty, wb)
    leaves = [(off, leaf.bit_width()) for leaf, off in ty.leaves]
    words = ", ".join(f"w{j}" for j in range(n))
    raws = ", ".join(f"r{i}" for i in range(len(leaves))) + ("," if len(leaves) == 1 else "")
    lines = [
        f"# generated by repro.platform.marshal -- codec of struct {ty.name} on {wb}-bit links",
        "",
        "def decode(words, start):",
        f"    {words} = words[start:start + {n}]" if n > 1 else "    w0 = words[start]",
        "    return RawStruct(_T, (",
        *(
            f"        {_leaf_decode_source(off, leaf.bit_width(), leaf, wb)},"
            for leaf, off in ty.leaves
        ),
        "    ))",
        "",
        "",
        "def encode(header, value):",
        "    if value.__class__ is not RawStruct or (value.ty is not _T and value.ty != _T):",
        "        return None",
        f"    {raws} = value.raws",
        "    return (",
        "        header,",
        *(f"        {word}," for word in _word_encode_sources(leaves, n, wb)),
        "    )",
        "",
    ]
    source = "\n".join(lines)
    name = f"{ty.name}.w{wb}.codec"
    _, filename = register_source(name, source)
    namespace: Dict[str, Any] = {
        "__name__": f"repro.generated.{name}",
        "RawStruct": RawStruct,
        "_T": ty,
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace["encode"], namespace["decode"]


class MessageLayout:
    """The compiled wire format of one channel element type.

    Everything every layer needs is derived here, once: header field
    shifts/masks, payload/message word counts, the per-field bit slices of
    the canonical packing, and closure-compiled encoders/decoders for the
    simulation dataplane.  One ``MessageLayout`` per ``(type, word width)``
    pair -- the invariant that makes the generated interfaces trustworthy.

    A layout has two encodings.  Aligned vector layouts and struct layouts
    have a word codec that converts their raw form to and from link words
    without boxing (:func:`_aligned_vector_codec`, :func:`_struct_codec`).
    Every other layout, and any value a codec declines, goes through the
    reference :func:`marshal_value` / :func:`demarshal_value`, so the
    error behaviour is the reference's by construction.
    """

    __slots__ = (
        "ty",
        "word_bits",
        "payload_bits",
        "payload_words",
        "message_words",
        "fields",
        "_codec",
    )

    #: Header field geometry (class-level: the header layout is global).
    VC_SHIFT = LENGTH_BITS
    VC_MASK = (1 << VC_ID_BITS) - 1
    LENGTH_MASK = (1 << LENGTH_BITS) - 1

    def __init__(self, ty: BCLType, word_bits: int = 32):
        self.ty = ty
        self.word_bits = word_bits
        self.payload_bits = ty.bit_width()
        self.payload_words = words_for(ty, word_bits)
        self.message_words = self.payload_words + 1
        validate_wire_format(1, self.payload_words, word_bits, context=repr(ty))
        leaves: List[FieldSlice] = []
        _collect_leaves(ty, "", 0, leaves)
        self.fields: Tuple[FieldSlice, ...] = tuple(
            sorted(leaves, key=lambda f: f.bit_offset)
        )
        self._codec: Optional[_WordCodec] = None
        if isinstance(ty, StructT):
            self._codec = _struct_codec(ty, word_bits)
        elif isinstance(ty, VectorT):
            self._codec = _aligned_vector_codec(ty, word_bits)

    def __repr__(self) -> str:
        return (
            f"MessageLayout({self.ty!r}, word_bits={self.word_bits}, "
            f"payload_words={self.payload_words})"
        )

    # -- header ------------------------------------------------------------

    def header_word(self, vc_id: int) -> int:
        """The constant header word every message of virtual channel ``vc_id``
        carries (the payload length of a channel is fixed by its type)."""
        if not 0 <= vc_id < (1 << VC_ID_BITS):
            raise WireFormatError(
                f"virtual channel id {vc_id} does not fit in {VC_ID_BITS} bits"
            )
        return wire_header(vc_id, self.payload_words)

    # -- word-level field table (codegen) -----------------------------------

    def word_spans(self, max_instances: int = 4) -> List[WordSpan]:
        """The payload word array positions of every field (instances capped).

        Expands each :class:`FieldSlice` into per-word spans: which payload
        word, at which shift, holds which bits of the field.  Repeated
        fields expand at most ``max_instances`` instances -- consumers
        (:func:`repro.codegen.cxx.generate_field_macros` emits
        ``_WORD``/``_SHIFT`` constants from the single-word spans) address
        the remaining instances with the slice's ``_COUNT``/``_STRIDE``.
        """
        spans: List[WordSpan] = []
        wb = self.word_bits
        for leaf in self.fields:
            for k in range(min(leaf.count, max_instances)):
                path = leaf.path.replace("[*]", f"[{k}]") if leaf.count > 1 else leaf.path
                offset = leaf.bit_offset + k * leaf.stride
                taken = 0
                while taken < leaf.bit_width:
                    word, shift = divmod(offset + taken, wb)
                    width = min(leaf.bit_width - taken, wb - shift)
                    spans.append(WordSpan(path, word, shift, width, taken))
                    taken += width
        return spans

    # -- compiled encode/decode (simulation dataplane) -----------------------

    def encoder(self, vc_id: int) -> Callable[[Any], Tuple[int, ...]]:
        """Compile the framed-message encoder of one virtual channel.

        The returned closure maps an element value to its wire words
        (header first, payload least-significant-word first).  The header
        word is resolved now; the per-message work is the word codec's
        conversion of a raw-form value, or else :func:`marshal_value`.
        """
        return self._framed_encoder(vc_id)

    def _framed_encoder(self, vc_id: int) -> Callable[[Any], Tuple[int, ...]]:
        """The body of :meth:`encoder`, which :meth:`batch_encoder` reuses
        without going through the public factory (the benchmark tracer
        wraps each factory's closures in spans of their own)."""
        header = self.header_word(vc_id)
        ty, wb = self.ty, self.word_bits

        def encode_reference(value: Any) -> Tuple[int, ...]:
            return (header, *marshal_value(ty, value, wb))

        if self._codec is None:
            return encode_reference
        encode_raw, _ = self._codec

        def encode_raw_form(value: Any) -> Tuple[int, ...]:
            words = encode_raw(header, value)
            if words is None:
                return encode_reference(value)
            return words

        return encode_raw_form

    def batch_encoder(self, vc_id: int) -> Callable[[Sequence[Any]], List[int]]:
        """Compile the batched framed-message encoder of one virtual channel.

        Maps a sequence of element values to one flat word list -- the
        concatenated framed messages, ready for a single ``extend`` onto a
        :class:`~repro.platform.channel.MessagePool` word ring.  Because a
        channel's message length is fixed by its type, the caller can
        derive every per-message bound arithmetically.
        """
        encode = self._framed_encoder(vc_id)

        def encode_batch(values: Sequence[Any]) -> List[int]:
            out: List[int] = []
            extend = out.extend
            for value in values:
                extend(encode(value))
            return out

        return encode_batch

    def decoder(self) -> Callable[[Sequence[int], int], Any]:
        """Compile the payload decoder (shared by every vc of this layout).

        The returned closure reads ``payload_words`` words from ``words``
        starting at ``start`` -- index-based, so the transport dataplane
        decodes straight out of its flat word ring without slicing.  A
        layout with a word codec builds the raw form from the words; others
        decode through :func:`demarshal_value`, which range-checks every
        word.
        """
        return self._payload_decoder()

    def _payload_decoder(self) -> Callable[[Sequence[int], int], Any]:
        """The body of :meth:`decoder`, which :meth:`run_decoder` reuses."""
        if self._codec is not None:
            return self._codec[1]
        ty, wb, n = self.ty, self.word_bits, self.payload_words

        def decode(words: Sequence[int], start: int) -> Any:
            return demarshal_value(ty, words, wb, start, start + n)

        return decode

    def run_decoder(self) -> Callable[[Sequence[int], int, int], List[Any]]:
        """Compile the run decoder: ``count`` consecutive messages of this
        layout starting at ``start`` (each ``message_words`` long, header
        first) decode to a list of values in one call -- the batched
        hardware-side delivery path."""
        stride = self.message_words
        decode = self._payload_decoder()

        def decode_run(words: Sequence[int], start: int, count: int) -> List[Any]:
            return [
                decode(words, base)
                for base in range(start + 1, start + 1 + count * stride, stride)
            ]

        return decode_run


#: One layout per (element type, word width): every layer that touches a
#: channel's bits must go through the same object.
_LAYOUT_CACHE: Dict[Tuple[BCLType, int], MessageLayout] = {}


def layout_for(ty: BCLType, word_bits: int = 32) -> MessageLayout:
    """The canonical :class:`MessageLayout` of ``(ty, word_bits)`` (cached)."""
    key = (ty, word_bits)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = _LAYOUT_CACHE[key] = MessageLayout(ty, word_bits)
    return layout
