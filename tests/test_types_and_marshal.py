"""Tests for the bit-accurate type system and the marshaling layer (Section 2.3 / 4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError, TypeCheckError, WireFormatError
from repro.core.fixedpoint import FixComplex, FixedPoint, RawComplexVector, RawFixVector
from repro.core.types import (
    BitT,
    BoolT,
    ComplexT,
    FixPtT,
    IntT,
    OpaqueT,
    StructT,
    UIntT,
    VectorT,
    words_for,
)
from repro.platform import marshal


class TestScalarTypes:
    def test_bool_pack_unpack(self):
        t = BoolT()
        assert t.bit_width() == 1
        assert t.unpack(t.pack(True)) is True
        assert t.unpack(t.pack(False)) is False

    def test_bool_rejects_non_bool(self):
        with pytest.raises(TypeCheckError):
            BoolT().pack(1)

    @pytest.mark.parametrize("width", [1, 8, 16, 32, 64])
    def test_uint_roundtrip(self, width):
        t = UIntT(width)
        value = (1 << width) - 1
        assert t.unpack(t.pack(value)) == value
        assert t.unpack(t.pack(0)) == 0

    def test_uint_out_of_range(self):
        with pytest.raises(TypeCheckError):
            UIntT(8).pack(256)
        with pytest.raises(TypeCheckError):
            UIntT(8).pack(-1)

    @pytest.mark.parametrize("value", [-128, -1, 0, 1, 127])
    def test_int_roundtrip(self, value):
        t = IntT(8)
        assert t.unpack(t.pack(value)) == value

    def test_int_out_of_range(self):
        with pytest.raises(TypeCheckError):
            IntT(8).pack(128)

    def test_bit_type(self):
        t = BitT(12)
        assert t.bit_width() == 12
        assert t.unpack(t.pack(0xABC)) == 0xABC

    def test_fixpt_roundtrip(self):
        t = FixPtT(8, 24)
        x = FixedPoint.from_float(-1.375)
        assert t.unpack(t.pack(x)) == x
        assert t.bit_width() == 32

    def test_fixpt_format_mismatch(self):
        t = FixPtT(8, 24)
        with pytest.raises(TypeCheckError):
            t.pack(FixedPoint.from_float(1.0, 16, 16))

    def test_complex_roundtrip(self):
        t = ComplexT(FixPtT(8, 24))
        c = FixComplex.from_floats(0.5, -0.25)
        assert t.unpack(t.pack(c)) == c
        assert t.bit_width() == 64

    def test_defaults(self):
        assert BoolT().default() is False
        assert UIntT(8).default() == 0
        assert FixPtT().default() == FixedPoint.zero()


class TestCompositeTypes:
    def test_vector_roundtrip(self):
        t = VectorT(4, UIntT(8))
        value = (1, 2, 3, 255)
        assert t.unpack(t.pack(value)) == value
        assert t.bit_width() == 32

    def test_vector_wrong_length(self):
        with pytest.raises(TypeCheckError):
            VectorT(4, UIntT(8)).pack((1, 2, 3))

    def test_vector_of_complex(self):
        t = VectorT(3, ComplexT(FixPtT(8, 24)))
        value = tuple(FixComplex.from_floats(i * 0.5, -i) for i in range(3))
        assert t.unpack(t.pack(value)) == value

    def test_struct_roundtrip(self):
        t = StructT("Pair", [("a", UIntT(8)), ("b", IntT(8))])
        value = {"a": 200, "b": -5}
        assert t.unpack(t.pack(value)) == value

    def test_struct_missing_field(self):
        t = StructT("Pair", [("a", UIntT(8)), ("b", IntT(8))])
        with pytest.raises(TypeCheckError):
            t.pack({"a": 1})

    def test_struct_duplicate_fields_rejected(self):
        with pytest.raises(TypeCheckError):
            StructT("Bad", [("a", UIntT(8)), ("a", UIntT(8))])

    def test_nested_struct(self):
        vec3 = StructT("Vec3", [("x", FixPtT(16, 16)), ("y", FixPtT(16, 16)), ("z", FixPtT(16, 16))])
        tri = StructT("Tri", [("v0", vec3), ("v1", vec3), ("v2", vec3)])
        value = {
            name: {axis: FixedPoint.from_float(i + 0.5, 16, 16) for i, axis in enumerate("xyz")}
            for name in ("v0", "v1", "v2")
        }
        assert tri.unpack(tri.pack(value)) == value
        assert tri.bit_width() == 9 * 32

    def test_struct_field_type_lookup(self):
        t = StructT("Pair", [("a", UIntT(8)), ("b", IntT(8))])
        assert t.field_type("a") == UIntT(8)
        with pytest.raises(TypeCheckError):
            t.field_type("c")

    def test_words_for(self):
        assert words_for(UIntT(32)) == 1
        assert words_for(UIntT(33)) == 2
        assert words_for(VectorT(64, ComplexT(FixPtT(8, 24)))) == 128

    def test_opaque_type_refuses_packing(self):
        t = OpaqueT(default=())
        assert t.default() == ()
        with pytest.raises(TypeCheckError):
            t.pack(())
        with pytest.raises(TypeCheckError):
            t.bit_width()

    def test_type_equality_and_hash(self):
        assert VectorT(4, UIntT(8)) == VectorT(4, UIntT(8))
        assert hash(VectorT(4, UIntT(8))) == hash(VectorT(4, UIntT(8)))
        assert VectorT(4, UIntT(8)) != VectorT(5, UIntT(8))


class TestMarshaling:
    def test_marshal_value_roundtrip(self):
        t = VectorT(8, UIntT(32))
        value = tuple(range(8))
        words = marshal.marshal_value(t, value)
        assert len(words) == 8
        assert marshal.demarshal_value(t, words) == value

    def test_frame_and_unframe(self):
        framed = marshal.frame_message(3, [10, 20, 30])
        vc, payload = marshal.unframe_message(framed)
        assert vc == 3
        assert payload == [10, 20, 30]

    def test_marshal_message_roundtrip(self):
        t = StructT("Hit", [("hit", BoolT()), ("t", FixPtT(16, 16)), ("tri", UIntT(32))])
        value = {"hit": True, "t": FixedPoint.from_float(2.5, 16, 16), "tri": 7}
        words = marshal.marshal_message(5, t, value)
        vc, decoded = marshal.demarshal_message(t, words)
        assert vc == 5
        assert decoded == value

    def test_message_words_includes_header(self):
        t = VectorT(64, ComplexT(FixPtT(8, 24)))
        assert marshal.message_words(t) == 129

    def test_bad_vc_id_rejected(self):
        with pytest.raises(SimulationError):
            marshal.frame_message(300, [1])

    def test_length_mismatch_detected(self):
        framed = marshal.frame_message(1, [1, 2, 3])
        with pytest.raises(SimulationError):
            marshal.unframe_message(framed[:-1])

    def test_demarshal_word_count_checked(self):
        with pytest.raises(SimulationError):
            marshal.demarshal_value(UIntT(32), [1, 2])

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_vector_marshal_roundtrip_property(self, values):
        t = VectorT(len(values), UIntT(32))
        words = marshal.marshal_value(t, tuple(values))
        assert marshal.demarshal_value(t, words) == tuple(values)

    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.booleans(),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_struct_marshal_roundtrip_property(self, t_value, shade, hit, tri):
        hit_t = StructT(
            "Hit",
            [
                ("hit", BoolT()),
                ("t", FixPtT(16, 16)),
                ("tri", UIntT(32)),
                ("shade", FixPtT(16, 16)),
            ],
        )
        value = {
            "hit": hit,
            "t": FixedPoint.from_float(t_value, 16, 16),
            "tri": tri,
            "shade": FixedPoint.from_float(shade, 16, 16),
        }
        words = marshal.marshal_value(hit_t, value)
        assert marshal.demarshal_value(hit_t, words) == value

    @given(
        st.integers(min_value=-(1 << 7), max_value=(1 << 7) - 1),
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_negative_fixed_point_roundtrip_property(self, int_part, frac_bits, word_bits):
        """Negative fixed-point values survive the wire at every word width.

        The sign bit lives at the top of the payload bit vector, so this is
        the case a word-split bug corrupts first (the two's-complement bits
        span the word boundary for word_bits < 32)."""
        t = FixPtT(8, 24)
        value = FixedPoint.from_bits(
            ((int_part << 24) | frac_bits) & ((1 << 32) - 1), 8, 24
        )
        words = marshal.marshal_value(t, value, word_bits)
        assert len(words) == marshal.words_for(t, word_bits)
        assert all(0 <= w < (1 << word_bits) for w in words)
        assert marshal.demarshal_value(t, words, word_bits) == value
        assert marshal.demarshal_value(t, words, word_bits).to_float() == value.to_float()

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=8),
        st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_32_bit_word_widths_roundtrip_property(self, values, word_bits):
        """Marshaling is width-generic: 16/32/64-bit links carry the same bits.

        Value packing works at any width; *framing* additionally needs the
        header to fit one word, which 16-bit links cannot provide -- framed
        roundtrips are checked at 32/64 and the 16-bit case is a build-time
        :class:`WireFormatError` (see ``TestWireFormatValidation``)."""
        t = VectorT(len(values), UIntT(20))
        value = tuple(values)
        words = marshal.marshal_value(t, value, word_bits)
        assert marshal.demarshal_value(t, words, word_bits) == value
        if word_bits >= marshal.VC_ID_BITS + marshal.LENGTH_BITS:
            framed = marshal.marshal_message(1, t, value, word_bits)
            assert marshal.demarshal_message(t, framed, word_bits) == (1, value)

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["fixed", "complex"]),
        st.sampled_from([(8, 24), (24, 40)]),
        st.sampled_from([16, 32, 64]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_vorbis_vector_word_widths_roundtrip_property(self, n, kind, fmt, word_bits, rng):
        """Vorbis-shaped vectors carry the reference's words at every width.

        With ``FixPt#(8,24)`` elements (or complex halves) a 32-bit word
        holds exactly one raw int, so the layout takes the aligned codec;
        at 16 and 64 bits the payload spans words and takes the big-int
        path.  ``FixPt#(24,40)`` is aligned at 64 bits instead.  Every path
        must put the reference's words on the wire and decode the
        reference's value, from the raw form or boxed elements."""
        fix = FixPtT(*fmt)
        elem = fix if kind == "fixed" else ComplexT(fix)
        t = VectorT(n, elem)
        value = TestFusedPackUnpack._random_value(rng, t)
        raw_type = RawFixVector if kind == "fixed" else RawComplexVector
        words = marshal.marshal_value(t, value, word_bits)
        reference = marshal.demarshal_value(t, words, word_bits)
        assert reference == value and type(reference) is raw_type
        bits = t.pack(value)
        assert marshal._compile_pack(t)(value) == bits
        decoded = marshal._compile_unpack(t)(bits)
        assert decoded == reference and type(decoded) is raw_type
        if word_bits < marshal.VC_ID_BITS + marshal.LENGTH_BITS:
            return  # no header fits: 16-bit links have no layout
        layout = marshal.layout_for(t, word_bits)
        assert (layout._aligned is not None) == (word_bits == fix.bit_width())
        framed = marshal.marshal_message(1, t, value, word_bits)
        assert list(layout.encoder(1)(value)) == framed
        assert layout.batch_encoder(1)([value, tuple(value)]) == framed + framed
        ring = [7] + framed + framed
        assert layout.decoder()(ring, 2) == reference
        run = layout.run_decoder()(ring, 1, 2)
        assert run == [reference, reference]
        assert all(type(v) is raw_type for v in run + [layout.decoder()(ring, 2)])

    def test_maximum_width_payload_fits_the_length_field(self):
        """A payload of exactly 2**LENGTH_BITS - 1 words frames and unframes."""
        max_words = (1 << marshal.LENGTH_BITS) - 1
        t = BitT(32 * max_words)
        assert marshal.words_for(t, 32) == max_words
        value = t.unpack((1 << 40) - 1)  # sparse value: huge widths stay cheap
        framed = marshal.marshal_message(0, t, value, 32)
        assert len(framed) == max_words + 1
        vc, decoded = marshal.demarshal_message(t, framed, 32)
        assert vc == 0 and decoded == value
        assert marshal.layout_for(t, 32).payload_words == max_words

    def test_oversized_payload_is_a_build_time_wire_format_error(self):
        t = BitT(32 * (1 << marshal.LENGTH_BITS))
        with pytest.raises(WireFormatError):
            marshal.layout_for(t, 32)

    def test_message_words_regression_against_link_widths(self):
        """Pins message_words for the fig13 frame type across link_params widths.

        The interface generator sizes its buffers and the cost model its
        transfers from these counts; a drift silently breaks the generated
        C array bounds."""
        frame_t = VectorT(64, ComplexT(FixPtT(8, 24)))  # 4096 payload bits
        assert marshal.message_words(frame_t, 16) == 257
        assert marshal.message_words(frame_t, 32) == 129
        assert marshal.message_words(frame_t, 64) == 65
        assert marshal.message_words(UIntT(32), 32) == 2
        assert marshal.message_words(BoolT(), 32) == 2

    def test_demarshal_message_is_index_based(self):
        """Hot-path decoding reads a window of a shared buffer -- no copy."""
        t = UIntT(32)
        buffer = [999] * 3 + marshal.marshal_message(2, t, 77) + [888]
        vc, value = marshal.demarshal_message(t, buffer, start=3, end=5)
        assert (vc, value) == (2, 77)
        assert buffer[0] == 999 and buffer[-1] == 888  # untouched


class TestMessageLayout:
    def test_one_layout_per_type_and_width(self):
        t = VectorT(4, UIntT(32))
        assert marshal.layout_for(t, 32) is marshal.layout_for(VectorT(4, UIntT(32)), 32)
        assert marshal.layout_for(t, 32) is not marshal.layout_for(t, 64)

    def test_header_word_is_the_wire_header(self):
        layout = marshal.layout_for(UIntT(32), 32)
        assert layout.header_word(5) == marshal.wire_header(5, 1)
        assert marshal.unframe_header(layout.header_word(5)) == (5, 1)

    def test_header_vc_range_checked(self):
        layout = marshal.layout_for(UIntT(32), 32)
        with pytest.raises(WireFormatError):
            layout.header_word(1 << marshal.VC_ID_BITS)

    def test_encoder_matches_reference_marshal(self):
        t = StructT("Hit", [("hit", BoolT()), ("t", FixPtT(16, 16))])
        layout = marshal.layout_for(t, 32)
        value = {"hit": True, "t": FixedPoint.from_float(-1.25, 16, 16)}
        assert list(layout.encoder(3)(value)) == marshal.marshal_message(3, t, value)
        assert layout.decoder()(layout.encoder(3)(value), 1) == value

    def test_batch_encoder_concatenates_framed_messages(self):
        layout = marshal.layout_for(UIntT(32), 32)
        flat = layout.batch_encoder(1)([7, 8, 9])
        assert flat == sum((marshal.marshal_message(1, UIntT(32), v) for v in (7, 8, 9)), [])

    def test_run_decoder_reads_fixed_stride_runs(self):
        t = VectorT(2, UIntT(32))
        layout = marshal.layout_for(t, 32)
        values = [(1, 2), (3, 4), (5, 6)]
        flat = layout.batch_encoder(0)(values)
        assert layout.run_decoder()(flat, 0, 3) == values
        # Index-based: a shifted window decodes the tail of the run.
        assert layout.run_decoder()(flat, layout.message_words, 2) == values[1:]

    def test_field_slices_cover_the_payload(self):
        t = StructT(
            "Ray",
            [
                ("origin", StructT("V", [("x", FixPtT(8, 24)), ("y", FixPtT(8, 24))])),
                ("pixel", UIntT(32)),
            ],
        )
        layout = marshal.layout_for(t, 32)
        by_path = {f.path: f for f in layout.fields}
        # First declared field sits in the most significant bits.
        assert by_path["pixel"].bit_offset == 0
        assert by_path["origin.y"].bit_offset == 32
        assert by_path["origin.x"].bit_offset == 64
        assert sum(f.bit_width * f.count for f in layout.fields) == t.bit_width()

    def test_vector_fields_collapse_to_strided_slices(self):
        t = VectorT(64, ComplexT(FixPtT(8, 24)))
        layout = marshal.layout_for(t, 32)
        assert [f.path for f in layout.fields] == ["[*]im", "[*]re"]
        assert all(f.count == 64 and f.stride == 64 for f in layout.fields)

    def test_word_spans_split_fields_at_word_boundaries(self):
        t = StructT("S", [("a", UIntT(8)), ("b", UIntT(48))])  # b spans two 32-bit words
        layout = marshal.layout_for(t, 32)
        spans = [s for s in layout.word_spans() if s.path == "b"]
        assert [(s.word, s.shift, s.width, s.field_lsb) for s in spans] == [
            (0, 0, 32, 0),
            (1, 0, 16, 32),
        ]

    def test_compiled_pack_fast_path_keeps_reference_errors(self):
        layout = marshal.layout_for(UIntT(8), 32)
        encode = layout.encoder(0)
        assert encode(255) == (layout.header_word(0), 255)
        with pytest.raises(TypeCheckError):
            encode(256)
        with pytest.raises(TypeCheckError):
            encode(True)  # bools are not UInt inhabitants, fast path must not accept


class TestFusedPackUnpack:
    """The fused per-layout pack/unpack closures must be observationally
    identical to ``ty.pack``/``ty.unpack`` -- values, error types *and*
    error messages."""

    #: The frame shapes the transport actually moves, plus awkward nestings.
    TYPES = [
        UIntT(32),
        BitT(7),
        IntT(16),
        BoolT(),
        FixPtT(8, 24),
        FixPtT(24, 40),
        ComplexT(FixPtT(16, 16)),
        VectorT(8, FixPtT(8, 24)),
        VectorT(64, ComplexT(FixPtT(8, 24))),
        VectorT(16, UIntT(32)),
        VectorT(5, BitT(3)),
        VectorT(4, IntT(8)),
        VectorT(3, VectorT(2, FixPtT(4, 4))),
        StructT(
            "Ray",
            [
                ("origin", VectorT(3, FixPtT(16, 16))),
                ("dir", VectorT(3, FixPtT(16, 16))),
                ("pixel", UIntT(16)),
            ],
        ),
        StructT(
            "Mix",
            [
                ("flag", BoolT()),
                ("z", ComplexT(FixPtT(4, 4))),
                ("inner", StructT("Inner", [("x", IntT(5)), ("y", UIntT(3))])),
            ],
        ),
    ]

    @staticmethod
    def _random_value(rng, ty):
        import random as _random

        if isinstance(ty, (UIntT, BitT)):
            return rng.randrange(1 << ty.n)
        if isinstance(ty, BoolT):
            return rng.random() < 0.5
        if isinstance(ty, IntT):
            return rng.randrange(-(1 << (ty.n - 1)), 1 << (ty.n - 1))
        if isinstance(ty, FixPtT):
            total = ty.bit_width()
            return FixedPoint.from_raw(
                rng.randrange(-(1 << (total - 1)), 1 << (total - 1)),
                ty.int_bits,
                ty.frac_bits,
            )
        if isinstance(ty, ComplexT):
            make = TestFusedPackUnpack._random_value
            return FixComplex(make(rng, ty.elem), make(rng, ty.elem))
        if isinstance(ty, VectorT):
            make = TestFusedPackUnpack._random_value
            value = tuple(make(rng, ty.elem) for _ in range(ty.n))
            # Half of the fixed and complex vectors come in their raw form.
            if isinstance(ty.elem, FixPtT) and rng.random() < 0.5:
                raws = tuple(v.raw for v in value)
                return RawFixVector(raws, ty.elem.int_bits, ty.elem.frac_bits)
            if isinstance(ty.elem, ComplexT) and rng.random() < 0.5:
                re = tuple(v.real.raw for v in value)
                im = tuple(v.imag.raw for v in value)
                return RawComplexVector(re, im, ty.elem.elem.int_bits, ty.elem.elem.frac_bits)
            return value
        assert isinstance(ty, StructT)
        make = TestFusedPackUnpack._random_value
        return {f: make(rng, t) for f, t in ty.fields}

    @pytest.mark.parametrize("ty", TYPES, ids=repr)
    def test_fused_matches_reference_on_random_values(self, ty):
        import random

        rng = random.Random(repr(ty))
        pack = marshal._compile_pack(ty)
        unpack = marshal._compile_unpack(ty)
        for _ in range(200):
            value = self._random_value(rng, ty)
            bits = ty.pack(value)
            assert pack(value) == bits
            decoded = unpack(bits)
            reference = ty.unpack(bits)
            assert decoded == reference
            assert type(decoded) is type(reference)
            if isinstance(reference, dict):
                assert list(decoded) == list(reference)

    def test_vectors_accept_lists_like_the_reference(self):
        ty = VectorT(3, FixPtT(8, 24))
        value = [FixedPoint.from_float(v, 8, 24) for v in (0.5, -1.25, 2.0)]
        assert marshal._compile_pack(ty)(value) == ty.pack(value)

    @pytest.mark.parametrize(
        "ty,value",
        [
            (UIntT(8), 256),
            (UIntT(8), -1),
            (UIntT(8), True),
            (UIntT(8), "x"),
            (IntT(8), 128),
            (BoolT(), 1),
            (FixPtT(8, 24), 5),
            (FixPtT(8, 24), FixedPoint.from_raw(0, 4, 12)),
            (ComplexT(FixPtT(8, 24)), 3),
            (
                ComplexT(FixPtT(8, 24)),
                FixComplex(FixedPoint.from_raw(0, 4, 12), FixedPoint.from_raw(0, 4, 12)),
            ),
            (VectorT(3, UIntT(8)), (1, 2)),
            (VectorT(3, UIntT(8)), (1, 2, 999)),
            (VectorT(3, UIntT(8)), "abc"),
            (VectorT(2, FixPtT(4, 4)), (FixedPoint.from_raw(0, 4, 4), 7)),
            (VectorT(2, FixPtT(4, 4)), RawFixVector((0, -3), 8, 24)),
            (VectorT(3, FixPtT(4, 4)), RawFixVector((0, -3), 4, 4)),
            (VectorT(2, FixPtT(8, 24)), RawComplexVector((0, 1), (2, 3), 8, 24)),
            (VectorT(2, ComplexT(FixPtT(8, 24))), RawComplexVector((0, 1), (2, 3), 4, 12)),
            (VectorT(2, ComplexT(FixPtT(8, 24))), RawComplexVector((0,), (2,), 8, 24)),
            (VectorT(1, ComplexT(FixPtT(8, 24))), RawFixVector((5,), 8, 24)),
            (StructT("S", [("a", UIntT(4)), ("b", UIntT(4))]), {"a": 1}),
            (StructT("S", [("a", UIntT(4)), ("b", UIntT(4))]), [1, 2]),
            (StructT("S", [("a", UIntT(4)), ("b", UIntT(4))]), {"a": 1, "b": 99}),
        ],
    )
    def test_fused_fallback_reproduces_reference_errors(self, ty, value):
        def outcome(fn):
            try:
                fn(value)
                return None
            except Exception as exc:  # noqa: BLE001 - comparing behaviours
                return (type(exc), str(exc))

        reference = outcome(ty.pack)
        assert reference is not None
        assert outcome(marshal._compile_pack(ty)) == reference

    def test_legal_values_the_fast_predicate_rejects_still_pack(self):
        """A FixedPoint subclass passes the reference isinstance check but
        not the fused ``__class__ is`` predicate: the fallback must pack it."""

        class SubFix(FixedPoint):
            pass

        ty = FixPtT(8, 24)
        value = SubFix(3, 8, 24)
        assert marshal._compile_pack(ty)(value) == ty.pack(value)

    def test_non_dict_mappings_still_pack(self):
        from collections import OrderedDict

        ty = StructT("S", [("a", UIntT(4)), ("b", UIntT(4))])
        value = OrderedDict((("b", 2), ("a", 1)))
        assert marshal._compile_pack(ty)(value) == ty.pack(value)

    def test_opaque_keeps_reference_behaviour(self):
        ty = OpaqueT()
        with pytest.raises(TypeCheckError):
            marshal._compile_pack(ty)(object())
        with pytest.raises(TypeCheckError):
            marshal._compile_unpack(ty)(0)

    def test_layout_decoder_uses_fused_unpack(self):
        ty = VectorT(4, ComplexT(FixPtT(8, 24)))
        layout = marshal.layout_for(ty, 32)
        import random

        rng = random.Random(13)
        value = self._random_value(rng, ty)
        words = layout.encoder(2)(value)
        assert layout.decoder()(words, 1) == value
        flat = layout.batch_encoder(2)([value, value])
        assert layout.run_decoder()(flat, 0, 2) == [value, value]


class TestWireFormatValidation:
    def test_header_must_fit_the_link_word(self):
        with pytest.raises(WireFormatError, match="word width is 16"):
            marshal.validate_wire_format(1, 1, 16)

    def test_16_bit_links_rejected_at_layout_build_time(self):
        with pytest.raises(WireFormatError):
            marshal.layout_for(UIntT(32), 16)

    def test_vc_id_space_checked(self):
        with pytest.raises(WireFormatError, match="vc-id space"):
            marshal.validate_wire_format((1 << marshal.VC_ID_BITS) + 1, 1, 32)

    def test_payload_length_checked(self):
        with pytest.raises(WireFormatError, match="length field"):
            marshal.validate_wire_format(1, 1 << marshal.LENGTH_BITS, 32)

    def test_wire_format_error_is_a_simulation_error(self):
        assert issubclass(WireFormatError, SimulationError)
