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
    RawStruct,
    StructT,
    UIntT,
    VectorT,
    words_for,
)
from repro.apps.raytracer import geometry
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

    def test_struct_extra_field(self):
        """A value with undeclared fields would cross a link and come back
        as a different value; packing it is an error naming the fields."""
        t = StructT("Pair", [("a", UIntT(8)), ("b", IntT(8))])
        with pytest.raises(TypeCheckError, match=r"unexpected fields \['junk'\]"):
            t.pack({"a": 1, "b": 2, "junk": 7})
        assert not t.accepts({"a": 1, "b": 2, "junk": 7})

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

    #: A struct with every leaf kind, nested structs and vectors of them.
    MIX = StructT(
        "Mix",
        [
            ("flag", BoolT()),
            ("t", FixPtT(16, 16)),
            ("z", ComplexT(FixPtT(4, 4))),
            ("inner", StructT("Inner", [("x", IntT(5)), ("y", UIntT(3)), ("b", BitT(2))])),
            ("v", VectorT(3, FixPtT(4, 4))),
            ("pts", VectorT(2, StructT("P", [("p", BoolT()), ("q", FixPtT(8, 8))]))),
        ],
    )

    def test_struct_unpacks_to_the_raw_struct_form(self):
        """``unpack`` returns a RawStruct: a flat tuple of leaf raws in
        declaration order that reads, compares and prints like the dict of
        boxed fields, and packs back to the same bits."""
        t = self.MIX
        bits = t.pack(
            {
                "flag": True,
                "t": FixedPoint.from_float(-2.5, 16, 16),
                "z": FixComplex.from_floats(1.5, -0.25, 4, 4),
                "inner": {"x": -3, "y": 5, "b": 2},
                "v": tuple(FixedPoint.from_float(f, 4, 4) for f in (0.5, -1.0, 7.0)),
                "pts": (
                    {"p": False, "q": FixedPoint.from_float(-1.5, 8, 8)},
                    {"p": True, "q": FixedPoint.from_float(3.0, 8, 8)},
                ),
            }
        )
        value = t.unpack(bits)
        assert type(value) is RawStruct and value.ty is t
        assert value.raws == (True, -163840, 24, -4, -3, 5, 2, 8, -16, 112, False, -384, True, 768)
        # LSB-first payload offsets: the first field is the most significant,
        # a vector's element 0 the least.
        assert [off for _, off in t.leaves] == [
            116, 84, 76, 68, 63, 60, 58, 34, 42, 50, 16, 0, 33, 17,
        ]
        assert t.pack(value) == bits
        assert type(value["inner"]) is RawStruct and value["inner"].raws == (-3, 5, 2)
        assert type(value["v"]) is RawFixVector
        assert type(value["pts"]) is tuple and value["pts"][1].raws == (True, 768)
        assert value["z"] == FixComplex.from_floats(1.5, -0.25, 4, 4)
        assert value["flag"] is True

    def test_raw_struct_value_contract(self):
        """``==`` and ``repr`` agree with the dict form, the value pickles,
        and it is immutable."""
        import pickle

        from repro.apps.raytracer import geometry

        ray_t = geometry.struct_types()["ray"]
        boxed = geometry.camera_ray(5, 4, 4)
        value = ray_t.raw(boxed)
        for left, right in ((value, boxed), (boxed, value)):
            assert left == right and not left != right
        assert repr(value) == repr(boxed)
        assert dict(value) == boxed and list(value) == ["origin", "dir", "pixel"]
        changed = dict(boxed, pixel=6)
        assert value != changed and changed != value
        assert value != ray_t.raw(changed)
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and clone.ty == ray_t and clone.raws == value.raws
        with pytest.raises(TypeError):
            value["pixel"] = 6
        with pytest.raises(AttributeError):
            value.raws = ()
        with pytest.raises(AttributeError):
            del value.ty
        with pytest.raises(TypeError):
            hash(value)  # unhashable, like the dict form
        # Another struct type's raw struct compares through the dict form.
        twin = StructT("RayTwin", ray_t.fields)
        assert RawStruct(twin, value.raws) == value
        assert ray_t.raw(value) is value
        assert ray_t.raw(RawStruct(StructT(ray_t.name, ray_t.fields), value.raws)).ty is ray_t

    def test_raw_struct_boxes_on_demand_through_from_wrapped_raw(self, monkeypatch):
        """Item access boxes a FixPt leaf through the module-global
        ``from_wrapped_raw`` (so rebinding it counts every box); struct and
        leaf accessors, pack, unpack and the link codec never box."""
        from repro.core import types

        boxed = []
        original = types.from_wrapped_raw

        def counting(raw, int_bits, frac_bits):
            boxed.append(raw)
            return original(raw, int_bits, frac_bits)

        monkeypatch.setattr(types, "from_wrapped_raw", counting)
        t = self.MIX
        value = t.unpack((1 << t.bit_width()) - 12345)
        layout = marshal.layout_for(t, 32)
        words = layout.encoder(1)(value)
        assert layout.decoder()(words, 1).raws == value.raws
        assert t.pack(value) == (1 << t.bit_width()) - 12345
        assert t.accessor("t")(value) == value.raws[1]
        assert t.accessor("inner.x")(value) == value.raws[4]
        assert t.accessor("pts")(value) == value.raws[10:]
        inner = value["inner"]
        assert inner["x"] == value.raws[4] and not boxed
        assert value["t"].raw == value.raws[1]
        assert boxed == [value.raws[1]]
        value["z"]
        assert boxed == [value.raws[1], value.raws[2], value.raws[3]]

    def test_struct_accessor_reads_dict_values_too(self):
        t = self.MIX
        value = t.unpack(0x5A5A5A5A5A5A5A5A5A5A5A5A & ((1 << t.bit_width()) - 1))
        as_dict = {name: value[name] for name in value}
        for field in ("flag", "t", "z", "inner", "inner.y", "v", "pts"):
            read = t.accessor(field)
            assert read(as_dict) == read(value)
        with pytest.raises(TypeCheckError):
            t.accessor("nope")

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
        at 64 bits the payload spans words and takes the reference path
        (16-bit links have no layout).  ``FixPt#(24,40)`` is aligned at 64
        bits instead.  Every path must put the reference's words on the
        wire and decode the reference's value, from the raw form or boxed
        elements."""
        fix = FixPtT(*fmt)
        elem = fix if kind == "fixed" else ComplexT(fix)
        t = VectorT(n, elem)
        value = TestLayoutCodecs._random_value(rng, t)
        raw_type = RawFixVector if kind == "fixed" else RawComplexVector
        words = marshal.marshal_value(t, value, word_bits)
        reference = marshal.demarshal_value(t, words, word_bits)
        assert reference == value and type(reference) is raw_type
        if word_bits < marshal.VC_ID_BITS + marshal.LENGTH_BITS:
            return  # no header fits: 16-bit links have no layout
        layout = marshal.layout_for(t, word_bits)
        assert (layout._codec is not None) == (word_bits == fix.bit_width())
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

    def test_struct_codec_text_is_debuggable(self, monkeypatch, tmp_path):
        """A struct layout's generated codec is registered with linecache
        and written to ``$REPRO_DUMP_SOURCE``, like a generated module."""
        import linecache

        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path))
        t = StructT("DumpedPair", [("flag", BoolT()), ("t", FixPtT(16, 16))])
        layout = marshal.layout_for(t, 32)
        encode, decode = layout._codec
        filename = decode.__code__.co_filename
        assert encode.__code__.co_filename == filename
        (dumped,) = tmp_path.glob("DumpedPair.w32-*.codec.py")
        source = dumped.read_text()
        assert linecache.getlines(filename) == source.splitlines(True)
        assert "def decode(words, start):" in source and "from_wrapped_raw" not in source

    def test_compiled_pack_fast_path_keeps_reference_errors(self):
        layout = marshal.layout_for(UIntT(8), 32)
        encode = layout.encoder(0)
        assert encode(255) == (layout.header_word(0), 255)
        with pytest.raises(TypeCheckError):
            encode(256)
        with pytest.raises(TypeCheckError):
            encode(True)  # bools are not UInt inhabitants


class TestLayoutCodecs:
    """A layout's encoders and decoders -- a word codec where the layout
    has one, the reference marshaling for every other layout and for any
    value a codec declines -- must be observationally identical to
    ``marshal_message``/``demarshal_message``: values, value types, error
    types *and* error messages."""

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
        # One-element vectors: of a struct, inside a vector, of a scalar.
        StructT(
            "Singles",
            [
                ("one", VectorT(1, StructT("P", [("p", BoolT()), ("q", FixPtT(8, 8))]))),
                ("nest", VectorT(2, VectorT(1, FixPtT(4, 4)))),
                ("n", VectorT(1, UIntT(3))),
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
            make = TestLayoutCodecs._random_value
            return FixComplex(make(rng, ty.elem), make(rng, ty.elem))
        if isinstance(ty, VectorT):
            make = TestLayoutCodecs._random_value
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
        make = TestLayoutCodecs._random_value
        value = {f: make(rng, t) for f, t in ty.fields}
        # Half of the structs come in their raw form.
        return ty.raw(value) if rng.random() < 0.5 else value

    #: The ray tracer's struct layouts: nested structs (GeomReq holds a Ray
    #: and LeafData's vector of triangles), and BvhNode, whose 1-bit
    #: ``is_leaf`` at payload bit 64 makes all six box leaves straddle words.
    RAY_STRUCTS = {
        name: geometry.struct_types()[name]
        for name in ("ray", "node", "leaf_data", "geom_req", "hit", "color", "mem_req")
    }

    @pytest.mark.parametrize("word_bits", [32, 64])
    @pytest.mark.parametrize(
        "ty",
        [pytest.param(ty, id=ty.name) for ty in RAY_STRUCTS.values()]
        + [
            pytest.param(ty, id=name)
            for ty, name in zip(TYPES[-3:], ("vector_fields", "Mix", "Singles"))
        ],
    )
    def test_struct_codec_matches_reference(self, ty, word_bits):
        """A struct layout's generated codec puts the reference's words on
        the link for raw-form and dict-form values alike, and decodes them
        straight into the raw struct form."""
        import random

        rng = random.Random(f"{ty.name}/{word_bits}")
        layout = marshal.layout_for(ty, word_bits)
        # The leaf table and the layout's field slices place the same bits.
        slices = [
            (f.bit_offset + k * f.stride, f.bit_width) for f in layout.fields for k in range(f.count)
        ]
        assert sorted((off, leaf.bit_width()) for leaf, off in ty.leaves) == sorted(slices)
        encode, decode = layout.encoder(3), layout.decoder()
        batch, run = layout.batch_encoder(3), layout.run_decoder()
        for _ in range(100):
            value = self._random_value(rng, ty)
            canonical = ty.unpack(ty.pack(value))
            framed = marshal.marshal_message(3, ty, value, word_bits)
            assert list(encode(value)) == framed
            assert list(encode(canonical)) == framed
            assert list(encode(dict(canonical))) == framed
            decoded = decode(framed, 1)
            assert type(decoded) is RawStruct and decoded.ty is layout.ty
            assert decoded.raws == canonical.raws and decoded == value
            flat = batch([value, canonical])
            assert flat == framed + framed
            assert run([0] + flat, 1, 2) == [canonical, canonical]

    @pytest.mark.parametrize("word_bits", [32, 64])
    @pytest.mark.parametrize("ty", TYPES, ids=repr)
    def test_layout_matches_reference_on_random_values(self, ty, word_bits):
        import random

        rng = random.Random(f"{ty!r}/{word_bits}")
        layout = marshal.layout_for(ty, word_bits)
        encode, decode = layout.encoder(5), layout.decoder()
        for _ in range(200):
            value = self._random_value(rng, ty)
            framed = marshal.marshal_message(5, ty, value, word_bits)
            assert list(encode(value)) == framed
            decoded = decode(framed, 1)
            _, reference = marshal.demarshal_message(ty, framed, word_bits)
            assert decoded == reference
            assert type(decoded) is type(reference)

    def test_vectors_accept_lists_like_the_reference(self):
        ty = VectorT(3, FixPtT(8, 24))
        value = [FixedPoint.from_float(v, 8, 24) for v in (0.5, -1.25, 2.0)]
        for word_bits in (32, 64):
            layout = marshal.layout_for(ty, word_bits)
            assert list(layout.encoder(0)(value)) == marshal.marshal_message(
                0, ty, value, word_bits
            )

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
            (StructT("S", [("a", UIntT(4)), ("b", UIntT(4))]), {"a": 1, "b": 2, "junk": 7}),
            (
                StructT("S", [("a", UIntT(4)), ("b", UIntT(4))]),
                RawStruct(StructT("T", [("a", UIntT(4))]), (1,)),
            ),
            (
                StructT("S", [("a", UIntT(4)), ("b", UIntT(4))]),
                RawStruct(StructT("T", [("a", UIntT(4)), ("b", IntT(8))]), (1, -2)),
            ),
        ],
    )
    def test_declined_values_reproduce_reference_errors(self, ty, value):
        """Every layout encoder -- the reference one, an aligned vector's
        codec, a struct's generated codec -- hands a value it does not take
        to ``ty.pack``, so the error is the reference's."""

        def outcome(fn):
            try:
                fn(value)
                return None
            except Exception as exc:  # noqa: BLE001 - comparing behaviours
                return (type(exc), str(exc))

        reference = outcome(ty.pack)
        assert reference is not None
        for word_bits in (32, 64):
            layout = marshal.layout_for(ty, word_bits)
            assert outcome(layout.encoder(0)) == reference
            assert outcome(lambda v: layout.batch_encoder(0)([v])) == reference

    def test_legal_values_the_fast_predicate_rejects_still_pack(self):
        """A FixedPoint subclass passes the reference isinstance check but
        not a codec's ``__class__ is`` predicate: the reference must pack
        it, alone and as the elements of an aligned vector."""

        class SubFix(FixedPoint):
            pass

        elem = FixPtT(8, 24)
        for ty, value in (
            (elem, SubFix(3, 8, 24)),
            (VectorT(2, elem), (SubFix(3, 8, 24), SubFix(-5, 8, 24))),
        ):
            layout = marshal.layout_for(ty, 32)
            assert list(layout.encoder(0)(value)) == marshal.marshal_message(0, ty, value)

    def test_non_dict_mappings_still_pack(self):
        from collections import OrderedDict

        ty = StructT("S", [("a", UIntT(4)), ("b", UIntT(4))])
        value = OrderedDict((("b", 2), ("a", 1)))
        layout = marshal.layout_for(ty, 32)
        assert list(layout.encoder(0)(value)) == marshal.marshal_message(0, ty, value)

    def test_opaque_keeps_reference_behaviour(self):
        """Opaque state has no bit layout, so it has no link layout either."""
        with pytest.raises(TypeCheckError):
            marshal.layout_for(OpaqueT())

    def test_layout_roundtrips_complex_vectors(self):
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
