"""Unit and property tests for fixed-point and complex fixed-point arithmetic."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixedpoint import (
    FixComplex,
    FixedPoint,
    RawComplexVector,
    RawFixVector,
    box_complex_vector,
    box_fixed_vector,
    complex_vector_raws,
    fix_complex_vector,
    fix_vector,
    fixed_vector_raws,
)

floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestFixedPointBasics:
    def test_from_float_roundtrip(self):
        x = FixedPoint.from_float(1.5)
        assert x.to_float() == pytest.approx(1.5)

    def test_zero(self):
        assert FixedPoint.zero().to_float() == 0.0
        assert FixedPoint.zero().raw == 0

    def test_quantisation_error_bounded(self):
        value = 0.123456789
        x = FixedPoint.from_float(value)
        assert abs(x.to_float() - value) <= 1.0 / (1 << 24)

    def test_negative_values(self):
        x = FixedPoint.from_float(-2.25)
        assert x.to_float() == pytest.approx(-2.25)
        assert x.raw < 0

    def test_addition(self):
        a, b = FixedPoint.from_float(1.25), FixedPoint.from_float(2.5)
        assert (a + b).to_float() == pytest.approx(3.75)

    def test_subtraction(self):
        a, b = FixedPoint.from_float(1.25), FixedPoint.from_float(2.5)
        assert (a - b).to_float() == pytest.approx(-1.25)

    def test_multiplication(self):
        a, b = FixedPoint.from_float(1.5), FixedPoint.from_float(-2.0)
        assert (a * b).to_float() == pytest.approx(-3.0)

    def test_division(self):
        a, b = FixedPoint.from_float(3.0), FixedPoint.from_float(2.0)
        assert (a / b).to_float() == pytest.approx(1.5)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FixedPoint.from_float(1.0) / FixedPoint.zero()

    def test_mixed_scalar_arithmetic(self):
        a = FixedPoint.from_float(1.0)
        assert (a + 1).to_float() == pytest.approx(2.0)
        assert (2 * a).to_float() == pytest.approx(2.0)
        assert (1 - a).to_float() == pytest.approx(0.0)

    def test_negation_and_abs(self):
        a = FixedPoint.from_float(-1.5)
        assert (-a).to_float() == pytest.approx(1.5)
        assert abs(a).to_float() == pytest.approx(1.5)

    def test_shifts(self):
        a = FixedPoint.from_float(1.0)
        assert (a >> 1).to_float() == pytest.approx(0.5)
        assert (a << 1).to_float() == pytest.approx(2.0)

    def test_comparisons(self):
        a, b = FixedPoint.from_float(1.0), FixedPoint.from_float(2.0)
        assert a < b and a <= b and b > a and b >= a
        assert not (a > b)

    def test_format_mismatch_rejected(self):
        a = FixedPoint.from_float(1.0, 8, 24)
        b = FixedPoint.from_float(1.0, 16, 16)
        with pytest.raises(TypeError):
            _ = a + b

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            _ = FixedPoint.from_float(1.0) + True

    def test_wrapping_is_twos_complement(self):
        big = FixedPoint.from_float(127.9)
        wrapped = big + big
        assert wrapped.to_float() < 0  # overflow wraps around

    def test_bits_roundtrip(self):
        x = FixedPoint.from_float(-3.75)
        assert FixedPoint.from_bits(x.to_bits()) == x

    def test_repr_contains_value(self):
        assert "1.5" in repr(FixedPoint.from_float(1.5))


class TestFixedPointProperties:
    @given(small_floats, small_floats)
    @settings(max_examples=60, deadline=None)
    def test_addition_matches_floats(self, a, b):
        fa, fb = FixedPoint.from_float(a), FixedPoint.from_float(b)
        assert (fa + fb).to_float() == pytest.approx(a + b, abs=1e-6)

    @given(small_floats, small_floats)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_close_to_floats(self, a, b):
        fa, fb = FixedPoint.from_float(a), FixedPoint.from_float(b)
        assert (fa * fb).to_float() == pytest.approx(a * b, abs=1e-4)

    @given(small_floats)
    @settings(max_examples=60, deadline=None)
    def test_bits_roundtrip_property(self, a):
        x = FixedPoint.from_float(a)
        assert FixedPoint.from_bits(x.to_bits(), x.int_bits, x.frac_bits) == x

    @given(small_floats, small_floats)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, a, b):
        fa, fb = FixedPoint.from_float(a), FixedPoint.from_float(b)
        assert fa + fb == fb + fa

    @given(small_floats)
    @settings(max_examples=60, deadline=None)
    def test_negation_is_involution(self, a):
        x = FixedPoint.from_float(a)
        assert -(-x) == x


class TestFixComplex:
    def test_construction(self):
        c = FixComplex.from_floats(1.0, -2.0)
        assert c.real.to_float() == pytest.approx(1.0)
        assert c.imag.to_float() == pytest.approx(-2.0)

    def test_addition(self):
        a = FixComplex.from_floats(1.0, 2.0)
        b = FixComplex.from_floats(0.5, -1.0)
        c = a + b
        assert c.to_complex() == pytest.approx(complex(1.5, 1.0))

    def test_complex_multiplication(self):
        a = FixComplex.from_floats(1.0, 2.0)
        b = FixComplex.from_floats(3.0, -1.0)
        assert (a * b).to_complex() == pytest.approx(complex(1, 2) * complex(3, -1), abs=1e-5)

    def test_scalar_multiplication(self):
        a = FixComplex.from_floats(1.0, 2.0)
        assert (a * FixedPoint.from_float(2.0)).to_complex() == pytest.approx(complex(2, 4))

    def test_conjugate(self):
        a = FixComplex.from_floats(1.0, 2.0)
        assert a.conj().to_complex() == pytest.approx(complex(1, -2))

    def test_negation_and_subtraction(self):
        a = FixComplex.from_floats(1.0, 2.0)
        assert (-a).to_complex() == pytest.approx(complex(-1, -2))
        assert (a - a).to_complex() == pytest.approx(0j)

    def test_zero(self):
        assert FixComplex.zero().to_complex() == 0j

    tiny = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)

    @given(tiny, tiny, tiny, tiny)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_matches_python_complex(self, ar, ai, br, bi):
        # Operands are kept small enough that products stay inside the 8.24
        # format's +/-128 range (larger products wrap, by design).
        a = FixComplex.from_floats(ar, ai)
        b = FixComplex.from_floats(br, bi)
        assert (a * b).to_complex() == pytest.approx(complex(ar, ai) * complex(br, bi), abs=1e-2)


class TestVectorHelpers:
    def test_fix_vector(self):
        vec = fix_vector([0.0, 0.5, -0.5])
        assert len(vec) == 3
        assert vec[1].to_float() == pytest.approx(0.5)

    def test_fix_complex_vector(self):
        vec = fix_complex_vector([1 + 1j, -2j])
        assert len(vec) == 2
        assert vec[0].to_complex() == pytest.approx(1 + 1j)
        assert vec[1].to_complex() == pytest.approx(-2j)


# --------------------------------------------------------------------------
# raw vectors: the value form of Vector#(FixPt) / Vector#(Complex#(FixPt))
# --------------------------------------------------------------------------

#: Formats under test; (24, 40) is wider than 64-bit machine words.
VECTOR_FORMATS = [(8, 24), (16, 16), (4, 12), (1, 7), (24, 40)]


def _draw_raws(rng, n, int_bits, frac_bits):
    total = int_bits + frac_bits
    return [rng.randrange(-(1 << (total - 1)), 1 << (total - 1)) for _ in range(n)]


def _vector_and_boxed(rng, kind, int_bits, frac_bits, n):
    """A raw vector and the tuple of its elements, boxed independently."""
    if kind == "fixed":
        raws = _draw_raws(rng, n, int_bits, frac_bits)
        boxed = tuple(FixedPoint(r, int_bits, frac_bits) for r in raws)
        return box_fixed_vector(raws, int_bits, frac_bits), boxed
    re = _draw_raws(rng, n, int_bits, frac_bits)
    im = _draw_raws(rng, n, int_bits, frac_bits)
    boxed = tuple(
        FixComplex(FixedPoint(a, int_bits, frac_bits), FixedPoint(b, int_bits, frac_bits))
        for a, b in zip(re, im)
    )
    return box_complex_vector(re, im, int_bits, frac_bits), boxed


def _raw_args(vec):
    if isinstance(vec, RawFixVector):
        return (vec.raws, vec.int_bits, vec.frac_bits)
    return (vec.re, vec.im, vec.int_bits, vec.frac_bits)


def _reformatted(vec):
    """The same raw ints under another format."""
    if isinstance(vec, RawFixVector):
        return RawFixVector(vec.raws, vec.int_bits + 1, vec.frac_bits - 1)
    return RawComplexVector(vec.re, vec.im, vec.int_bits + 1, vec.frac_bits - 1)


KINDS = ["fixed", "complex"]


class TestRawVectors:
    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_box_helpers_return_the_raw_form(self, fmt, kind):
        vec, _ = _vector_and_boxed(random.Random(0), kind, *fmt, 4)
        assert type(vec) is (RawFixVector if kind == "fixed" else RawComplexVector)

    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_comparison_agrees_with_the_boxed_tuple(self, fmt, kind):
        rng = random.Random(repr((fmt, kind)))
        for _ in range(25):
            vec, boxed = _vector_and_boxed(rng, kind, *fmt, rng.randrange(1, 9))
            twin, _ = _vector_and_boxed(random.Random(0), kind, *fmt, len(vec))
            other_kind, _ = _vector_and_boxed(rng, KINDS[kind == "fixed"], *fmt, len(vec))
            perturbed = list(boxed)
            perturbed[rng.randrange(len(boxed))] = twin[0]
            comparands = [
                boxed,
                list(boxed),
                tuple(perturbed),
                boxed[:-1],
                boxed + boxed[:1],
                type(vec)(*_raw_args(vec)),
                twin,
                other_kind,
                _reformatted(vec),
                (),
                None,
                3,
            ]
            for other in comparands:
                assert (vec == other) is (boxed == other), other
                assert (other == vec) is (other == boxed), other
                assert (vec != other) is (boxed != other), other
                assert (other != vec) is (other != boxed), other
            assert vec == boxed and boxed == vec and not vec != boxed
            assert vec != list(boxed) and list(boxed) != vec

    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_hash_and_repr_match_the_boxed_tuple(self, fmt, kind):
        rng = random.Random(repr((fmt, kind, "hash")))
        for n in (1, 2, 5, 8):
            vec, boxed = _vector_and_boxed(rng, kind, *fmt, n)
            assert hash(vec) == hash(boxed)
            assert repr(vec) == repr(boxed)
            assert {vec: 1}[boxed] == 1 and {boxed: 2}[vec] == 2

    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_len_indexing_slicing_and_iteration(self, fmt, kind):
        rng = random.Random(repr((fmt, kind, "index")))
        vec, boxed = _vector_and_boxed(rng, kind, *fmt, 7)
        assert len(vec) == len(boxed) == 7
        for i in range(-7, 7):
            assert vec[i] == boxed[i]
            assert type(vec[i]) is type(boxed[i])
        for index in (7, -8):
            with pytest.raises(IndexError):
                vec[index]
        for sl in (slice(2, 5), slice(None, -2), slice(-3, None), slice(None, None, -1),
                   slice(1, None, 3), slice(5, 2)):
            part = vec[sl]
            assert type(part) is type(vec)
            assert part == boxed[sl]
        assert list(vec) == list(boxed)
        assert tuple(vec) == boxed
        assert boxed[3] in vec

    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_format_alone_makes_vectors_unequal(self, fmt, kind):
        vec, boxed = _vector_and_boxed(random.Random(5), kind, *fmt, 4)
        other = _reformatted(vec)
        assert _raw_args(other)[:-2] == _raw_args(vec)[:-2]
        assert vec != other and other != vec
        assert tuple(other) != boxed

    def test_empty_vectors_compare_like_empty_tuples(self):
        empties = [
            RawFixVector((), 8, 24),
            RawFixVector((), 16, 16),
            RawComplexVector((), (), 4, 12),
        ]
        for a in empties:
            for b in empties + [()]:
                assert a == b and b == a
            assert hash(a) == hash(()) and repr(a) == "()"

    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_round_trip(self, fmt, kind):
        vec, boxed = _vector_and_boxed(random.Random(6), kind, *fmt, 6)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(vec, protocol))
            assert type(back) is type(vec)
            assert _raw_args(back) == _raw_args(vec)
            assert back == boxed

    @pytest.mark.parametrize("kind", KINDS)
    def test_accessors_read_raws_in_constant_time(self, kind):
        vec, boxed = _vector_and_boxed(random.Random(7), kind, 8, 24, 6)
        if kind == "fixed":
            assert fixed_vector_raws(vec) is vec.raws
            assert fixed_vector_raws(boxed) == vec.raws
            assert fixed_vector_raws(list(boxed)) == vec.raws
        else:
            re, im = complex_vector_raws(vec)
            assert re is vec.re and im is vec.im
            assert complex_vector_raws(boxed) == (vec.re, vec.im)
