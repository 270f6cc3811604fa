"""Fixed-point and complex fixed-point arithmetic.

The paper's Vorbis evaluation uses 32-bit fixed-point values with 24 bits of
fractional precision (Section 7.1), and the data-format discussion in
Section 2.3 motivates a *single* canonical bit-level representation shared by
the hardware and software partitions.  :class:`FixedPoint` is that
representation: a signed two's-complement integer of ``int_bits + frac_bits``
bits interpreted with a binary point ``frac_bits`` from the right.

All arithmetic wraps (two's complement) exactly as the synthesized hardware
would, so software and hardware partitions of the same design produce
bit-identical results -- which is what the partition-equivalence tests rely
on.

Vectors keep that canonical form without per-element objects: a
``Vector#(FixPt)`` value is a :class:`RawFixVector` and a
``Vector#(Complex#(FixPt))`` value a :class:`RawComplexVector`, flat tuples
of wrapped raw ints plus the format.  The link codec, the register stores
and the fast kernels pass them along unchanged; an element is boxed into a
:class:`FixedPoint` / :class:`FixComplex` only when something indexes or
iterates the vector, and the vector compares, hashes and prints exactly
like the tuple of its boxed elements.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Tuple, Union

Number = Union[int, float, "FixedPoint"]


def _wrap(raw: int, total_bits: int) -> int:
    """Wrap ``raw`` into the signed two's-complement range of ``total_bits``."""
    mask = (1 << total_bits) - 1
    raw &= mask
    if raw >= 1 << (total_bits - 1):
        raw -= 1 << total_bits
    return raw


# --------------------------------------------------------------------------
# raw-integer fast path
# --------------------------------------------------------------------------
#
# The kernel dataplane (repro.core.kernelcompile and the batch kernels built
# on it) computes over plain raw two's-complement ints and takes and returns
# vectors in their raw form, so no FixedPoint object is built on its path.
# The kernels inline the branchless wrap, ``((raw & mask) ^ sign) - sign``,
# after every operation, so each mirrors its FixedPoint operator bit for bit.


def raw_from_float(value: float, frac_bits: int, total_bits: int) -> int:
    """Raw equivalent of ``FixedPoint.from_float`` (round half to even)."""
    return _wrap(int(round(value * (1 << frac_bits))), total_bits)


def from_wrapped_raw(raw: int, int_bits: int, frac_bits: int) -> "FixedPoint":
    """Box an *already wrapped* raw int without re-wrapping.

    The element boxing path of the raw vectors and of scalar decoding.  The
    caller guarantees ``raw`` is in the signed range of the format; every
    helper above returns such values.  ``FixedPoint.from_raw`` remains the
    safe constructor for unwrapped inputs.
    """
    fp = FixedPoint.__new__(FixedPoint)
    fp.raw = raw
    fp.int_bits = int_bits
    fp.frac_bits = frac_bits
    return fp


def box_fixed_vector(raws: Iterable[int], int_bits: int, frac_bits: int) -> "RawFixVector":
    """Wrap a sequence of wrapped raw ints as a ``Vector#(FixPt)`` value.

    No element is boxed here: the :class:`RawFixVector` boxes on access.
    """
    return RawFixVector(tuple(raws), int_bits, frac_bits)


def box_complex_vector(
    re_raws: Iterable[int], im_raws: Iterable[int], int_bits: int, frac_bits: int
) -> "RawComplexVector":
    """Wrap parallel wrapped raw re/im sequences as a ``Vector#(Complex#(FixPt))`` value."""
    return RawComplexVector(tuple(re_raws), tuple(im_raws), int_bits, frac_bits)


def fixed_vector_raws(vector: Any) -> Tuple[int, ...]:
    """The raw ints of a ``Vector#(FixPt)`` value: O(1) for a :class:`RawFixVector`,
    unboxed element by element for a plain sequence of :class:`FixedPoint`."""
    if vector.__class__ is RawFixVector:
        return vector.raws
    return tuple(v.raw for v in vector)


def complex_vector_raws(vector: Any) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The ``(re, im)`` raw ints of a ``Vector#(Complex#(FixPt))`` value: O(1) for
    a :class:`RawComplexVector`, unboxed for a plain sequence of :class:`FixComplex`."""
    if vector.__class__ is RawComplexVector:
        return vector.re, vector.im
    return tuple(v.real.raw for v in vector), tuple(v.imag.raw for v in vector)


class RawFixVector:
    """A ``Vector#(FixPt)`` value: wrapped raw ints plus ``(int_bits, frac_bits)``.

    Treated as immutable, like :class:`FixedPoint`.  ``len``, indexing and
    iteration box elements on demand (a slice is again a ``RawFixVector``);
    ``==``, ``hash`` and ``repr`` agree with the tuple of the boxed elements,
    so a vector prints, compares and keys a dict exactly like that tuple.
    """

    __slots__ = ("raws", "int_bits", "frac_bits")

    def __init__(self, raws: Tuple[int, ...], int_bits: int, frac_bits: int):
        self.raws = raws
        self.int_bits = int_bits
        self.frac_bits = frac_bits

    def __len__(self) -> int:
        return len(self.raws)

    def __getitem__(self, index: Any) -> Any:
        if index.__class__ is slice:
            return RawFixVector(self.raws[index], self.int_bits, self.frac_bits)
        return from_wrapped_raw(self.raws[index], self.int_bits, self.frac_bits)

    def __iter__(self) -> Iterator["FixedPoint"]:
        int_bits, frac_bits = self.int_bits, self.frac_bits
        for raw in self.raws:
            yield from_wrapped_raw(raw, int_bits, frac_bits)

    def __eq__(self, other: object):
        if other.__class__ is RawFixVector:
            # Boxed elements carry the format; an empty tuple carries none.
            return self.raws == other.raws and (
                not self.raws
                or (self.int_bits == other.int_bits and self.frac_bits == other.frac_bits)
            )
        if isinstance(other, (tuple, RawComplexVector)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return RawFixVector, (self.raws, self.int_bits, self.frac_bits)


class RawComplexVector:
    """A ``Vector#(Complex#(FixPt))`` value: parallel wrapped raw ``re``/``im``
    tuples plus ``(int_bits, frac_bits)``.

    Treated as immutable, with the same on-demand boxing and
    tuple-equivalent comparison, hashing and printing as :class:`RawFixVector`.
    """

    __slots__ = ("re", "im", "int_bits", "frac_bits")

    def __init__(
        self, re: Tuple[int, ...], im: Tuple[int, ...], int_bits: int, frac_bits: int
    ):
        self.re = re
        self.im = im
        self.int_bits = int_bits
        self.frac_bits = frac_bits

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, index: Any) -> Any:
        if index.__class__ is slice:
            return RawComplexVector(self.re[index], self.im[index], self.int_bits, self.frac_bits)
        return FixComplex(
            from_wrapped_raw(self.re[index], self.int_bits, self.frac_bits),
            from_wrapped_raw(self.im[index], self.int_bits, self.frac_bits),
        )

    def __iter__(self) -> Iterator["FixComplex"]:
        int_bits, frac_bits = self.int_bits, self.frac_bits
        for re, im in zip(self.re, self.im):
            yield FixComplex(
                from_wrapped_raw(re, int_bits, frac_bits), from_wrapped_raw(im, int_bits, frac_bits)
            )

    def __eq__(self, other: object):
        if other.__class__ is RawComplexVector:
            return (
                self.re == other.re
                and self.im == other.im
                and (
                    not self.re
                    or (self.int_bits == other.int_bits and self.frac_bits == other.frac_bits)
                )
            )
        if isinstance(other, (tuple, RawFixVector)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return RawComplexVector, (self.re, self.im, self.int_bits, self.frac_bits)


class FixedPoint:
    """A signed fixed-point number with ``int_bits`` integer and ``frac_bits`` fractional bits.

    The value is stored as the raw (scaled) integer ``raw`` so that the
    represented real number is ``raw / 2**frac_bits``.  Instances are
    treated as immutable and are hashable, which lets them be used directly
    as register values in the interpreter's store.

    Fixed-point multiplies and adds are by far the hottest operations in the
    Vorbis pipeline (every IMDCT butterfly runs through here in *both*
    partitions), so this is a ``__slots__`` value class with hand-specialised
    arithmetic rather than a frozen dataclass: the common same-format
    fast path wraps and constructs the result without going through
    ``_coerce``/``_make``/``__init__`` dispatch.  Semantics (two's-complement
    wrapping, format-mismatch errors, equality and hashing) are unchanged.
    """

    __slots__ = ("raw", "int_bits", "frac_bits")

    def __init__(self, raw: int, int_bits: int = 8, frac_bits: int = 24):
        self.raw = raw
        self.int_bits = int_bits
        self.frac_bits = frac_bits

    def __eq__(self, other: object):
        if other.__class__ is FixedPoint:
            return (
                self.raw == other.raw
                and self.int_bits == other.int_bits
                and self.frac_bits == other.frac_bits
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.raw, self.int_bits, self.frac_bits))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, value: float, int_bits: int = 8, frac_bits: int = 24) -> "FixedPoint":
        """Quantise a Python float to the nearest representable fixed-point value."""
        raw = int(round(value * (1 << frac_bits)))
        return cls(_wrap(raw, int_bits + frac_bits), int_bits, frac_bits)

    @classmethod
    def from_raw(cls, raw: int, int_bits: int = 8, frac_bits: int = 24) -> "FixedPoint":
        """Build a value directly from its raw two's-complement integer."""
        return cls(_wrap(raw, int_bits + frac_bits), int_bits, frac_bits)

    @classmethod
    def zero(cls, int_bits: int = 8, frac_bits: int = 24) -> "FixedPoint":
        return cls(0, int_bits, frac_bits)

    # -- properties --------------------------------------------------------

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    def to_float(self) -> float:
        return self.raw / float(1 << self.frac_bits)

    def to_bits(self) -> int:
        """Unsigned bit pattern (for marshaling onto the channel)."""
        return self.raw & ((1 << self.total_bits) - 1)

    @classmethod
    def from_bits(cls, bits: int, int_bits: int = 8, frac_bits: int = 24) -> "FixedPoint":
        return cls.from_raw(bits, int_bits, frac_bits)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other: Number) -> "FixedPoint":
        if isinstance(other, FixedPoint):
            if (other.int_bits, other.frac_bits) != (self.int_bits, self.frac_bits):
                raise TypeError(
                    "fixed-point format mismatch: "
                    f"{self.int_bits}.{self.frac_bits} vs {other.int_bits}.{other.frac_bits}"
                )
            return other
        if isinstance(other, bool):
            raise TypeError("cannot mix bool with FixedPoint arithmetic")
        if isinstance(other, (int, float)):
            return FixedPoint.from_float(float(other), self.int_bits, self.frac_bits)
        raise TypeError(f"cannot coerce {type(other).__name__} to FixedPoint")

    def _make(self, raw: int) -> "FixedPoint":
        total_bits = self.int_bits + self.frac_bits
        raw &= (1 << total_bits) - 1
        if raw >= 1 << (total_bits - 1):
            raw -= 1 << total_bits
        result = FixedPoint.__new__(FixedPoint)
        result.raw = raw
        result.int_bits = self.int_bits
        result.frac_bits = self.frac_bits
        return result

    # -- arithmetic --------------------------------------------------------
    #
    # Each operation inlines the common case (both operands already share a
    # format); mixed int/float operands fall back to ``_coerce``.

    def __add__(self, other: Number) -> "FixedPoint":
        if (
            other.__class__ is not FixedPoint
            or other.int_bits != self.int_bits
            or other.frac_bits != self.frac_bits
        ):
            other = self._coerce(other)
        return self._make(self.raw + other.raw)

    __radd__ = __add__

    def __sub__(self, other: Number) -> "FixedPoint":
        if (
            other.__class__ is not FixedPoint
            or other.int_bits != self.int_bits
            or other.frac_bits != self.frac_bits
        ):
            other = self._coerce(other)
        return self._make(self.raw - other.raw)

    def __rsub__(self, other: Number) -> "FixedPoint":
        o = self._coerce(other)
        return o - self

    def __mul__(self, other: Number) -> "FixedPoint":
        if (
            other.__class__ is not FixedPoint
            or other.int_bits != self.int_bits
            or other.frac_bits != self.frac_bits
        ):
            other = self._coerce(other)
        return self._make((self.raw * other.raw) >> self.frac_bits)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "FixedPoint":
        o = self._coerce(other)
        if o.raw == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return self._make((self.raw << self.frac_bits) // o.raw)

    def __neg__(self) -> "FixedPoint":
        return self._make(-self.raw)

    def __abs__(self) -> "FixedPoint":
        return self._make(abs(self.raw))

    def __lshift__(self, n: int) -> "FixedPoint":
        return self._make(self.raw << n)

    def __rshift__(self, n: int) -> "FixedPoint":
        return self._make(self.raw >> n)

    # -- comparisons -------------------------------------------------------

    def __lt__(self, other: Number) -> bool:
        return self.raw < self._coerce(other).raw

    def __le__(self, other: Number) -> bool:
        return self.raw <= self._coerce(other).raw

    def __gt__(self, other: Number) -> bool:
        return self.raw > self._coerce(other).raw

    def __ge__(self, other: Number) -> bool:
        return self.raw >= self._coerce(other).raw

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"FixedPoint({self.to_float():.6f}, fmt={self.int_bits}.{self.frac_bits})"


class FixComplex:
    """A complex number whose real and imaginary parts are :class:`FixedPoint`.

    Mirrors the ``Complex#(FixPt)`` type of the paper's IFFT interface.
    Like :class:`FixedPoint`, a ``__slots__`` value class on the butterfly
    hot path; treated as immutable.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: FixedPoint, imag: FixedPoint):
        self.real = real
        self.imag = imag

    def __eq__(self, other: object):
        if other.__class__ is FixComplex:
            return self.real == other.real and self.imag == other.imag
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.real, self.imag))

    @classmethod
    def from_floats(
        cls, real: float, imag: float = 0.0, int_bits: int = 8, frac_bits: int = 24
    ) -> "FixComplex":
        return cls(
            FixedPoint.from_float(real, int_bits, frac_bits),
            FixedPoint.from_float(imag, int_bits, frac_bits),
        )

    @classmethod
    def zero(cls, int_bits: int = 8, frac_bits: int = 24) -> "FixComplex":
        return cls(FixedPoint.zero(int_bits, frac_bits), FixedPoint.zero(int_bits, frac_bits))

    def __add__(self, other: "FixComplex") -> "FixComplex":
        return FixComplex(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "FixComplex") -> "FixComplex":
        return FixComplex(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other: Union["FixComplex", FixedPoint, int, float]) -> "FixComplex":
        if isinstance(other, FixComplex):
            return FixComplex(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        return FixComplex(self.real * other, self.imag * other)

    __rmul__ = __mul__

    def __neg__(self) -> "FixComplex":
        return FixComplex(-self.real, -self.imag)

    def conj(self) -> "FixComplex":
        return FixComplex(self.real, -self.imag)

    def to_complex(self) -> complex:
        return complex(self.real.to_float(), self.imag.to_float())

    def __repr__(self) -> str:
        return f"FixComplex({self.real.to_float():.6f}, {self.imag.to_float():.6f})"


def fix_vector(values: Iterable[float], int_bits: int = 8, frac_bits: int = 24) -> Tuple[FixedPoint, ...]:
    """Quantise an iterable of floats into a tuple of :class:`FixedPoint`."""
    return tuple(FixedPoint.from_float(v, int_bits, frac_bits) for v in values)


def fix_complex_vector(
    values: Iterable[complex], int_bits: int = 8, frac_bits: int = 24
) -> Tuple[FixComplex, ...]:
    """Quantise an iterable of complex floats into a tuple of :class:`FixComplex`."""
    return tuple(
        FixComplex.from_floats(v.real, v.imag, int_bits, frac_bits) for v in map(complex, values)
    )
