"""Bit-accurate BCL types.

Section 2.3 of the paper identifies data-representation mismatch as a major
source of HW/SW codesign bugs: the C++ and Verilog compilers may lay out the
"same" struct differently.  BCL solves this by giving every type a single
canonical bit-level representation used on both sides of the interface.  The
classes here implement that: every type knows its bit width and can ``pack``
a Python-level value into an unsigned integer of exactly that many bits (and
``unpack`` it back).  The marshaling layer (:mod:`repro.platform.marshal`)
builds channel messages exclusively from these packed representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.core.errors import TypeCheckError
from repro.core.fixedpoint import (
    FixComplex,
    FixedPoint,
    RawComplexVector,
    RawFixVector,
    complex_vector_raws,
    fixed_vector_raws,
)


class BCLType:
    """Base class of all BCL types."""

    def bit_width(self) -> int:
        """Number of bits of the canonical representation."""
        raise NotImplementedError

    def pack(self, value: Any) -> int:
        """Encode ``value`` as an unsigned integer of :meth:`bit_width` bits."""
        raise NotImplementedError

    def unpack(self, bits: int) -> Any:
        """Decode an unsigned integer produced by :meth:`pack`."""
        raise NotImplementedError

    def default(self) -> Any:
        """The reset value of a register of this type."""
        raise NotImplementedError

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` is a legal inhabitant of this type."""
        try:
            self.pack(value)
            return True
        except (TypeCheckError, TypeError, ValueError):
            return False

    def check(self, value: Any, context: str = "") -> None:
        if not self.accepts(value):
            raise TypeCheckError(
                f"value {value!r} is not a member of type {self}"
                + (f" ({context})" if context else "")
            )

    def __repr__(self) -> str:  # pragma: no cover - subclasses override
        return self.__class__.__name__


def _check_range(value: int, lo: int, hi: int, type_repr: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeCheckError(f"{type_repr} expects an int, got {value!r}")
    if not lo <= value <= hi:
        raise TypeCheckError(f"value {value} out of range [{lo}, {hi}] for {type_repr}")


@dataclass(frozen=True)
class BoolT(BCLType):
    """The Boolean type (one bit)."""

    def bit_width(self) -> int:
        return 1

    def pack(self, value: Any) -> int:
        if not isinstance(value, bool):
            raise TypeCheckError(f"Bool expects a bool, got {value!r}")
        return 1 if value else 0

    def unpack(self, bits: int) -> bool:
        return bool(bits & 1)

    def default(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class BitT(BCLType):
    """Raw bit vector of width ``n`` (unsigned integer value)."""

    n: int

    def bit_width(self) -> int:
        return self.n

    def pack(self, value: Any) -> int:
        _check_range(value, 0, (1 << self.n) - 1, repr(self))
        return value

    def unpack(self, bits: int) -> int:
        return bits & ((1 << self.n) - 1)

    def default(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"Bit#({self.n})"


@dataclass(frozen=True)
class UIntT(BCLType):
    """Unsigned integer of width ``n``."""

    n: int = 32

    def bit_width(self) -> int:
        return self.n

    def pack(self, value: Any) -> int:
        _check_range(value, 0, (1 << self.n) - 1, repr(self))
        return value

    def unpack(self, bits: int) -> int:
        return bits & ((1 << self.n) - 1)

    def default(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"UInt#({self.n})"


@dataclass(frozen=True)
class IntT(BCLType):
    """Signed two's-complement integer of width ``n``."""

    n: int = 32

    def bit_width(self) -> int:
        return self.n

    def pack(self, value: Any) -> int:
        lo = -(1 << (self.n - 1))
        hi = (1 << (self.n - 1)) - 1
        _check_range(value, lo, hi, repr(self))
        return value & ((1 << self.n) - 1)

    def unpack(self, bits: int) -> int:
        bits &= (1 << self.n) - 1
        if bits >= 1 << (self.n - 1):
            bits -= 1 << self.n
        return bits

    def default(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"Int#({self.n})"


@dataclass(frozen=True)
class FixPtT(BCLType):
    """Signed fixed-point type; values are :class:`~repro.core.fixedpoint.FixedPoint`."""

    int_bits: int = 8
    frac_bits: int = 24

    def bit_width(self) -> int:
        return self.int_bits + self.frac_bits

    def pack(self, value: Any) -> int:
        if not isinstance(value, FixedPoint):
            raise TypeCheckError(f"{self!r} expects FixedPoint, got {value!r}")
        if (value.int_bits, value.frac_bits) != (self.int_bits, self.frac_bits):
            raise TypeCheckError(
                f"fixed-point format mismatch: value is {value.int_bits}.{value.frac_bits}, "
                f"type is {self.int_bits}.{self.frac_bits}"
            )
        return value.to_bits()

    def unpack(self, bits: int) -> FixedPoint:
        return FixedPoint.from_bits(bits, self.int_bits, self.frac_bits)

    def default(self) -> FixedPoint:
        return FixedPoint.zero(self.int_bits, self.frac_bits)

    def __repr__(self) -> str:
        return f"FixPt#({self.int_bits},{self.frac_bits})"


@dataclass(frozen=True)
class ComplexT(BCLType):
    """Complex number over a fixed-point element type (``Complex#(FixPt)``)."""

    elem: FixPtT = FixPtT()

    def bit_width(self) -> int:
        return 2 * self.elem.bit_width()

    def pack(self, value: Any) -> int:
        if not isinstance(value, FixComplex):
            raise TypeCheckError(f"{self!r} expects FixComplex, got {value!r}")
        w = self.elem.bit_width()
        return (self.elem.pack(value.real) << w) | self.elem.pack(value.imag)

    def unpack(self, bits: int) -> FixComplex:
        w = self.elem.bit_width()
        imag = self.elem.unpack(bits & ((1 << w) - 1))
        real = self.elem.unpack(bits >> w)
        return FixComplex(real, imag)

    def default(self) -> FixComplex:
        return FixComplex(self.elem.default(), self.elem.default())

    def __repr__(self) -> str:
        return f"Complex#({self.elem!r})"


class VectorT(BCLType):
    """Fixed-length vector of a homogeneous element type (``Vector#(n, t)``).

    Values are sequences of length ``n``.  Element 0 occupies the least
    significant bits, matching BSV's packing convention.  Vectors of
    ``FixPt`` and ``Complex#(FixPt)`` unpack to their raw form
    (:class:`~repro.core.fixedpoint.RawFixVector` /
    :class:`~repro.core.fixedpoint.RawComplexVector`); other vectors unpack
    to tuples.  ``pack`` accepts tuples, lists and the raw forms.
    """

    def __init__(self, n: int, elem: BCLType):
        if n <= 0:
            raise TypeCheckError("vector length must be positive")
        self.n = n
        self.elem = elem

    def bit_width(self) -> int:
        cached = getattr(self, "_bit_width_cache", None)
        if cached is None:
            cached = self.n * self.elem.bit_width()
            self._bit_width_cache = cached
        return cached

    def pack(self, value: Any) -> int:
        if (
            not isinstance(value, (tuple, list, RawFixVector, RawComplexVector))
            or len(value) != self.n
        ):
            raise TypeCheckError(
                f"{self!r} expects a sequence of length {self.n}, got {value!r}"
            )
        w = self.elem.bit_width()
        bits = 0
        for i, v in enumerate(value):
            bits |= self.elem.pack(v) << (i * w)
        return bits

    def unpack(self, bits: int) -> Any:
        w = self.elem.bit_width()
        mask = (1 << w) - 1
        values = tuple(self.elem.unpack((bits >> (i * w)) & mask) for i in range(self.n))
        elem = self.elem
        if isinstance(elem, FixPtT):
            return RawFixVector(fixed_vector_raws(values), elem.int_bits, elem.frac_bits)
        if isinstance(elem, ComplexT):
            re, im = complex_vector_raws(values)
            return RawComplexVector(re, im, elem.elem.int_bits, elem.elem.frac_bits)
        return values

    def default(self) -> Tuple[Any, ...]:
        return tuple(self.elem.default() for _ in range(self.n))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorT) and other.n == self.n and other.elem == self.elem

    def __hash__(self) -> int:
        return hash(("VectorT", self.n, self.elem))

    def __repr__(self) -> str:
        return f"Vector#({self.n},{self.elem!r})"


class StructT(BCLType):
    """A named product type with ordered fields (``struct { ... }``).

    Values are plain dictionaries keyed by field name.  The first declared
    field occupies the most significant bits, matching the struct packing of
    BSV and the canonical layout generated for the C++ side.
    """

    def __init__(self, name: str, fields: Sequence[Tuple[str, BCLType]]):
        if not fields:
            raise TypeCheckError(f"struct {name} must have at least one field")
        names = [f for f, _ in fields]
        if len(set(names)) != len(names):
            raise TypeCheckError(f"struct {name} has duplicate field names")
        self.name = name
        self.fields: Tuple[Tuple[str, BCLType], ...] = tuple(fields)

    def field_type(self, field: str) -> BCLType:
        for f, t in self.fields:
            if f == field:
                return t
        raise TypeCheckError(f"struct {self.name} has no field {field!r}")

    def bit_width(self) -> int:
        # Memoised: struct widths sit on the per-message marshaling path.
        cached = getattr(self, "_bit_width_cache", None)
        if cached is None:
            cached = sum(t.bit_width() for _, t in self.fields)
            self._bit_width_cache = cached
        return cached

    def pack(self, value: Any) -> int:
        if not isinstance(value, Mapping):
            raise TypeCheckError(f"{self!r} expects a mapping, got {value!r}")
        missing = [f for f, _ in self.fields if f not in value]
        if missing:
            raise TypeCheckError(f"struct {self.name} value missing fields {missing}")
        bits = 0
        for fname, ftype in self.fields:
            bits = (bits << ftype.bit_width()) | ftype.pack(value[fname])
        return bits

    def unpack(self, bits: int) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for fname, ftype in reversed(self.fields):
            w = ftype.bit_width()
            out[fname] = ftype.unpack(bits & ((1 << w) - 1))
            bits >>= w
        return {f: out[f] for f, _ in self.fields}

    def default(self) -> Dict[str, Any]:
        return {f: t.default() for f, t in self.fields}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructT)
            and other.name == self.name
            and other.fields == self.fields
        )

    def __hash__(self) -> int:
        return hash(("StructT", self.name, self.fields))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}: {t!r}" for f, t in self.fields)
        return f"Struct {self.name} {{{inner}}}"


class OpaqueT(BCLType):
    """Internal-only state with no canonical bit representation.

    Used for registers that never cross a domain boundary (e.g. the ray
    tracer's traversal stack).  Packing such a value is an error by design:
    if it ever reaches a synchronizer the marshaling layer fails loudly,
    which is exactly the data-format discipline the paper argues for.
    """

    def __init__(self, default: Any = None):
        self._default = default

    def bit_width(self) -> int:
        raise TypeCheckError("opaque internal state has no canonical bit layout")

    def pack(self, value: Any) -> int:
        raise TypeCheckError("opaque internal state cannot cross a domain boundary")

    def unpack(self, bits: int) -> Any:
        raise TypeCheckError("opaque internal state cannot cross a domain boundary")

    def default(self) -> Any:
        return self._default

    def accepts(self, value: Any) -> bool:
        return True

    def check(self, value: Any, context: str = "") -> None:
        return None

    def __repr__(self) -> str:
        return "Opaque"


def words_for(ty: BCLType, word_bits: int = 32) -> int:
    """Number of ``word_bits``-wide channel words needed to carry one value of ``ty``.

    Used by the interface generator and the channel cost model: a
    ``Vector#(64, Complex#(FixPt#(8,24)))`` frame occupies 128 32-bit words.
    """
    width = ty.bit_width()
    return (width + word_bits - 1) // word_bits
