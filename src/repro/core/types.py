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

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

from repro.core.errors import TypeCheckError
from repro.core.fixedpoint import (
    FixComplex,
    FixedPoint,
    RawComplexVector,
    RawFixVector,
    complex_vector_raws,
    fixed_vector_raws,
    from_wrapped_raw,
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


class RawStruct(Mapping):
    """A ``StructT`` value as a flat tuple of leaf raws (the raw struct form).

    ``raws`` holds one entry per leaf of ``ty``, in the order
    :attr:`StructT.leaves` lists them: declaration order, with nested
    structs and vector elements flattened in place and a complex leaf as its
    real then imaginary raw.  FixPt leaves are wrapped signed raw ints,
    UInt, Int and Bit leaves ints and Bool leaves bools; like
    :func:`~repro.core.fixedpoint.from_wrapped_raw`, the value trusts its
    raws to be in range.  An enclosing value is built by tuple
    concatenation: a struct whose fields are another struct's fields
    followed by a third's has the raws of the one followed by the other's.

    It reads like the dict of boxed fields it stands for.  Item access by
    field name boxes a FixPt leaf on demand, returns a ``RawStruct`` over a
    struct field's slice and a tuple (a raw vector for fixed-point and
    complex elements) for a vector field; ``==`` and ``repr`` agree with the
    dict form, and it is a read-only :class:`~collections.abc.Mapping`.  It
    is immutable and pickles.  The link codec, the register stores and the
    fast kernels pass it along unchanged; fast kernels read its raws through
    :meth:`StructT.accessor`, never through item access.
    """

    __slots__ = ("ty", "raws")

    def __init__(self, ty: "StructT", raws: Tuple[Any, ...]):
        _set_ty(self, ty)
        _set_raws(self, raws)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"RawStruct is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"RawStruct is immutable; cannot delete {name!r}")

    def __getitem__(self, field: str) -> Any:
        return self.ty._views[field](self.raws)

    def __contains__(self, field: object) -> bool:
        return field in self.ty._views

    def __iter__(self) -> Iterator[str]:
        return iter(self.ty._views)

    def __len__(self) -> int:
        return len(self.ty.fields)

    def __eq__(self, other: object):
        if other.__class__ is RawStruct and (other.ty is self.ty or other.ty == self.ty):
            return self.raws == other.raws
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # like the dict form

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return RawStruct, (self.ty, self.raws)


_set_ty = RawStruct.ty.__set__  # type: ignore[attr-defined]
_set_raws = RawStruct.raws.__set__  # type: ignore[attr-defined]

#: The leaf types of the raw struct form (one raw each).
_LEAF_TYPES = (FixPtT, IntT, UIntT, BitT, BoolT)


def _flat_leaves(ty: BCLType, offset: int, out: list) -> None:
    """Append ``(leaf type, bit offset)`` for every leaf of a value of ``ty``
    whose least significant bit sits at payload bit ``offset``, in raw
    struct order (vector elements expanded)."""
    if isinstance(ty, StructT):
        out.extend((leaf, offset + off) for leaf, off in ty.leaves)
    elif isinstance(ty, VectorT):
        width = ty.elem.bit_width()
        for k in range(ty.n):
            _flat_leaves(ty.elem, offset + k * width, out)
    elif isinstance(ty, ComplexT):
        out.append((ty.elem, offset + ty.elem.bit_width()))
        out.append((ty.elem, offset))
    elif isinstance(ty, _LEAF_TYPES):
        out.append((ty, offset))
    else:
        raise TypeCheckError(f"{ty!r} has no raw struct leaf form")


def _field_view(ty: BCLType, start: int, stop: int) -> Callable[[Tuple[Any, ...]], Any]:
    """Item access to a field whose leaves are ``raws[start:stop]``.

    FixPt leaves box through the module global ``from_wrapped_raw`` at call
    time, so a rebinding of it (a boxing counter) sees every box.
    """
    if isinstance(ty, FixPtT):
        ib, fb = ty.int_bits, ty.frac_bits
        return lambda raws: from_wrapped_raw(raws[start], ib, fb)
    if isinstance(ty, _LEAF_TYPES):
        return operator.itemgetter(start)
    if isinstance(ty, StructT):
        return lambda raws: RawStruct(ty, raws[start:stop])
    if isinstance(ty, ComplexT):
        ib, fb = ty.elem.int_bits, ty.elem.frac_bits
        return lambda raws: FixComplex(
            from_wrapped_raw(raws[start], ib, fb), from_wrapped_raw(raws[start + 1], ib, fb)
        )
    assert isinstance(ty, VectorT)
    elem = ty.elem
    if isinstance(elem, FixPtT):
        ib, fb = elem.int_bits, elem.frac_bits
        return lambda raws: RawFixVector(raws[start:stop], ib, fb)
    if isinstance(elem, ComplexT):
        ib, fb = elem.elem.int_bits, elem.elem.frac_bits
        return lambda raws: RawComplexVector(
            raws[start:stop:2], raws[start + 1 : stop : 2], ib, fb
        )
    size = (stop - start) // ty.n
    views = tuple(
        _field_view(elem, start + k * size, start + (k + 1) * size) for k in range(ty.n)
    )
    return lambda raws: tuple([view(raws) for view in views])


class StructT(BCLType):
    """A named product type with ordered fields (``struct { ... }``).

    The first declared field occupies the most significant bits, matching
    the struct packing of BSV and the canonical layout generated for the
    C++ side.  Values are :class:`RawStruct` (what :meth:`unpack` returns)
    or plain dictionaries keyed by field name; :meth:`pack` accepts both.

    The leaf table :attr:`leaves` lists every leaf as ``(leaf type, bit
    offset)`` in raw struct order -- the one derivation of the leaf
    positions that :meth:`pack`, :meth:`unpack` and the link codec
    (:func:`repro.platform.marshal._struct_codec`) share; :meth:`accessor`
    reads one field's raws in O(1).
    """

    def __init__(self, name: str, fields: Sequence[Tuple[str, BCLType]]):
        if not fields:
            raise TypeCheckError(f"struct {name} must have at least one field")
        names = [f for f, _ in fields]
        if len(set(names)) != len(names):
            raise TypeCheckError(f"struct {name} has duplicate field names")
        self.name = name
        self.fields: Tuple[Tuple[str, BCLType], ...] = tuple(fields)
        self._bit_width_cache = sum(t.bit_width() for _, t in self.fields)
        leaves: list = []
        #: Field name -> item-access view over the raws.
        self._views: Dict[str, Callable[[Tuple[Any, ...]], Any]] = {}
        #: Field path (dotted into nested structs) -> ``(start, stop, is leaf)``.
        self._ranges: Dict[str, Tuple[int, int, bool]] = {}
        offset = self._bit_width_cache
        for fname, fty in self.fields:
            offset -= fty.bit_width()
            start = len(leaves)
            _flat_leaves(fty, offset, leaves)
            stop = len(leaves)
            self._views[fname] = _field_view(fty, start, stop)
            self._ranges[fname] = (start, stop, isinstance(fty, _LEAF_TYPES))
            if isinstance(fty, StructT):
                for sub, (a, b, is_leaf) in fty._ranges.items():
                    self._ranges[f"{fname}.{sub}"] = (start + a, start + b, is_leaf)
        self.leaves: Tuple[Tuple[BCLType, int], ...] = tuple(leaves)
        #: Per leaf: ``(bit offset, mask, sign bit or 0, is Bool)``.
        self._bits = tuple(
            (
                off,
                (1 << leaf.bit_width()) - 1,
                1 << (leaf.bit_width() - 1) if isinstance(leaf, (FixPtT, IntT)) else 0,
                isinstance(leaf, BoolT),
            )
            for leaf, off in leaves
        )

    def field_type(self, field: str) -> BCLType:
        for f, t in self.fields:
            if f == field:
                return t
        raise TypeCheckError(f"struct {self.name} has no field {field!r}")

    def bit_width(self) -> int:
        return self._bit_width_cache

    def pack(self, value: Any) -> int:
        if value.__class__ is RawStruct and (value.ty is self or value.ty == self):
            bits = 0
            for raw, (off, mask, _, _) in zip(value.raws, self._bits):
                bits |= (raw & mask) << off
            return bits
        if not isinstance(value, Mapping):
            raise TypeCheckError(f"{self!r} expects a mapping, got {value!r}")
        missing = [f for f, _ in self.fields if f not in value]
        if missing:
            raise TypeCheckError(f"struct {self.name} value missing fields {missing}")
        if len(value) != len(self.fields):
            extra = [f for f in value if f not in self._views]
            raise TypeCheckError(f"struct {self.name} value has unexpected fields {extra}")
        bits = 0
        for fname, ftype in self.fields:
            bits = (bits << ftype.bit_width()) | ftype.pack(value[fname])
        return bits

    def unpack(self, bits: int) -> RawStruct:
        raws = []
        for off, mask, sign, is_bool in self._bits:
            leaf = (bits >> off) & mask
            raws.append(leaf == 1 if is_bool else (leaf ^ sign) - sign)
        return RawStruct(self, tuple(raws))

    def raw(self, value: Any) -> RawStruct:
        """``value`` in the raw struct form: itself if it already is one of
        this type, else its canonical conversion -- packed first, so an
        illegal value raises :meth:`pack`'s error."""
        if value.__class__ is RawStruct:
            if value.ty is self:
                return value
            if value.ty == self:
                return RawStruct(self, value.raws)
        return self.unpack(self.pack(value))

    def accessor(self, field: str) -> Callable[[Any], Any]:
        """An O(1) reader of one field's raws.

        ``field`` is a field name, or a dotted path into nested struct
        fields (``"ray.origin"``).  The reader maps a value of this type to
        the field's raw -- a leaf field -- or its tuple of leaf raws (raw
        struct order).  A :class:`RawStruct` of this type is read in place;
        any other value is converted through :meth:`raw` first.
        """
        try:
            start, stop, is_leaf = self._ranges[field]
        except KeyError:
            raise TypeCheckError(f"struct {self.name} has no field {field!r}") from None
        ty, to_raw = self, self.raw
        if is_leaf:

            def read_leaf(value: Any) -> Any:
                if value.__class__ is not RawStruct or value.ty is not ty:
                    value = to_raw(value)
                return value.raws[start]

            return read_leaf

        def read_slice(value: Any) -> Tuple[Any, ...]:
            if value.__class__ is not RawStruct or value.ty is not ty:
                value = to_raw(value)
            return value.raws[start:stop]

        return read_slice

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

    def __reduce__(self):
        # The leaf table holds closures; rebuild it from the declaration.
        return StructT, (self.name, self.fields)

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
