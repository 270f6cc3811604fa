"""Fixed-point compute kernels of the Vorbis back-end.

These are the bodies of the functions the paper's rules call
(``imdctPreLo``/``imdctPreHi``, ``applyRadix``, ``imdctPost``, the windowing
function), implemented bit-exactly over :class:`~repro.core.fixedpoint.FixedPoint`
so that every partition of the design produces the same PCM samples.

Each kernel exists in the backends of the kernel dataplane
(:mod:`repro.core.kernelcompile`):

* the ``*_oracle`` functions are the original object-based implementations,
  kept verbatim as the semantic reference;
* the ``_*_raw`` functions are the batch raw-integer lowering -- inputs are
  read as flat raw tuples (in O(1) from the raw vector form the transport
  delivers, see :func:`~repro.core.fixedpoint.fixed_vector_raws`), the
  butterflies/rotations run in plain-int arithmetic that wraps after every
  operation exactly like ``FixedPoint``, and results leave as raw vectors
  (:func:`~repro.core.fixedpoint.box_fixed_vector`) without boxing an element;
* the ``_*_np`` functions vectorise the same raw computation over int64
  arrays (formats up to 32 total bits; wider formats fall back to raw),
  and no ufunc touches a strided view.  A kernel converts its input once,
  to one flat array (``re + im`` for a complex vector), and leaves through
  one ``take`` or ``tolist``.  A radix stage gathers its input into one
  contiguous ``(a/b half, re/im, pair)`` array by a cached plan
  (:func:`_ifft_plan`), so each butterfly phase is one ufunc over every
  pair at once.  Constants are cached 0-d arrays (a Python int operand
  costs more per call).  Every ufunc that stands for a ``FixedPoint``
  operation is followed by its wrap, two in-place shifts:
  ``<<= 64 - total`` on a ``uint64`` view, then ``>>= 64 - total`` on the
  int64 array, which sign-extends bit ``total - 1``.  A ``>> frac_bits``
  and its wrap are the one pair ``<<= 64 - total - frac_bits``,
  ``>>= 64 - total``.  As in the raw loops, no wrap is dropped because a
  value is known to be small, so one path serves every format.

The public kernel names dispatch on :func:`~repro.core.kernelcompile.effective_backend`
and, on the fast backends, memoise results through the pure-kernel cache
(all Vorbis kernels return immutable values -- raw vectors, or tuples of
them -- so sharing cached results is safe).  Every backend is bit-identical;
the differential tests in ``tests/test_kernels.py`` enforce it.

The twiddle/pre/post/window tables are materialised once per
``(size, format)`` as flat raw-int tuples; the object tables of the oracle
and the read-only arrays and plans of the NumPy backend are derived from
those same raw tuples, so no backend can disagree about a table entry.
Every table, constant and plan is built on first use, in an
``lru_cache``: importing this module allocates none.

Each kernel also has a *cost* entry in :func:`kernel_costs`: the CPU-cycle
cost of its software implementation and the FPGA-cycle latency of its
hardware implementation.  Those annotations are what the co-simulator's cost
model consumes; they are calibrated against the relative magnitudes one
obtains from the operation counts below (a complex multiply-accumulate per
element in software, element-per-cycle datapaths in hardware) and are
deliberately *independent* of which kernel backend executes -- the backends
model the same machine.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, List, Tuple, Union

from repro.core import kernelcompile as kc
from repro.core.fixedpoint import (
    FixComplex,
    FixedPoint,
    RawComplexVector,
    RawFixVector,
    box_complex_vector,
    box_fixed_vector,
    complex_vector_raws,
    fixed_vector_raws,
    raw_from_float,
)

#: A ``Vector#(FixPt)`` / ``Vector#(Complex#(FixPt))`` value: the raw form
#: the fast backends and the transport produce, or a tuple of boxed elements.
FixVec = Union[RawFixVector, Tuple[FixedPoint, ...]]
CplxVec = Union[RawComplexVector, Tuple[FixComplex, ...]]

RawVec = Tuple[int, ...]


# Per-format backend bindings: the choice (oracle/python/numpy after width
# demotion) is resolved once and revalidated only when the selection
# generation moves (``set_kernel_backend`` / ``kernel_backend_override``),
# keeping the string resolution out of the per-invocation hot path.
_backend_bindings: Dict[int, Callable[[], str]] = {}


def _backend_for(total_bits: int) -> str:
    try:
        bound = _backend_bindings[total_bits]
    except KeyError:
        bound = _backend_bindings[total_bits] = kc.bind_effective_backend(total_bits)
    return bound()


# --------------------------------------------------------------------------
# table construction (cached per format, shared by every backend)
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _twiddles_raw(points: int, int_bits: int, frac_bits: int) -> Tuple[RawVec, RawVec]:
    """Raw twiddle factors W_k = exp(+2*pi*i*k/points) as flat (re, im) tuples."""
    total = int_bits + frac_bits
    re = []
    im = []
    for k in range(points // 2):
        re.append(raw_from_float(math.cos(2.0 * math.pi * k / points), frac_bits, total))
        im.append(raw_from_float(math.sin(2.0 * math.pi * k / points), frac_bits, total))
    return tuple(re), tuple(im)


@lru_cache(maxsize=None)
def _pre_tables_raw(
    n: int, int_bits: int, frac_bits: int
) -> Tuple[RawVec, RawVec, RawVec, RawVec]:
    """Raw IMDCT pre-multiply tables as flat (lo_re, lo_im, hi_re, hi_im) tuples."""
    total = int_bits + frac_bits
    lo_re = tuple(
        raw_from_float(math.cos(math.pi * (i + 0.25) / n), frac_bits, total) for i in range(n)
    )
    lo_im = tuple(
        raw_from_float(-math.sin(math.pi * (i + 0.25) / n), frac_bits, total) for i in range(n)
    )
    hi_re = tuple(
        raw_from_float(math.sin(math.pi * (i + 0.75) / n), frac_bits, total) for i in range(n)
    )
    hi_im = tuple(
        raw_from_float(math.cos(math.pi * (i + 0.75) / n), frac_bits, total) for i in range(n)
    )
    return lo_re, lo_im, hi_re, hi_im


@lru_cache(maxsize=None)
def _post_table_raw(points: int, int_bits: int, frac_bits: int) -> Tuple[RawVec, RawVec]:
    """Raw IMDCT post-rotation table as flat (re, im) tuples."""
    total = int_bits + frac_bits
    re = tuple(
        raw_from_float(math.cos(math.pi * (i + 0.5) / (2 * points)), frac_bits, total)
        for i in range(points)
    )
    im = tuple(
        raw_from_float(-math.sin(math.pi * (i + 0.5) / (2 * points)), frac_bits, total)
        for i in range(points)
    )
    return re, im


@lru_cache(maxsize=None)
def _window_table_raw(points: int, int_bits: int, frac_bits: int) -> RawVec:
    """Raw Vorbis-style sine window over ``points`` samples."""
    total = int_bits + frac_bits
    return tuple(
        raw_from_float(math.sin(math.pi * (i + 0.5) / points), frac_bits, total)
        for i in range(points)
    )


@lru_cache(maxsize=None)
def _twiddles(points: int, int_bits: int, frac_bits: int) -> CplxVec:
    """Inverse-transform twiddle factors (boxed view of the raw table)."""
    re, im = _twiddles_raw(points, int_bits, frac_bits)
    return tuple(box_complex_vector(re, im, int_bits, frac_bits))


@lru_cache(maxsize=None)
def _pre_tables(n: int, int_bits: int, frac_bits: int) -> Tuple[CplxVec, CplxVec]:
    """The two IMDCT pre-multiply tables (preTable1 / preTable2 of Section 4.1)."""
    lo_re, lo_im, hi_re, hi_im = _pre_tables_raw(n, int_bits, frac_bits)
    return (
        tuple(box_complex_vector(lo_re, lo_im, int_bits, frac_bits)),
        tuple(box_complex_vector(hi_re, hi_im, int_bits, frac_bits)),
    )


@lru_cache(maxsize=None)
def _post_table(points: int, int_bits: int, frac_bits: int) -> CplxVec:
    """The IMDCT post-rotation table applied after the IFFT."""
    re, im = _post_table_raw(points, int_bits, frac_bits)
    return tuple(box_complex_vector(re, im, int_bits, frac_bits))


@lru_cache(maxsize=None)
def _window_table(points: int, int_bits: int, frac_bits: int) -> FixVec:
    """The Vorbis-style sine window over ``points`` samples (boxed view)."""
    return tuple(
        box_fixed_vector(_window_table_raw(points, int_bits, frac_bits), int_bits, frac_bits)
    )


@lru_cache(maxsize=None)
def _np_consts(int_bits: int, frac_bits: int):
    """A format's 0-d constants: the raw 0.5, the left and the right shift
    count of a wrap (``64 - total``, the left one for a ``uint64`` view)
    and the left count of a ``>> frac_bits`` fused with its wrap
    (``64 - total - frac_bits``)."""
    np = kc.np
    total = int_bits + frac_bits
    return (
        np.array(raw_from_float(0.5, frac_bits, total), dtype=np.int64),
        np.array(64 - total, dtype=np.uint64),
        np.array(64 - total - frac_bits, dtype=np.uint64),
        np.array(64 - total, dtype=np.int64),
    )


@lru_cache(maxsize=None)
def _ifft_plan(points: int, first: int, last: int, int_bits: int, frac_bits: int):
    """The gathers and twiddles of radix stages ``first..last-1``.

    Stage ``s`` pairs element ``a = block * 2 * half + j`` with ``a + half``
    (``half = points >> (s + 1)``) as pair ``p = block * half + j``.  Its
    gather reads each pair's two elements, real and imaginary part, from
    where the flat ``re + im`` input or the previous stage's ``(sum/diff,
    re/im, pair)`` output holds them; one more gather puts the last output
    in natural order.  Its twiddles are ``((W.re, W.im), (W.im, W.re))``
    per pair, ``W`` being twiddle ``j << s``.
    """
    np = kc.np
    pairs = points // 2
    tw = np.array(_twiddles_raw(points, int_bits, frac_bits), dtype=np.int64)
    p = np.arange(pairs)
    rows = np.arange(2)[:, None]
    # Where the array the next gather reads holds each element's real part,
    # and how far past it its imaginary part is.
    where, stride = np.arange(points), points
    gathers, twiddles = [], []
    for stage in range(first, last):
        half = points >> (stage + 1)
        elements = p // half * half + p + rows * half  # (a/b half, pair)
        gathers.append(kc.np_table(where[elements][:, None] + rows * stride))
        w = tw[:, p % half << stage]
        twiddles.append(kc.np_table((w, w[::-1])))
        where = np.empty(points, dtype=np.int64)
        where[elements] = rows * 2 * pairs + p
        stride = pairs
    gathers.append(kc.np_table(where + rows * stride))
    return gathers, twiddles


@lru_cache(maxsize=None)
def _pre_plan(n: int, int_bits: int, frac_bits: int):
    """The frame's gather onto the pre-multiply tables, and the tables flat
    in ``(re/im, low/high, i)`` order, so a product is the ``(2, 2n)`` output."""
    lo_re, lo_im, hi_re, hi_im = _pre_tables_raw(n, int_bits, frac_bits)
    return kc.np_table(kc.np.arange(4 * n) % n), kc.np_table(lo_re + hi_re + lo_im + hi_im)


@lru_cache(maxsize=None)
def _post_plan(points: int, int_bits: int, frac_bits: int):
    """The post-rotation table flat in ``(re/im, i)`` order, and the bit
    reversal (an involution) as a gather."""
    re, im = _post_table_raw(points, int_bits, frac_bits)
    return kc.np_table(re + im), kc.np_table(_bit_reverse_table(points))


@lru_cache(maxsize=None)
def _window_flat(points: int, int_bits: int, frac_bits: int):
    """The window flat in ``(previous, current)`` order: its second half
    weighs the previous frame's half, its first half the current frame's."""
    window = _window_table_raw(points, int_bits, frac_bits)
    n = points // 2
    return kc.np_table(window[n:] + window[:n])


def bit_reverse(i: int, bits: int) -> int:
    """Bit-reversal of an index, as used by the post step (``bitReverse`` in the paper)."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


@lru_cache(maxsize=None)
def _bit_reverse_table(points: int) -> RawVec:
    """Precomputed bit-reversed index of every position (fast-backend helper)."""
    bits = points.bit_length() - 1
    return tuple(bit_reverse(i, bits) for i in range(points))


# --------------------------------------------------------------------------
# synthetic front end
# --------------------------------------------------------------------------


def gen_frame_oracle(
    index: int, n: int, seed: int = 2012, int_bits: int = 8, frac_bits: int = 24
) -> FixVec:
    """Generate one synthetic spectral frame (substitute for real Vorbis bitstreams).

    A small multiplicative congruential generator produces deterministic
    spectral lines in ``(-0.9, 0.9)``; content does not affect control flow,
    only the PCM values the correctness checks compare.
    """
    state = (seed * 2654435761 + index * 40503 + 12345) & 0xFFFFFFFF
    values = []
    for _ in range(n):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        values.append(((state / float(0x7FFFFFFF)) * 1.8) - 0.9)
    return tuple(FixedPoint.from_float(v, int_bits, frac_bits) for v in values)


def _gen_frame_raw(state: int, n: int, int_bits: int, frac_bits: int) -> List[int]:
    """The oracle's loop over raw integers, with :func:`raw_from_float`'s
    rounding and wrap inlined."""
    total = int_bits + frac_bits
    mask = (1 << total) - 1
    sign = 1 << (total - 1)
    one = 1 << frac_bits
    raws = []
    append = raws.append
    for _ in range(n):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        append(((round((((state / float(0x7FFFFFFF)) * 1.8) - 0.9) * one) & mask) ^ sign) - sign)
    return raws


@lru_cache(maxsize=None)
def _lcg_plan(n: int, frac_bits: int):
    """The generator's closed form over ``n`` steps, and the constants of
    the quantisation that follows.

    After step ``k`` the state is ``(A_k * s0 + C_k) mod 2**31``, where
    ``s0`` is the seed state mod ``2**31``, ``A_k = a**k`` and ``C_k = c *
    (1 + a + ... + a**(k-1))``, both mod ``2**31``, for the multiplier
    ``a`` and increment ``c`` of the loop; every ``A_k * s0`` is below
    ``2**62``, so no int64 product overflows.  Returns the ``A`` and
    ``C`` tables, then 0-d constants: the state mask and the float
    operands in the order the loop applies them (``/ (2**31 - 1)``,
    ``* 1.8``, ``- 0.9``, ``* 2**frac_bits``).
    """
    np = kc.np
    mults, adds = [], []
    a, c = 1, 0
    for _ in range(n):
        a = (1103515245 * a) & 0x7FFFFFFF
        c = (1103515245 * c + 12345) & 0x7FFFFFFF
        mults.append(a)
        adds.append(c)
    floats = (float(0x7FFFFFFF), 1.8, 0.9, float(1 << frac_bits))
    tables = (kc.np_table(mults), kc.np_table(adds), kc.np_table(0x7FFFFFFF))
    return tables + tuple(np.array(f) for f in floats)


def _gen_frame_np(state: int, n: int, int_bits: int, frac_bits: int) -> List[int]:
    """The loop in closed form (:func:`_lcg_plan`): the same float
    operations in the same order, then ``rint`` (half to even, like
    ``round``) and the two-shift wrap."""
    np = kc.np
    mults, adds, mask, span, scale, shift, one = _lcg_plan(n, frac_bits)
    _, up, _, down = _np_consts(int_bits, frac_bits)
    s = mults * (state & 0x7FFFFFFF)
    s += adds
    s &= mask
    x = s / span
    x *= scale
    x -= shift
    x *= one
    np.rint(x, out=x)
    v = x.astype(np.int64)
    vu = v.view(np.uint64)
    vu <<= up
    v >>= down
    return v.tolist()


def gen_frame(index: int, n: int, seed: int = 2012, int_bits: int = 8, frac_bits: int = 24) -> FixVec:
    """Generate one synthetic spectral frame (dispatching front end).

    The ``python`` backend runs the generator's loop over raw integers;
    the ``numpy`` backend computes every state at once from the loop's
    closed form (:func:`_gen_frame_np`).  Both use the result cache (the
    scalar arguments are the whole input, making this the cheapest key in
    the cache).
    """
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        return gen_frame_oracle(index, n, seed, int_bits, frac_bits)
    key = ("gen_frame", index, n, seed, int_bits, frac_bits)
    hit = kc.cache_get(key)
    if hit is not None:
        return hit
    state = (seed * 2654435761 + index * 40503 + 12345) & 0xFFFFFFFF
    if backend == "numpy":
        raws = _gen_frame_np(state, n, int_bits, frac_bits)
    else:
        raws = _gen_frame_raw(state, n, int_bits, frac_bits)
    return kc.cache_put(key, box_fixed_vector(raws, int_bits, frac_bits))


def backend_input_oracle(frame: FixVec, int_bits: int = 8, frac_bits: int = 24) -> FixVec:
    """The back-end's ``input`` glue: apply the global gain before the IMDCT."""
    gain = FixedPoint.from_float(0.5, int_bits, frac_bits)
    return tuple(v * gain for v in frame)


def _backend_input_raw(raws: RawVec, int_bits: int, frac_bits: int) -> List[int]:
    total = int_bits + frac_bits
    mask = (1 << total) - 1
    sign = 1 << (total - 1)
    gain = raw_from_float(0.5, frac_bits, total)
    fb = frac_bits
    return [((((v * gain) >> fb) & mask) ^ sign) - sign for v in raws]


def _backend_input_np(raws: RawVec, int_bits: int, frac_bits: int) -> List[int]:
    np = kc.np
    gain, _, up_fb, down = _np_consts(int_bits, frac_bits)
    v = np.array(raws, dtype=np.int64)
    vu = v.view(np.uint64)
    v *= gain
    vu <<= up_fb
    v >>= down
    return v.tolist()


def backend_input(frame: FixVec, int_bits: int = 8, frac_bits: int = 24) -> FixVec:
    """The back-end's ``input`` glue (dispatching)."""
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        return backend_input_oracle(frame, int_bits, frac_bits)
    raws = fixed_vector_raws(frame)
    key = ("backend_input", int_bits, frac_bits, raws)
    hit = kc.cache_get(key)
    if hit is not None:
        return hit
    if backend == "numpy":
        out = _backend_input_np(raws, int_bits, frac_bits)
    else:
        out = _backend_input_raw(raws, int_bits, frac_bits)
    return kc.cache_put(key, box_fixed_vector(out, int_bits, frac_bits))


# --------------------------------------------------------------------------
# IMDCT / IFFT / window kernels
# --------------------------------------------------------------------------


def imdct_pre_oracle(frame: FixVec, int_bits: int = 8, frac_bits: int = 24) -> CplxVec:
    """IMDCT pre-multiply: n real spectral lines -> 2n complex IFFT inputs."""
    n = len(frame)
    lo, hi = _pre_tables(n, int_bits, frac_bits)
    out = [FixComplex.zero(int_bits, frac_bits)] * (2 * n)
    for i, value in enumerate(frame):
        out[i] = lo[i] * value
        out[n + i] = hi[i] * value
    return tuple(out)


def _imdct_pre_raw(
    raws: RawVec, int_bits: int, frac_bits: int
) -> Tuple[List[int], List[int]]:
    n = len(raws)
    lo_re, lo_im, hi_re, hi_im = _pre_tables_raw(n, int_bits, frac_bits)
    total = int_bits + frac_bits
    mask = (1 << total) - 1
    sign = 1 << (total - 1)
    fb = frac_bits
    out_re = [0] * (2 * n)
    out_im = [0] * (2 * n)
    for i in range(n):
        v = raws[i]
        out_re[i] = ((((lo_re[i] * v) >> fb) & mask) ^ sign) - sign
        out_im[i] = ((((lo_im[i] * v) >> fb) & mask) ^ sign) - sign
        out_re[n + i] = ((((hi_re[i] * v) >> fb) & mask) ^ sign) - sign
        out_im[n + i] = ((((hi_im[i] * v) >> fb) & mask) ^ sign) - sign
    return out_re, out_im


def _imdct_pre_np(raws: RawVec, int_bits: int, frac_bits: int) -> List[List[int]]:
    np = kc.np
    _, _, up_fb, down = _np_consts(int_bits, frac_bits)
    gather, table = _pre_plan(len(raws), int_bits, frac_bits)
    x = np.array(raws, dtype=np.int64).take(gather)
    xu = x.view(np.uint64)
    x *= table
    xu <<= up_fb
    x >>= down
    return x.reshape(2, -1).tolist()


def imdct_pre(frame: FixVec, int_bits: int = 8, frac_bits: int = 24) -> CplxVec:
    """IMDCT pre-multiply (dispatching)."""
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        return imdct_pre_oracle(frame, int_bits, frac_bits)
    raws = fixed_vector_raws(frame)
    key = ("imdct_pre", int_bits, frac_bits, raws)
    hit = kc.cache_get(key)
    if hit is not None:
        return hit
    if backend == "numpy":
        out_re, out_im = _imdct_pre_np(raws, int_bits, frac_bits)
    else:
        out_re, out_im = _imdct_pre_raw(raws, int_bits, frac_bits)
    return kc.cache_put(key, box_complex_vector(out_re, out_im, int_bits, frac_bits))


def ifft_radix_stage_oracle(
    stage: int, data: CplxVec, int_bits: int = 8, frac_bits: int = 24
) -> CplxVec:
    """Apply one radix-2 decimation-in-frequency stage of the IFFT.

    Stage 0 operates on the full span, the last stage on adjacent pairs.  Each
    stage scales by 1/2 so the complete transform carries the 1/N
    normalisation; the output of the final stage is in bit-reversed order,
    which the IMDCT post step undoes (exactly as the paper's ``bitReverse``).
    """
    points = len(data)
    twiddles = _twiddles(points, int_bits, frac_bits)
    half_fp = FixedPoint.from_float(0.5, int_bits, frac_bits)
    x = list(data)
    half = points >> (stage + 1)
    block = points >> stage
    for start in range(0, points, block):
        for j in range(half):
            a = x[start + j]
            b = x[start + j + half]
            twiddle = twiddles[j << stage]
            x[start + j] = (a + b) * half_fp
            x[start + j + half] = ((a - b) * half_fp) * twiddle
    return tuple(x)


def _ifft_stages_raw(
    first: int,
    last: int,
    re_in: RawVec,
    im_in: RawVec,
    int_bits: int,
    frac_bits: int,
) -> Tuple[List[int], List[int]]:
    """Radix stages ``first..last-1`` over raw re/im arrays (butterfly loop)."""
    points = len(re_in)
    tw_re, tw_im = _twiddles_raw(points, int_bits, frac_bits)
    total = int_bits + frac_bits
    mask = (1 << total) - 1
    sign = 1 << (total - 1)
    fb = frac_bits
    half_raw = raw_from_float(0.5, frac_bits, total)
    re = list(re_in)
    im = list(im_in)
    for stage in range(first, last):
        half = points >> (stage + 1)
        block = points >> stage
        step = 1 << stage
        for start in range(0, points, block):
            for j in range(half):
                ia = start + j
                ib = ia + half
                are = re[ia]
                aim = im[ia]
                bre = re[ib]
                bim = im[ib]
                twr = tw_re[j * step]
                twi = tw_im[j * step]
                # x[ia] = (a + b) * 0.5
                sre = (((are + bre) & mask) ^ sign) - sign
                sim = (((aim + bim) & mask) ^ sign) - sign
                re[ia] = ((((sre * half_raw) >> fb) & mask) ^ sign) - sign
                im[ia] = ((((sim * half_raw) >> fb) & mask) ^ sign) - sign
                # x[ib] = ((a - b) * 0.5) * W
                dre = (((are - bre) & mask) ^ sign) - sign
                dim = (((aim - bim) & mask) ^ sign) - sign
                dre = ((((dre * half_raw) >> fb) & mask) ^ sign) - sign
                dim = ((((dim * half_raw) >> fb) & mask) ^ sign) - sign
                rr = ((((dre * twr) >> fb) & mask) ^ sign) - sign
                ii = ((((dim * twi) >> fb) & mask) ^ sign) - sign
                ri = ((((dre * twi) >> fb) & mask) ^ sign) - sign
                ir = ((((dim * twr) >> fb) & mask) ^ sign) - sign
                re[ib] = (((rr - ii) & mask) ^ sign) - sign
                im[ib] = (((ri + ir) & mask) ^ sign) - sign
    return re, im


def _ifft_stages_np(
    first: int,
    last: int,
    re_in: RawVec,
    im_in: RawVec,
    int_bits: int,
    frac_bits: int,
) -> List[List[int]]:
    """Radix stages ``first..last-1``, every ufunc on a contiguous array.

    A stage gathers its input into one ``(a/b half, re/im, pair)`` array
    (:func:`_ifft_plan`) and writes the halves' sum, and their difference
    twice, into a new ``(sum/diff/diff, re/im, pair)`` array.  Wrapping and
    halving it take one ufunc per step; the four twiddle products are one
    multiply of the two difference rows, and the two combines are written
    into the first of them.  Every ``FixedPoint`` operation is followed by
    its wrap, exactly as in the butterfly loop of :func:`_ifft_stages_raw`.
    """
    np = kc.np
    half_raw, up, up_fb, down = _np_consts(int_bits, frac_bits)
    gathers, twiddles = _ifft_plan(len(re_in), first, last, int_bits, frac_bits)
    x = np.array(re_in + im_in, dtype=np.int64)
    for gather, tw in zip(gathers, twiddles):
        x = x.take(gather)
        a, b = x[0], x[1]
        x = np.empty((3,) + a.shape, dtype=np.int64)
        xu = x.view(np.uint64)
        # x[ia] = (a + b) * 0.5, and d = (a - b) * 0.5 twice.
        np.add(a, b, out=x[0])
        np.subtract(a, b, out=x[1])
        np.subtract(a, b, out=x[2])
        xu <<= up
        x >>= down
        x *= half_raw
        xu <<= up_fb
        x >>= down
        # x[ib] = d * W: products ((rr, ii), (ri, ir)), re = rr - ii, im = ri + ir.
        products = x[1:] * tw
        pu = products.view(np.uint64)
        pu <<= up_fb
        products >>= down
        d, du = x[1], xu[1]
        np.subtract(products[0, 0], products[0, 1], out=d[0])
        np.add(products[1, 0], products[1, 1], out=d[1])
        du <<= up
        d >>= down
    return x.take(gathers[-1]).tolist()


def _ifft_stages(
    first: int, last: int, data: CplxVec, int_bits: int, frac_bits: int, backend: str
) -> CplxVec:
    """Shared fast-backend path: read the raws, run stages, wrap the result, cache."""
    re, im = complex_vector_raws(data)
    key = ("ifft", first, last, int_bits, frac_bits, re, im)
    hit = kc.cache_get(key)
    if hit is not None:
        return hit
    if backend == "numpy":
        out_re, out_im = _ifft_stages_np(first, last, re, im, int_bits, frac_bits)
    else:
        out_re, out_im = _ifft_stages_raw(first, last, re, im, int_bits, frac_bits)
    return kc.cache_put(key, box_complex_vector(out_re, out_im, int_bits, frac_bits))


def ifft_rule_stage(
    rule_stage: int,
    data: CplxVec,
    stages_per_rule: int,
    int_bits: int = 8,
    frac_bits: int = 24,
) -> CplxVec:
    """Apply the radix stages belonging to pipeline stage ``rule_stage``.

    The paper's ``mkIFFTPipe`` has three pipeline stages; a 64-point radix-2
    transform has six radix stages, so each pipeline stage applies two
    (``applyRadix(stage, pos, x)`` grouped per rule).
    """
    points = len(data)
    total = points.bit_length() - 1
    first = rule_stage * stages_per_rule
    last = min(first + stages_per_rule, total)
    if last <= first:
        return data
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        out = data
        for stage in range(first, last):
            out = ifft_radix_stage_oracle(stage, out, int_bits, frac_bits)
        return out
    return _ifft_stages(first, last, data, int_bits, frac_bits, backend)


def ifft_full(data: CplxVec, int_bits: int = 8, frac_bits: int = 24) -> CplxVec:
    """The complete (unpipelined) IFFT: every radix stage in sequence.

    This is the body of ``mkIFFTComb``'s single ``doIFFT`` rule; output is in
    bit-reversed order like the staged version.
    """
    points = len(data)
    total = points.bit_length() - 1
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        out = data
        for stage in range(total):
            out = ifft_radix_stage_oracle(stage, out, int_bits, frac_bits)
        return out
    if total <= 0:
        return data
    return _ifft_stages(0, total, data, int_bits, frac_bits, backend)


def natural_order(data: CplxVec) -> CplxVec:
    """Undo the bit-reversed ordering produced by the DIF IFFT (test helper)."""
    points = len(data)
    bits = points.bit_length() - 1
    out = [data[0]] * points
    for i in range(points):
        out[bit_reverse(i, bits)] = data[i]
    return tuple(out)


def imdct_post_oracle(spectrum: CplxVec, int_bits: int = 8, frac_bits: int = 24) -> FixVec:
    """IMDCT post step: bit-reverse, post-rotate and take the real part."""
    points = len(spectrum)
    bits = points.bit_length() - 1
    post = _post_table(points, int_bits, frac_bits)
    out = [FixedPoint.zero(int_bits, frac_bits)] * points
    for i in range(points):
        rotated = spectrum[i] * post[i]
        out[bit_reverse(i, bits)] = rotated.real
    return tuple(out)


def _imdct_post_raw(re: RawVec, im: RawVec, int_bits: int, frac_bits: int) -> List[int]:
    points = len(re)
    p_re, p_im = _post_table_raw(points, int_bits, frac_bits)
    rev = _bit_reverse_table(points)
    total = int_bits + frac_bits
    mask = (1 << total) - 1
    sign = 1 << (total - 1)
    fb = frac_bits
    out = [0] * points
    for i in range(points):
        a = ((((re[i] * p_re[i]) >> fb) & mask) ^ sign) - sign
        b = ((((im[i] * p_im[i]) >> fb) & mask) ^ sign) - sign
        out[rev[i]] = (((a - b) & mask) ^ sign) - sign
    return out


def _imdct_post_np(re_in: RawVec, im_in: RawVec, int_bits: int, frac_bits: int) -> List[int]:
    np = kc.np
    points = len(re_in)
    _, up, up_fb, down = _np_consts(int_bits, frac_bits)
    table, reverse = _post_plan(points, int_bits, frac_bits)
    x = np.array(re_in + im_in, dtype=np.int64)
    xu = x.view(np.uint64)
    x *= table
    xu <<= up_fb
    x >>= down
    # The real part of the rotation, in the first half.
    rot, rotu = x[:points], xu[:points]
    rot -= x[points:]
    rotu <<= up
    rot >>= down
    return rot.take(reverse).tolist()


def imdct_post(spectrum: CplxVec, int_bits: int = 8, frac_bits: int = 24) -> FixVec:
    """IMDCT post step (dispatching)."""
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        return imdct_post_oracle(spectrum, int_bits, frac_bits)
    re, im = complex_vector_raws(spectrum)
    key = ("imdct_post", int_bits, frac_bits, re, im)
    hit = kc.cache_get(key)
    if hit is not None:
        return hit
    if backend == "numpy":
        out = _imdct_post_np(re, im, int_bits, frac_bits)
    else:
        out = _imdct_post_raw(re, im, int_bits, frac_bits)
    return kc.cache_put(key, box_fixed_vector(out, int_bits, frac_bits))


def window_overlap_oracle(
    previous: FixVec, current: FixVec, int_bits: int = 8, frac_bits: int = 24
) -> Tuple[FixVec, FixVec]:
    """Sliding-window overlap-add.

    ``previous`` is the retained second half of the previous frame (n
    samples); ``current`` is the 2n-sample IMDCT output of this frame.
    Returns ``(pcm, new_previous)`` where ``pcm`` has n samples.
    """
    n = len(previous)
    if len(current) != 2 * n:
        raise ValueError(f"window: expected {2 * n} current samples, got {len(current)}")
    window = _window_table(2 * n, int_bits, frac_bits)
    pcm = tuple(
        previous[i] * window[n + i] + current[i] * window[i] for i in range(n)
    )
    new_previous = tuple(current[n + i] for i in range(n))
    return pcm, new_previous


def _window_overlap_raw(
    prev: RawVec, cur: RawVec, int_bits: int, frac_bits: int
) -> List[int]:
    n = len(prev)
    window = _window_table_raw(2 * n, int_bits, frac_bits)
    total = int_bits + frac_bits
    mask = (1 << total) - 1
    sign = 1 << (total - 1)
    fb = frac_bits
    out = [0] * n
    for i in range(n):
        a = ((((prev[i] * window[n + i]) >> fb) & mask) ^ sign) - sign
        b = ((((cur[i] * window[i]) >> fb) & mask) ^ sign) - sign
        out[i] = (((a + b) & mask) ^ sign) - sign
    return out


def _window_overlap_np(prev: RawVec, cur: RawVec, int_bits: int, frac_bits: int) -> List[int]:
    np = kc.np
    n = len(prev)
    _, up, up_fb, down = _np_consts(int_bits, frac_bits)
    x = np.array(prev + cur[:n], dtype=np.int64)
    xu = x.view(np.uint64)
    x *= _window_flat(2 * n, int_bits, frac_bits)
    xu <<= up_fb
    x >>= down
    pcm, pcmu = x[:n], xu[:n]
    pcm += x[n:]
    pcmu <<= up
    pcm >>= down
    return pcm.tolist()


def window_overlap(
    previous: FixVec, current: FixVec, int_bits: int = 8, frac_bits: int = 24
) -> Tuple[FixVec, FixVec]:
    """Sliding-window overlap-add (dispatching)."""
    backend = _backend_for(int_bits + frac_bits)
    if backend == "oracle":
        return window_overlap_oracle(previous, current, int_bits, frac_bits)
    n = len(previous)
    if len(current) != 2 * n:
        raise ValueError(f"window: expected {2 * n} current samples, got {len(current)}")
    prev = fixed_vector_raws(previous)
    cur = fixed_vector_raws(current)
    key = ("window_overlap", int_bits, frac_bits, prev, cur)
    hit = kc.cache_get(key)
    if hit is not None:
        return hit
    if backend == "numpy":
        pcm_raws = _window_overlap_np(prev, cur, int_bits, frac_bits)
    else:
        pcm_raws = _window_overlap_raw(prev, cur, int_bits, frac_bits)
    pcm = box_fixed_vector(pcm_raws, int_bits, frac_bits)
    new_previous = RawFixVector(cur[n:], int_bits, frac_bits)
    return kc.cache_put(key, (pcm, new_previous))


def audio_checksum(pcm: FixVec, running: int) -> int:
    """Fold a PCM block into a running 32-bit checksum (the audio-device sink).

    The checksum stands in for the memory-mapped audio output; comparing it
    across partitions is the bit-exactness check of the latency-insensitive
    refinement claim.  Already raw-integer arithmetic, so it is its own fast
    path and has no per-backend variants: a raw vector folds its raws'
    bit patterns directly, a tuple of ``FixedPoint`` each sample's
    ``to_bits()``.
    """
    total = running
    if pcm.__class__ is RawFixVector:
        mask = (1 << (pcm.int_bits + pcm.frac_bits)) - 1
        for raw in pcm.raws:
            total = (total * 31 + (raw & mask)) & 0xFFFFFFFF
        return total
    for sample in pcm:
        total = (total * 31 + sample.to_bits()) & 0xFFFFFFFF
    return total


# --------------------------------------------------------------------------
# cost annotations
# --------------------------------------------------------------------------


def kernel_costs(n: int) -> Dict[str, Tuple[int, int]]:
    """``(sw_cpu_cycles, hw_fpga_cycles)`` per kernel for a frame size of ``n``.

    Software costs assume a scalar in-order embedded core (a handful of
    cycles per multiply-accumulate including loads/stores); hardware costs
    assume an element-per-cycle datapath, with the pipelined IFFT processing
    four butterflies per cycle per stage as in the paper's mkIFFTPipe
    discussion.
    """
    points = 2 * n
    return {
        "gen_frame": (12 * n + 16, 12 * n + 16),
        "backend_input": (8 * n + 16, n // 2),
        "imdct_pre": (12 * points + 32, points),
        "ifft_rule_stage": (8 * points + 38, points // 4),
        "imdct_post": (10 * points + 32, points),
        "window_overlap": (16 * n + 32, points),
        "audio_out": (8 * n + 16, 8 * n + 16),
    }
