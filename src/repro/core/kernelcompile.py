"""The kernel compiler: backend selection and caching for foreign kernels.

The *machinery* around the foreign kernels (rule bodies, transport,
marshaling) runs as specialised generated code next to an interpreted
oracle.  This module extends the same discipline down into the kernels
themselves:

* ``oracle`` -- the original object-based kernel implementations, kept
  verbatim (``FixedPoint``/``FixComplex`` arithmetic element by element).
  This is the semantic reference every fast path is tested against.
* ``python`` -- batch loops over flat raw two's-complement ints: a kernel
  invocation reads its inputs' raw ints (in O(1) from the raw vector form,
  :func:`~repro.core.fixedpoint.fixed_vector_raws`), computes in plain-int
  arithmetic (the branchless two's-complement wrap inlined after every
  operation) and returns a raw vector.
* ``numpy`` -- the same raw-integer computation vectorised over contiguous
  int64 arrays, a complex vector read as one flat ``re + im`` array.
  Optional: used only when NumPy is importable (and not disabled via
  ``REPRO_NO_NUMPY=1``), and only for fixed-point formats of at most
  :data:`NUMPY_MAX_TOTAL_BITS` total bits, where an int64 product cannot
  overflow.  Wider formats silently fall back to the ``python`` backend.

The invariant is the one rules and transport already obey: every backend
produces *bit-identical* results, so a ``CosimResult`` never depends on
which backend ran.

Selection: ``set_kernel_backend()`` / ``kernel_backend_override()``
(``auto`` -- the default -- resolves to ``numpy`` when available, else
``python``).

The module also hosts the memoised pure-kernel result cache.  ROADMAP
documents that foreign kernels are assumed pure (hardware engines already
re-evaluate them freely); this cache exploits exactly that assumption,
keyed by the kernel name, its format parameters and the flat raw input
tuple.  Only kernels returning immutable values may use it -- cached
results are shared between hits.  ``set_kernel_cache(False)`` (or
``kernel_cache_override(False)``) disables it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


if _env_flag("REPRO_NO_NUMPY"):
    np = None  # type: ignore[assignment]
else:
    try:
        import numpy as np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        np = None  # type: ignore[assignment]

#: Whether the NumPy backend is available in this process.
HAVE_NUMPY = np is not None

#: Widest fixed-point format (total bits) the NumPy backend accepts: with
#: 32-bit values an int64 product is at most 2**62, so no intermediate of
#: the wrap-after-every-op sequence can overflow, and the wraps' shift
#: counts ``64 - total`` and ``64 - total - frac_bits`` stay in 0..63.
#: Wider formats use the pure-Python raw path.
NUMPY_MAX_TOTAL_BITS = 32

#: The selectable kernel backends (``auto`` additionally accepted by
#: :func:`set_kernel_backend`).
KERNEL_BACKENDS = ("oracle", "python", "numpy")


def _resolve(name: str) -> str:
    if name == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    return name


_backend = _resolve("auto")

#: Monotonic selection stamp: bumped by every (successful) backend change so
#: hoisted per-kernel bindings (:func:`bind_effective_backend`) know when
#: their cached choice is stale without re-resolving on every invocation.
_generation = 0


def kernel_backend() -> str:
    """The resolved kernel backend: ``oracle``, ``python`` or ``numpy``."""
    return _backend


def set_kernel_backend(name: str) -> str:
    """Select the kernel backend; returns the previously resolved backend.

    ``auto`` re-resolves to ``numpy`` when available, else ``python``.
    Requesting ``numpy`` without NumPy raises.  Every call (including via
    :func:`kernel_backend_override`) bumps the selection generation, which
    invalidates all bindings made by :func:`bind_effective_backend`.
    """
    global _backend, _generation
    name = name.strip().lower()
    if name not in KERNEL_BACKENDS + ("auto",):
        raise ValueError(f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS + ('auto',)}")
    if name == "numpy" and not HAVE_NUMPY:
        raise ValueError("NumPy kernel backend requested but NumPy is not importable")
    previous = _backend
    _backend = _resolve(name)
    _generation += 1
    return previous


@contextmanager
def kernel_backend_override(name: str) -> Iterator[str]:
    """Context manager: run with a specific kernel backend, then restore."""
    previous = set_kernel_backend(name)
    try:
        yield _backend
    finally:
        set_kernel_backend(previous)


def effective_backend(total_bits: int) -> str:
    """The backend a kernel over a ``total_bits``-wide format should run.

    Demotes ``numpy`` to ``python`` for formats wider than
    :data:`NUMPY_MAX_TOTAL_BITS` (int64 overflow would break bit-exactness).
    """
    backend = _backend
    if backend == "numpy" and total_bits > NUMPY_MAX_TOTAL_BITS:
        return "python"
    return backend


def bind_effective_backend(total_bits: int) -> Callable[[], str]:
    """Bind :func:`effective_backend`'s choice once, at elaboration time.

    Returns a zero-argument callable for the per-invocation hot path: it
    re-runs the width demotion logic only when the selection generation has
    moved (``set_kernel_backend`` / ``kernel_backend_override``), otherwise
    it returns the cached choice.  Dispatching kernels call the binding
    instead of re-resolving the backend on every invocation.
    """
    choice = [_generation, effective_backend(total_bits)]

    def bound() -> str:
        gen = _generation
        if choice[0] != gen:
            choice[0] = gen
            choice[1] = effective_backend(total_bits)
        return choice[1]

    return bound


# --------------------------------------------------------------------------
# memoised pure-kernel result cache
# --------------------------------------------------------------------------

#: FIFO-evicted; a bound this size covers every distinct frame of the
#: benchmark workloads while keeping worst-case memory flat.
_CACHE_LIMIT = 8192

_cache_enabled = True
_cache: Dict[Tuple[Any, ...], Any] = {}
_hits = 0
_misses = 0


def set_kernel_cache(enabled: bool) -> bool:
    """Enable/disable the kernel result cache; returns the previous setting.

    Disabling clears the cache so a later re-enable starts cold.
    """
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = bool(enabled)
    if not _cache_enabled:
        _cache.clear()
    return previous


@contextmanager
def kernel_cache_override(enabled: bool) -> Iterator[None]:
    """Context manager: run with the cache forced on/off, then restore."""
    previous = set_kernel_cache(enabled)
    try:
        yield
    finally:
        set_kernel_cache(previous)


def clear_kernel_cache() -> None:
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


def kernel_cache_info() -> Dict[str, Any]:
    return {
        "enabled": _cache_enabled,
        "entries": len(_cache),
        "limit": _CACHE_LIMIT,
        "hits": _hits,
        "misses": _misses,
    }


def cache_get(key: Tuple[Any, ...]) -> Optional[Any]:
    """Cached kernel result for ``key``, or ``None``.

    Kernel results are never ``None``, so ``None`` unambiguously means a
    miss (or a disabled cache).  Keys must include the kernel name, its
    scalar/format parameters and the flat raw input tuple -- nothing that
    compares equal across semantically different invocations.
    """
    global _hits, _misses
    if not _cache_enabled:
        return None
    result = _cache.get(key)
    if result is None:
        _misses += 1
    else:
        _hits += 1
    return result


def cache_put(key: Tuple[Any, ...], value: Any) -> Any:
    """Store a kernel result (only immutable values may be cached) and return it."""
    if _cache_enabled:
        if len(_cache) >= _CACHE_LIMIT:
            _cache.pop(next(iter(_cache)))
        _cache[key] = value
    return value


# --------------------------------------------------------------------------
# NumPy kernel tables
# --------------------------------------------------------------------------
#
# The NumPy kernels run each FixedPoint operation as one in-place ufunc over
# a contiguous int64 array, followed by the wrap as two shifts: << (64 -
# total) on a uint64 view of it (defined for every bit pattern, where a
# signed left shift is not), then >> (64 - total) on the int64 array, an
# arithmetic shift that sign-extends bit total - 1.  A >> frac_bits and its
# wrap are one such pair with the left count 64 - total - frac_bits: both
# keep bits frac_bits .. frac_bits + total - 1 of the two's complement
# product and sign-extend the top one.  Their tables and gather plans are
# cached read-only arrays, their constants cached 0-d arrays.


def np_table(raws: Any) -> "np.ndarray":
    """A read-only int64 array over a raw tuple, a nested tuple of equal-length
    raw tuples (one row each) or an int64 array, for cached tables and plans."""
    arr = np.asarray(raws, dtype=np.int64)
    arr.flags.writeable = False
    return arr
