"""Fixed-point vector math, primitives and intersection kernels for the ray tracer.

All values that can cross the HW/SW boundary are values of the
:class:`~repro.core.types.StructT` layouts declared in :func:`struct_types`,
so they marshal onto the channel without any translation layer -- the
single-representation discipline of Section 2.3.  The object-based kernels
here build them as dicts of :class:`~repro.core.fixedpoint.FixedPoint`
fields; the design's fast kernels build the raw struct form
(:class:`~repro.core.types.RawStruct`), whose leaf raws are exactly the
``(x, y, z)`` raw tuples the raw kernels below take.

The intersection kernels (axis-aligned box slab test, Möller–Trumbore
triangle test) are written over :class:`~repro.core.fixedpoint.FixedPoint`
so every partition computes bit-identical hit records.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fixedpoint import FixedPoint, raw_from_float
from repro.core.types import BoolT, FixPtT, StructT, UIntT, VectorT

Vec = Dict[str, FixedPoint]
Triangle = Dict[str, Vec]
Ray = Dict[str, object]
Hit = Dict[str, object]


# --------------------------------------------------------------------------
# BCL struct types (canonical representations for marshaling)
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def struct_types(int_bits: int = 16, frac_bits: int = 16, leaf_size: int = 4):
    """The struct types used by the ray tracer's synchronizers.

    Cached: every design of one format shares the type objects, so its raw
    structs match a layout's type by identity.  Callers must not mutate the
    returned dict.
    """
    fix = FixPtT(int_bits, frac_bits)
    vec3 = StructT("Vec3", [("x", fix), ("y", fix), ("z", fix)])
    triangle = StructT("Triangle", [("v0", vec3), ("v1", vec3), ("v2", vec3)])
    ray = StructT("Ray", [("origin", vec3), ("dir", vec3), ("pixel", UIntT(32))])
    hit = StructT(
        "Hit",
        [
            ("hit", BoolT()),
            ("t", fix),
            ("tri", UIntT(32)),
            ("pixel", UIntT(32)),
            ("shade", fix),
        ],
    )
    node = StructT(
        "BvhNode",
        [
            ("bbox_min", vec3),
            ("bbox_max", vec3),
            ("is_leaf", BoolT()),
            ("left", UIntT(16)),
            ("right", UIntT(16)),
            ("tri_start", UIntT(16)),
            ("tri_count", UIntT(16)),
        ],
    )
    leaf_req = StructT("LeafReq", [("start", UIntT(16)), ("count", UIntT(16))])
    mem_req = StructT("MemReq", [("index", UIntT(16))])
    color = StructT("Color", [("pixel", UIntT(32)), ("value", fix)])
    bundle = VectorT(leaf_size, triangle)
    leaf_data = StructT("LeafData", [("bundle", bundle), ("count", UIntT(16)), ("base", UIntT(16))])
    geom_req = StructT(
        "GeomReq",
        [("ray", ray), ("bundle", bundle), ("count", UIntT(16)), ("base", UIntT(16))],
    )
    return {
        "vec3": vec3,
        "triangle": triangle,
        "ray": ray,
        "hit": hit,
        "node": node,
        "leaf_req": leaf_req,
        "mem_req": mem_req,
        "color": color,
        "leaf_data": leaf_data,
        "geom_req": geom_req,
    }


# --------------------------------------------------------------------------
# vector helpers
# --------------------------------------------------------------------------


def fx(value: float, int_bits: int = 16, frac_bits: int = 16) -> FixedPoint:
    return FixedPoint.from_float(value, int_bits, frac_bits)


def vec(x: float, y: float, z: float, int_bits: int = 16, frac_bits: int = 16) -> Vec:
    return {"x": fx(x, int_bits, frac_bits), "y": fx(y, int_bits, frac_bits), "z": fx(z, int_bits, frac_bits)}


def v_add(a: Vec, b: Vec) -> Vec:
    return {"x": a["x"] + b["x"], "y": a["y"] + b["y"], "z": a["z"] + b["z"]}


def v_sub(a: Vec, b: Vec) -> Vec:
    return {"x": a["x"] - b["x"], "y": a["y"] - b["y"], "z": a["z"] - b["z"]}


def v_dot(a: Vec, b: Vec) -> FixedPoint:
    return a["x"] * b["x"] + a["y"] * b["y"] + a["z"] * b["z"]


def v_cross(a: Vec, b: Vec) -> Vec:
    return {
        "x": a["y"] * b["z"] - a["z"] * b["y"],
        "y": a["z"] * b["x"] - a["x"] * b["z"],
        "z": a["x"] * b["y"] - a["y"] * b["x"],
    }


def v_min(a: Vec, b: Vec) -> Vec:
    return {k: (a[k] if a[k] <= b[k] else b[k]) for k in ("x", "y", "z")}


def v_max(a: Vec, b: Vec) -> Vec:
    return {k: (a[k] if a[k] >= b[k] else b[k]) for k in ("x", "y", "z")}


# --------------------------------------------------------------------------
# intersection kernels
# --------------------------------------------------------------------------


def intersect_box(ray: Ray, bbox_min: Vec, bbox_max: Vec) -> bool:
    """Slab test of a ray against an axis-aligned box (conservative on edges)."""
    origin, direction = ray["origin"], ray["dir"]
    t_near = None
    t_far = None
    for axis in ("x", "y", "z"):
        o, d = origin[axis], direction[axis]
        lo, hi = bbox_min[axis], bbox_max[axis]
        if abs(d.to_float()) < 1e-5:
            if o < lo or o > hi:
                return False
            continue
        t0 = (lo - o) / d
        t1 = (hi - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_near = t0 if t_near is None or t0 > t_near else t_near
        t_far = t1 if t_far is None or t1 < t_far else t_far
    if t_near is None or t_far is None:
        return True
    zero = FixedPoint.zero(t_near.int_bits, t_near.frac_bits)
    return t_near <= t_far and t_far >= zero


def intersect_triangle(ray: Ray, triangle: Triangle) -> Optional[FixedPoint]:
    """Möller–Trumbore ray/triangle intersection; returns ``t`` or ``None``."""
    origin, direction = ray["origin"], ray["dir"]
    v0, v1, v2 = triangle["v0"], triangle["v1"], triangle["v2"]
    edge1 = v_sub(v1, v0)
    edge2 = v_sub(v2, v0)
    pvec = v_cross(direction, edge2)
    det = v_dot(edge1, pvec)
    if abs(det.to_float()) < 1e-4:
        return None
    inv_det = FixedPoint.from_float(1.0, det.int_bits, det.frac_bits) / det
    tvec = v_sub(origin, v0)
    u = v_dot(tvec, pvec) * inv_det
    zero = FixedPoint.zero(det.int_bits, det.frac_bits)
    one = FixedPoint.from_float(1.0, det.int_bits, det.frac_bits)
    if u < zero or u > one:
        return None
    qvec = v_cross(tvec, edge1)
    v = v_dot(direction, qvec) * inv_det
    if v < zero or (u + v) > one:
        return None
    t = v_dot(edge2, qvec) * inv_det
    if t <= FixedPoint.from_float(1e-3, det.int_bits, det.frac_bits):
        return None
    return t


# --------------------------------------------------------------------------
# raw-integer intersection kernels (the kernel-dataplane fast path)
# --------------------------------------------------------------------------
#
# Raw lowerings of the kernels above, used by the traversal/geometry rules
# when the kernel backend is not ``oracle`` (see repro.core.kernelcompile).
# Vectors are flat (x, y, z) tuples of raw two's-complement ints; every
# operation wraps in exactly the order the FixedPoint originals do, so hit
# records are bit-identical across backends.  Leaf bundles hold at most a
# handful of triangles, so the win here is dropping per-op object boxing,
# not NumPy vectorisation -- these run identically under the ``python`` and
# ``numpy`` backends.

RawVec3 = Tuple[int, int, int]


def vec_raws(v: Vec) -> RawVec3:
    """Unbox a Vec3 dict into a flat (x, y, z) raw tuple."""
    return (v["x"].raw, v["y"].raw, v["z"].raw)


def intersect_box_raw(
    origin: RawVec3, direction: RawVec3, bbox_min: RawVec3, bbox_max: RawVec3,
    frac_bits: int, total_bits: int,
) -> bool:
    """Raw lowering of :func:`intersect_box` (same slab test, same wrap order)."""
    mask = (1 << total_bits) - 1
    sign = 1 << (total_bits - 1)
    fb = frac_bits
    scale = float(1 << fb)
    t_near = None
    t_far = None
    for axis in (0, 1, 2):
        o = origin[axis]
        d = direction[axis]
        lo = bbox_min[axis]
        hi = bbox_max[axis]
        if abs(d / scale) < 1e-5:
            if o < lo or o > hi:
                return False
            continue
        t0 = (((((((lo - o) & mask) ^ sign) - sign) << fb) // d) & mask ^ sign) - sign
        t1 = (((((((hi - o) & mask) ^ sign) - sign) << fb) // d) & mask ^ sign) - sign
        if t0 > t1:
            t0, t1 = t1, t0
        t_near = t0 if t_near is None or t0 > t_near else t_near
        t_far = t1 if t_far is None or t1 < t_far else t_far
    if t_near is None or t_far is None:
        return True
    return t_near <= t_far and t_far >= 0


def intersect_triangle_raw(
    origin: RawVec3, direction: RawVec3,
    v0: RawVec3, v1: RawVec3, v2: RawVec3,
    frac_bits: int, total_bits: int,
) -> Optional[int]:
    """Raw lowering of :func:`intersect_triangle`; returns the raw ``t`` or ``None``."""
    mask = (1 << total_bits) - 1
    sign = 1 << (total_bits - 1)
    fb = frac_bits

    def w(x: int) -> int:
        return ((x & mask) ^ sign) - sign

    def m(a: int, b: int) -> int:
        return ((((a * b) >> fb) & mask) ^ sign) - sign

    e1x, e1y, e1z = w(v1[0] - v0[0]), w(v1[1] - v0[1]), w(v1[2] - v0[2])
    e2x, e2y, e2z = w(v2[0] - v0[0]), w(v2[1] - v0[1]), w(v2[2] - v0[2])
    dx, dy, dz = direction
    px = w(m(dy, e2z) - m(dz, e2y))
    py = w(m(dz, e2x) - m(dx, e2z))
    pz = w(m(dx, e2y) - m(dy, e2x))
    det = w(w(m(e1x, px) + m(e1y, py)) + m(e1z, pz))
    if abs(det / float(1 << fb)) < 1e-4:
        return None
    one = _raw_one(fb, total_bits)
    inv_det = w((one << fb) // det)
    tx, ty, tz = w(origin[0] - v0[0]), w(origin[1] - v0[1]), w(origin[2] - v0[2])
    u = m(w(w(m(tx, px) + m(ty, py)) + m(tz, pz)), inv_det)
    if u < 0 or u > one:
        return None
    qx = w(m(ty, e1z) - m(tz, e1y))
    qy = w(m(tz, e1x) - m(tx, e1z))
    qz = w(m(tx, e1y) - m(ty, e1x))
    v = m(w(w(m(dx, qx) + m(dy, qy)) + m(dz, qz)), inv_det)
    if v < 0 or w(u + v) > one:
        return None
    t = m(w(w(m(e2x, qx) + m(e2y, qy)) + m(e2z, qz)), inv_det)
    if t <= _raw_threshold(fb, total_bits):
        return None
    return t


@lru_cache(maxsize=None)
def _raw_one(frac_bits: int, total_bits: int) -> int:
    return raw_from_float(1.0, frac_bits, total_bits)


@lru_cache(maxsize=None)
def _raw_threshold(frac_bits: int, total_bits: int) -> int:
    return raw_from_float(1e-3, frac_bits, total_bits)


def lambert_shade_raw(
    v0: RawVec3, v1: RawVec3, v2: RawVec3, light: RawVec3,
    int_bits: int, frac_bits: int,
) -> int:
    """Raw lowering of :func:`lambert_shade`; returns the raw clamped shade."""
    total_bits = int_bits + frac_bits
    mask = (1 << total_bits) - 1
    sign = 1 << (total_bits - 1)
    fb = frac_bits

    def w(x: int) -> int:
        return ((x & mask) ^ sign) - sign

    def m(a: int, b: int) -> int:
        return ((((a * b) >> fb) & mask) ^ sign) - sign

    e1x, e1y, e1z = w(v1[0] - v0[0]), w(v1[1] - v0[1]), w(v1[2] - v0[2])
    e2x, e2y, e2z = w(v2[0] - v0[0]), w(v2[1] - v0[1]), w(v2[2] - v0[2])
    nx = w(m(e1y, e2z) - m(e1z, e2y))
    ny = w(m(e1z, e2x) - m(e1x, e2z))
    nz = w(m(e1x, e2y) - m(e1y, e2x))
    lx, ly, lz = light
    scale = float(1 << fb)
    nn = w(w(m(nx, nx) + m(ny, ny)) + m(nz, nz))
    ll = w(w(m(lx, lx) + m(ly, ly)) + m(lz, lz))
    nl = w(w(m(nx, lx) + m(ny, ly)) + m(nz, lz))
    n_len = math.sqrt(max(1e-12, nn / scale))
    l_len = math.sqrt(max(1e-12, ll / scale))
    cos_angle = (nl / scale) / (n_len * l_len)
    return raw_from_float(min(1.0, abs(cos_angle)), frac_bits, total_bits)


def triangle_normal(triangle: Triangle) -> Vec:
    return v_cross(v_sub(triangle["v1"], triangle["v0"]), v_sub(triangle["v2"], triangle["v0"]))


def lambert_shade(triangle: Triangle, light_dir: Vec, int_bits: int = 16, frac_bits: int = 16) -> FixedPoint:
    """Unnormalised Lambertian shade factor, clamped to [0, 1]."""
    normal = triangle_normal(triangle)
    n_len = math.sqrt(max(1e-12, v_dot(normal, normal).to_float()))
    l_len = math.sqrt(max(1e-12, v_dot(light_dir, light_dir).to_float()))
    cos_angle = v_dot(normal, light_dir).to_float() / (n_len * l_len)
    return fx(min(1.0, abs(cos_angle)), int_bits, frac_bits)


# --------------------------------------------------------------------------
# procedural scene
# --------------------------------------------------------------------------


def generate_scene(
    n_triangles: int, seed: int = 7, int_bits: int = 16, frac_bits: int = 16
) -> List[Triangle]:
    """Generate a deterministic cloud of small triangles inside [0, 4)^3."""
    triangles: List[Triangle] = []
    state = (seed * 2654435761 + 97) & 0xFFFFFFFF

    def rnd() -> float:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return state / float(0x7FFFFFFF)

    for _ in range(n_triangles):
        cx, cy, cz = 0.5 + 3.0 * rnd(), 0.5 + 3.0 * rnd(), 1.0 + 3.0 * rnd()
        v0 = vec(cx, cy, cz, int_bits, frac_bits)
        v1 = vec(cx + 0.2 + 0.3 * rnd(), cy + 0.1 * rnd(), cz + 0.2 * rnd(), int_bits, frac_bits)
        v2 = vec(cx + 0.1 * rnd(), cy + 0.2 + 0.3 * rnd(), cz + 0.1 * rnd(), int_bits, frac_bits)
        triangles.append({"v0": v0, "v1": v1, "v2": v2})
    return triangles


def degenerate_triangle(int_bits: int = 16, frac_bits: int = 16) -> Triangle:
    """A zero-area triangle used to pad fixed-size leaf bundles."""
    origin = vec(-100.0, -100.0, -100.0, int_bits, frac_bits)
    return {"v0": origin, "v1": origin, "v2": origin}


def camera_ray(
    pixel: int,
    width: int,
    height: int,
    int_bits: int = 16,
    frac_bits: int = 16,
) -> Ray:
    """Primary ray through pixel ``pixel`` from a fixed camera in front of the scene."""
    px = pixel % width
    py = pixel // width
    x = (px + 0.5) / width * 4.0
    y = (py + 0.5) / height * 4.0
    origin = vec(2.0, 2.0, -2.0, int_bits, frac_bits)
    target = vec(x, y, 3.0, int_bits, frac_bits)
    direction = v_sub(target, origin)
    return {"origin": origin, "dir": direction, "pixel": pixel}


def light_direction(int_bits: int = 16, frac_bits: int = 16) -> Vec:
    return vec(0.4, 0.7, -0.6, int_bits, frac_bits)


def miss_hit(int_bits: int = 16, frac_bits: int = 16) -> Hit:
    """The 'no intersection yet' hit record."""
    return {
        "hit": False,
        "t": FixedPoint.from_float(1000.0, int_bits, frac_bits),
        "tri": 0,
        "pixel": 0,
        "shade": FixedPoint.zero(int_bits, frac_bits),
    }
