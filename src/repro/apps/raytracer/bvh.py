"""Bounding-volume-hierarchy construction (the paper's "BVH Ctor" module).

The BVH is built once, before tracing starts, by recursive median split on
the longest axis of the triangle centroids.  With the scene in this form the
tracer performs O(log n) box tests per ray instead of n triangle tests
(Section 7.2).  Construction happens at design-build time in every partition
(the paper keeps the constructor in software in all four configurations), so
it contributes an identical constant to each and is excluded from the
per-partition comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.apps.raytracer import geometry
from repro.apps.raytracer.geometry import Triangle, Vec, v_max, v_min
from repro.core import kernelcompile
from repro.core.fixedpoint import FixedPoint, from_wrapped_raw, raw_from_float
from repro.core.types import RawStruct


@dataclass
class Bvh:
    """A flattened BVH: node records plus the leaf-ordered triangle list.

    Both are in the raw struct form (:class:`~repro.core.types.RawStruct`
    of the ``BvhNode`` and ``Triangle`` types) from build time on, so they
    seed the design's memories as they are and the fast traversal reads
    their raws in place.
    """

    nodes: List[RawStruct]
    triangles: List[RawStruct]
    leaf_size: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def max_depth(self) -> int:
        def depth(index: int) -> int:
            node = self.nodes[index]
            if node["is_leaf"]:
                return 1
            return 1 + max(depth(node["left"]), depth(node["right"]))

        return depth(0) if self.nodes else 0


def _triangle_bounds(triangle: Triangle) -> Tuple[Vec, Vec]:
    lo = v_min(v_min(triangle["v0"], triangle["v1"]), triangle["v2"])
    hi = v_max(v_max(triangle["v0"], triangle["v1"]), triangle["v2"])
    return lo, hi


def _centroid(triangle: Triangle) -> Dict[str, float]:
    return {
        axis: (
            triangle["v0"][axis].to_float()
            + triangle["v1"][axis].to_float()
            + triangle["v2"][axis].to_float()
        )
        / 3.0
        for axis in ("x", "y", "z")
    }


def build_bvh(triangles: Sequence[Triangle], leaf_size: int = 4) -> Bvh:
    """Build a BVH by recursive median split on the longest centroid axis."""
    if not triangles:
        raise ValueError("cannot build a BVH over an empty scene")
    ordered: List[Triangle] = []
    nodes: List[Dict[str, object]] = []
    items = list(triangles)

    def bounds_of(subset: Sequence[Triangle]) -> Tuple[Vec, Vec]:
        lo, hi = _triangle_bounds(subset[0])
        for tri in subset[1:]:
            tlo, thi = _triangle_bounds(tri)
            lo, hi = v_min(lo, tlo), v_max(hi, thi)
        return lo, hi

    def build(subset: List[Triangle]) -> int:
        index = len(nodes)
        nodes.append({})  # placeholder, filled below
        lo, hi = bounds_of(subset)
        if len(subset) <= leaf_size:
            start = len(ordered)
            ordered.extend(subset)
            nodes[index] = {
                "bbox_min": lo,
                "bbox_max": hi,
                "is_leaf": True,
                "left": 0,
                "right": 0,
                "tri_start": start,
                "tri_count": len(subset),
            }
            return index
        # Split on the longest axis of the centroid extent.
        centroids = [_centroid(tri) for tri in subset]
        extents = {
            axis: max(c[axis] for c in centroids) - min(c[axis] for c in centroids)
            for axis in ("x", "y", "z")
        }
        axis = max(extents, key=extents.get)
        order = sorted(range(len(subset)), key=lambda i: centroids[i][axis])
        mid = len(subset) // 2
        left_set = [subset[i] for i in order[:mid]]
        right_set = [subset[i] for i in order[mid:]]
        left = build(left_set)
        right = build(right_set)
        nodes[index] = {
            "bbox_min": lo,
            "bbox_max": hi,
            "is_leaf": False,
            "left": left,
            "right": right,
            "tri_start": 0,
            "tri_count": 0,
        }
        return index

    build(items)
    corner = triangles[0]["v0"]["x"]
    types = geometry.struct_types(corner.int_bits, corner.frac_bits, leaf_size)
    return Bvh(
        nodes=[types["node"].raw(node) for node in nodes],
        triangles=[types["triangle"].raw(triangle) for triangle in ordered],
        leaf_size=leaf_size,
    )


def traverse_oracle(bvh: Bvh, ray: geometry.Ray) -> Tuple[bool, FixedPoint, int]:
    """Reference (pure software) BVH traversal; returns ``(hit, t, triangle index)``.

    This is the oracle the partitioned designs are compared against, and the
    algorithm the traversal module's rules implement step by step.
    """
    int_bits = ray["origin"]["x"].int_bits
    frac_bits = ray["origin"]["x"].frac_bits
    best_t = FixedPoint.from_float(1000.0, int_bits, frac_bits)
    best_tri = 0
    found = False
    stack = [0]
    while stack:
        node = bvh.nodes[stack.pop()]
        if not geometry.intersect_box(ray, node["bbox_min"], node["bbox_max"]):
            continue
        if node["is_leaf"]:
            for offset in range(node["tri_count"]):
                tri_index = node["tri_start"] + offset
                t = geometry.intersect_triangle(ray, bvh.triangles[tri_index])
                if t is not None and t < best_t:
                    best_t, best_tri, found = t, tri_index, True
        else:
            stack.append(node["left"])
            stack.append(node["right"])
    return found, best_t, best_tri


def traverse(bvh: Bvh, ray: geometry.Ray) -> Tuple[bool, FixedPoint, int]:
    """BVH traversal, dispatching on the kernel backend.

    The fast path runs the identical stack algorithm over the nodes' and
    triangles' raws, read through the struct accessors, with the
    raw-integer intersection kernels; results are bit-identical to
    :func:`traverse_oracle` (the differential tests compare them ray for
    ray).
    """
    if kernelcompile.kernel_backend() == "oracle":
        return traverse_oracle(bvh, ray)
    int_bits = ray["origin"]["x"].int_bits
    frac_bits = ray["origin"]["x"].frac_bits
    total_bits = int_bits + frac_bits
    types = geometry.struct_types(int_bits, frac_bits, bvh.leaf_size)
    ray_t, node_t, tri_t = types["ray"], types["node"], types["triangle"]
    origin = ray_t.accessor("origin")(ray)
    direction = ray_t.accessor("dir")(ray)
    bbox_min, bbox_max, is_leaf, left, right, tri_start, tri_count = map(
        node_t.accessor,
        ("bbox_min", "bbox_max", "is_leaf", "left", "right", "tri_start", "tri_count"),
    )
    vertices = tuple(map(tri_t.accessor, ("v0", "v1", "v2")))
    best_t = raw_from_float(1000.0, frac_bits, total_bits)
    best_tri = 0
    found = False
    stack = [0]
    while stack:
        node = bvh.nodes[stack.pop()]
        if not geometry.intersect_box_raw(
            origin, direction, bbox_min(node), bbox_max(node), frac_bits, total_bits
        ):
            continue
        if is_leaf(node):
            start = tri_start(node)
            for tri_index in range(start, start + tri_count(node)):
                triangle = bvh.triangles[tri_index]
                v0, v1, v2 = (vertex(triangle) for vertex in vertices)
                t = geometry.intersect_triangle_raw(
                    origin, direction, v0, v1, v2, frac_bits, total_bits
                )
                if t is not None and t < best_t:
                    best_t, best_tri, found = t, tri_index, True
        else:
            stack.append(left(node))
            stack.append(right(node))
    return found, from_wrapped_raw(best_t, int_bits, frac_bits), best_tri


def brute_force(triangles: Sequence[Triangle], ray: geometry.Ray) -> Tuple[bool, FixedPoint, int]:
    """Brute-force intersection over all triangles (property-test oracle)."""
    int_bits = ray["origin"]["x"].int_bits
    frac_bits = ray["origin"]["x"].frac_bits
    best_t = FixedPoint.from_float(1000.0, int_bits, frac_bits)
    best_tri = 0
    found = False
    for index, triangle in enumerate(triangles):
        t = geometry.intersect_triangle(ray, triangle)
        if t is not None and t < best_t:
            best_t, best_tri, found = t, index, True
    return found, best_t, best_tri
