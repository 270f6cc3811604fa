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
from typing import List, Sequence, Tuple

from repro.apps.raytracer import geometry
from repro.apps.raytracer.geometry import RawVec3, Triangle
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


def build_bvh(triangles: Sequence[Triangle], leaf_size: int = 4) -> Bvh:
    """Build a BVH by recursive median split on the longest centroid axis.

    ``triangles`` are raw structs (:func:`~repro.apps.raytracer.geometry.generate_scene`
    builds them) or dicts of boxed vertices.  Each is converted once through
    the design's triangle type, so a malformed one raises that type's
    ``TypeCheckError``; the build then runs on raws.  Each triangle's bounds
    and centroid are computed once, a node's box is the min/max of its
    triangles' bounds, and every node is built as a raw struct of the node
    type.
    """
    if not triangles:
        raise ValueError("cannot build a BVH over an empty scene")
    corner = triangles[0]["v0"]["x"]
    types = geometry.struct_types(corner.int_bits, corner.frac_bits, leaf_size)
    tri_t, node_t = types["triangle"], types["node"]
    tris = [tri_t.raw(triangle) for triangle in triangles]
    scale = float(1 << corner.frac_bits)
    lows: List[RawVec3] = []
    highs: List[RawVec3] = []
    centroids: List[Tuple[float, float, float]] = []
    for tri in tris:
        x0, y0, z0, x1, y1, z1, x2, y2, z2 = tri.raws
        lows.append((min(x0, x1, x2), min(y0, y1, y2), min(z0, z1, z2)))
        highs.append((max(x0, x1, x2), max(y0, y1, y2), max(z0, z1, z2)))
        # The boxed reference's float operations in its order: ``to_float``
        # per vertex, summed v0 + v1 + v2, then ``/ 3.0``.
        centroids.append(
            (
                (x0 / scale + x1 / scale + x2 / scale) / 3.0,
                (y0 / scale + y1 / scale + y2 / scale) / 3.0,
                (z0 / scale + z1 / scale + z2 / scale) / 3.0,
            )
        )
    ordered: List[int] = []
    nodes: List[RawStruct] = []

    def build(subset: List[int]) -> int:
        index = len(nodes)
        nodes.append(None)  # placeholder: nodes are numbered in preorder
        box = tuple(map(min, zip(*[lows[i] for i in subset]))) + tuple(
            map(max, zip(*[highs[i] for i in subset]))
        )
        if len(subset) <= leaf_size:
            start = len(ordered)
            ordered.extend(subset)
            nodes[index] = RawStruct(node_t, box + (True, 0, 0, start, len(subset)))
            return index
        # Split on the first axis with the longest centroid extent, at the
        # median of a stable sort.
        extents = [max(column) - min(column) for column in zip(*[centroids[i] for i in subset])]
        axis = extents.index(max(extents))
        order = sorted(subset, key=lambda i: centroids[i][axis])
        mid = len(subset) // 2
        left = build(order[:mid])
        right = build(order[mid:])
        nodes[index] = RawStruct(node_t, box + (False, left, right, 0, 0))
        return index

    build(list(range(len(tris))))
    # Every index field is below len(nodes) or at most len(tris); past the
    # index type's range, check each node's fields in packing order, so
    # the first that does not fit raises the type's error.
    index_t = node_t.field_type("left")
    if max(len(nodes), len(tris)) > (1 << index_t.n) - 1:
        for node in nodes:
            for value in node.raws[7:]:  # left, right, tri_start, tri_count
                index_t.pack(value)
    return Bvh(nodes=nodes, triangles=[tris[i] for i in ordered], leaf_size=leaf_size)


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
