"""Tests for the ray tracer: geometry kernels, BVH properties, partition equivalence."""

from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.raytracer import geometry
from repro.apps.raytracer.bvh import Bvh, brute_force, build_bvh, traverse
from repro.apps.raytracer.geometry import Triangle, Vec, v_max, v_min, vec
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.raytracer.partitions import PARTITION_ORDER, PARTITIONS, build_partition
from repro.apps.raytracer.reference import expected_checksum, render
from repro.core.domains import HW, SW
from repro.core.errors import TypeCheckError
from repro.core.fixedpoint import FixedPoint
from repro.core.types import RawStruct
from repro.sim.cosim import Cosimulator

SMALL = RayTracerParams(n_triangles=24, image_width=4, image_height=4)

coords = st.floats(min_value=0.2, max_value=4.5, allow_nan=False, allow_infinity=False)


class TestGeometry:
    def test_vector_ops(self):
        a, b = geometry.vec(1, 2, 3), geometry.vec(4, 5, 6)
        assert geometry.v_dot(a, b).to_float() == pytest.approx(32.0, abs=1e-3)
        cross = geometry.v_cross(a, b)
        assert cross["x"].to_float() == pytest.approx(-3.0, abs=1e-3)
        assert geometry.v_add(a, b)["z"].to_float() == pytest.approx(9.0)
        assert geometry.v_sub(b, a)["y"].to_float() == pytest.approx(3.0)

    def test_cross_product_orthogonality(self):
        a, b = geometry.vec(1, 0.5, 2), geometry.vec(-1, 2, 0.25)
        cross = geometry.v_cross(a, b)
        assert abs(geometry.v_dot(cross, a).to_float()) < 1e-2
        assert abs(geometry.v_dot(cross, b).to_float()) < 1e-2

    def test_ray_hits_triangle_in_front(self):
        triangle = {
            "v0": geometry.vec(0, 0, 5),
            "v1": geometry.vec(4, 0, 5),
            "v2": geometry.vec(0, 4, 5),
        }
        ray = {"origin": geometry.vec(1, 1, 0), "dir": geometry.vec(0, 0, 1), "pixel": 0}
        t = geometry.intersect_triangle(ray, triangle)
        assert t is not None
        assert t.to_float() == pytest.approx(5.0, abs=0.01)

    def test_ray_misses_triangle_behind(self):
        triangle = {
            "v0": geometry.vec(0, 0, -5),
            "v1": geometry.vec(4, 0, -5),
            "v2": geometry.vec(0, 4, -5),
        }
        ray = {"origin": geometry.vec(1, 1, 0), "dir": geometry.vec(0, 0, 1), "pixel": 0}
        assert geometry.intersect_triangle(ray, triangle) is None

    def test_ray_misses_triangle_to_the_side(self):
        triangle = {
            "v0": geometry.vec(10, 10, 5),
            "v1": geometry.vec(11, 10, 5),
            "v2": geometry.vec(10, 11, 5),
        }
        ray = {"origin": geometry.vec(1, 1, 0), "dir": geometry.vec(0, 0, 1), "pixel": 0}
        assert geometry.intersect_triangle(ray, triangle) is None

    def test_box_contains_hit(self):
        ray = {"origin": geometry.vec(1, 1, 0), "dir": geometry.vec(0, 0, 1), "pixel": 0}
        assert geometry.intersect_box(ray, geometry.vec(0, 0, 2), geometry.vec(2, 2, 4))
        assert not geometry.intersect_box(ray, geometry.vec(5, 5, 2), geometry.vec(6, 6, 4))

    def test_box_behind_ray_misses(self):
        ray = {"origin": geometry.vec(1, 1, 10), "dir": geometry.vec(0, 0, 1), "pixel": 0}
        assert not geometry.intersect_box(ray, geometry.vec(0, 0, 2), geometry.vec(2, 2, 4))

    def test_degenerate_triangle_never_hit(self):
        tri = geometry.degenerate_triangle()
        ray = {"origin": geometry.vec(1, 1, 0), "dir": geometry.vec(0, 0, 1), "pixel": 0}
        assert geometry.intersect_triangle(ray, tri) is None

    def test_lambert_shade_in_unit_range(self):
        triangle = {
            "v0": geometry.vec(0, 0, 5),
            "v1": geometry.vec(4, 0, 5),
            "v2": geometry.vec(0, 4, 5),
        }
        shade = geometry.lambert_shade(triangle, geometry.light_direction())
        assert 0.0 <= shade.to_float() <= 1.0

    def test_scene_generation_deterministic(self):
        assert geometry.generate_scene(8, seed=3) == geometry.generate_scene(8, seed=3)
        assert geometry.generate_scene(8, seed=3) != geometry.generate_scene(8, seed=4)

    def test_camera_rays_distinct_per_pixel(self):
        r0 = geometry.camera_ray(0, 4, 4)
        r5 = geometry.camera_ray(5, 4, 4)
        assert r0["dir"] != r5["dir"]
        assert r0["pixel"] == 0 and r5["pixel"] == 5

    def test_struct_types_pack_a_ray(self):
        types = geometry.struct_types()
        ray = geometry.camera_ray(3, 4, 4)
        assert types["ray"].unpack(types["ray"].pack(ray)) == ray


class TestBvh:
    def test_build_covers_all_triangles(self):
        triangles = geometry.generate_scene(40)
        bvh = build_bvh(triangles, leaf_size=4)
        assert len(bvh.triangles) == 40
        leaf_total = sum(n["tri_count"] for n in bvh.nodes if n["is_leaf"])
        assert leaf_total == 40

    def test_leaf_size_respected(self):
        bvh = build_bvh(geometry.generate_scene(50), leaf_size=4)
        assert all(n["tri_count"] <= 4 for n in bvh.nodes if n["is_leaf"])

    def test_child_boxes_inside_parent(self):
        bvh = build_bvh(geometry.generate_scene(30), leaf_size=2)
        for node in bvh.nodes:
            if node["is_leaf"]:
                continue
            for child_index in (node["left"], node["right"]):
                child = bvh.nodes[child_index]
                for axis in ("x", "y", "z"):
                    assert child["bbox_min"][axis] >= node["bbox_min"][axis]
                    assert child["bbox_max"][axis] <= node["bbox_max"][axis]

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            build_bvh([], leaf_size=4)

    def test_traversal_matches_brute_force_on_camera_rays(self):
        triangles = geometry.generate_scene(60, seed=11)
        bvh = build_bvh(triangles, leaf_size=4)
        for pixel in range(16):
            ray = geometry.camera_ray(pixel, 4, 4)
            bvh_hit, bvh_t, _ = traverse(bvh, ray)
            brute_hit, brute_t, _ = brute_force(triangles, ray)
            assert bvh_hit == brute_hit
            if bvh_hit:
                assert bvh_t == brute_t

    @given(coords, coords, st.integers(min_value=4, max_value=40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_traversal_matches_brute_force_property(self, x, y, n_triangles, seed):
        triangles = geometry.generate_scene(n_triangles, seed=seed)
        bvh = build_bvh(triangles, leaf_size=3)
        ray = {
            "origin": geometry.vec(x, y, -1.0),
            "dir": geometry.vec(0.05, -0.03, 1.0),
            "pixel": 0,
        }
        bvh_hit, bvh_t, _ = traverse(bvh, ray)
        brute_hit, brute_t, _ = brute_force(bvh.triangles, ray)
        assert bvh_hit == brute_hit
        if bvh_hit:
            assert bvh_t == brute_t

    def test_max_depth_logarithmic(self):
        bvh = build_bvh(geometry.generate_scene(128), leaf_size=4)
        assert bvh.max_depth() <= 10


# --------------------------------------------------------------------------
# the boxed scene and BVH builder: the reference for the raw ones
# --------------------------------------------------------------------------
#
# ``generate_scene`` and ``build_bvh`` as they were before scene preparation
# went raw, kept verbatim (renamed only): dicts of boxed ``FixedPoint``s,
# bounds through ``v_min``/``v_max``, every node packed through
# ``StructT.raw``.


def reference_scene(
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


def reference_bvh(triangles: Sequence[Triangle], leaf_size: int = 4) -> Bvh:
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


def _raws_and_types(values: Sequence[RawStruct]):
    """Each raw struct's raws with their Python types, and its type's id."""
    return [
        (value.raws, tuple(map(type, value.raws)), id(value.ty)) for value in values
    ]


class TestRawScene:
    """Scene generation and BVH construction in the raw struct form equal
    the boxed builders raw for raw, with the design's types by identity."""

    @pytest.mark.parametrize("int_bits, frac_bits", [(16, 16), (8, 24)])
    def test_scene_equals_the_boxed_scene(self, int_bits, frac_bits):
        tri_t = geometry.struct_types(int_bits, frac_bits)["triangle"]
        for seed in range(4):
            scene = geometry.generate_scene(24, seed, int_bits, frac_bits)
            assert scene == reference_scene(24, seed, int_bits, frac_bits)
            assert all(type(tri) is RawStruct and tri.ty is tri_t for tri in scene)

    @pytest.mark.parametrize("int_bits, frac_bits", [(16, 16), (8, 24)])
    def test_every_spelling_of_a_format_shares_its_types(self, int_bits, frac_bits):
        types = geometry.struct_types(int_bits, frac_bits, 4)
        assert geometry.struct_types(int_bits, frac_bits) is types
        assert geometry.struct_types(int_bits, frac_bits, leaf_size=4) is types
        if (int_bits, frac_bits) == (16, 16):
            assert geometry.struct_types() is types
        # Only the types that hold a leaf bundle depend on the leaf size.
        other = geometry.struct_types(int_bits, frac_bits, 2)
        assert {name for name in types if other[name] is not types[name]} == {
            "leaf_data",
            "geom_req",
        }
        # So the build's re-tag hands the scene's triangles through as they are.
        scene = geometry.generate_scene(8, 1, int_bits, frac_bits)
        bvh = build_bvh(scene, leaf_size=2)
        assert sorted(map(id, bvh.triangles)) == sorted(map(id, scene))

    @pytest.mark.parametrize("leaf_size", [1, 2, 3, 4])
    def test_build_equals_the_boxed_build(self, leaf_size):
        types = geometry.struct_types(16, 16, leaf_size)
        for seed in range(3):
            for n in sorted({1, leaf_size, leaf_size + 1, 8, 24, 96}):
                raw = build_bvh(geometry.generate_scene(n, seed), leaf_size)
                ref = reference_bvh(reference_scene(n, seed), leaf_size)
                assert _raws_and_types(raw.nodes) == _raws_and_types(ref.nodes)
                assert _raws_and_types(raw.triangles) == _raws_and_types(ref.triangles)
                assert all(node.ty is types["node"] for node in raw.nodes)
                assert all(tri.ty is types["triangle"] for tri in raw.triangles)
                assert raw.leaf_size == leaf_size

    @pytest.mark.parametrize(
        "corners",
        [
            # x and y centroid extents tie exactly, and sorting on y would
            # split the scene differently: the first axis wins.
            [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75)],
            # Two centroids tie on the split axis: the stable sort keeps
            # their scene order.
            [(0.0, 0.0), (0.0, 0.5), (1.0, 0.1), (2.0, 0.2)],
        ],
        ids=["axis_tie", "centroid_tie"],
    )
    def test_ties_split_as_the_boxed_build(self, corners):
        scene = [
            {"v0": vec(x, y, 1.0), "v1": vec(x + 0.1, y, 1.0), "v2": vec(x, y + 0.1, 1.0)}
            for x, y in corners
        ]
        raw = build_bvh(scene, leaf_size=2)
        ref = reference_bvh(scene, leaf_size=2)
        assert _raws_and_types(raw.nodes) == _raws_and_types(ref.nodes)
        assert _raws_and_types(raw.triangles) == _raws_and_types(ref.triangles)

    def test_dict_triangles_build_the_same_bvh(self):
        raw = build_bvh(reference_scene(24, 5), leaf_size=3)
        ref = reference_bvh(reference_scene(24, 5), leaf_size=3)
        assert _raws_and_types(raw.nodes) == _raws_and_types(ref.nodes)
        assert _raws_and_types(raw.triangles) == _raws_and_types(ref.triangles)

    def test_index_out_of_range_raises_the_uint16_error(self, monkeypatch):
        # One leaf of 70 000 triangles: its ``tri_count`` does not fit
        # ``UInt#(16)``.  The leaf-size-4 types stand in for those of leaf
        # size 70 000, whose 70 000-element bundle vectors take seconds to
        # declare; the node and triangle types do not depend on it.
        real = geometry.struct_types
        monkeypatch.setattr(
            geometry, "struct_types", lambda ib=16, fb=16, leaf_size=4: real(ib, fb, 4)
        )
        triangle = geometry.generate_scene(1)[0]
        with pytest.raises(TypeCheckError) as raised:
            build_bvh([triangle] * 70_000, leaf_size=70_000)
        assert str(raised.value) == "value 70000 out of range [0, 65535] for UInt#(16)"

    @pytest.mark.parametrize("form", ["raw", "dict"])
    def test_mixed_format_triangle_raises(self, form):
        scene = geometry.generate_scene(8, seed=2)
        stranger = geometry.generate_scene(1, 3, 8, 24)[0]
        scene.append(stranger if form == "raw" else dict(stranger.items()))
        with pytest.raises(TypeCheckError, match="value is 8.24, type is 16.16"):
            build_bvh(scene, leaf_size=4)


class TestRayTracerDesign:
    def test_partition_placements(self):
        assert all(dom == SW for dom in PARTITIONS["A"].values())
        assert all(dom == HW for dom in PARTITIONS["C"].values())
        assert PARTITIONS["B"]["bvh_mem"] == SW and PARTITIONS["B"]["trav"] == HW
        assert PARTITIONS["D"]["geom"] == HW and PARTITIONS["D"]["trav"] == SW

    def test_reference_render_is_deterministic(self):
        assert render(SMALL).checksum == render(SMALL).checksum

    def test_reference_render_hits_something(self):
        result = render(RayTracerParams(n_triangles=128, image_width=6, image_height=6))
        assert result.hits > 0

    @pytest.mark.parametrize("letter", PARTITION_ORDER)
    def test_every_partition_is_bit_exact(self, letter):
        tracer = build_partition(letter, SMALL)
        cosim = Cosimulator(tracer.design)
        result = cosim.run(tracer.cosim_done, max_cycles=200_000_000)
        assert result.completed
        assert cosim.read_sw(tracer.checksum) == expected_checksum(SMALL)

    def test_partition_b_generates_much_more_traffic_than_c(self):
        results = {}
        for letter in ("B", "C"):
            tracer = build_partition(letter, SMALL)
            cosim = Cosimulator(tracer.design)
            results[letter] = cosim.run(tracer.cosim_done, max_cycles=200_000_000)
        assert results["B"].channel_words > 3 * results["C"].channel_words

    def test_unknown_partition_rejected(self):
        with pytest.raises(KeyError):
            build_partition("Z", SMALL)

    def test_unknown_module_placement_rejected(self):
        from repro.apps.raytracer.pipeline import build_raytracer

        with pytest.raises(ValueError):
            build_raytracer(SMALL, {"bogus": HW})
