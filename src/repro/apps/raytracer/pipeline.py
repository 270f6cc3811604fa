"""The ray tracer as an elaborated BCL design (Figure 14's module structure).

Modules:

* ``raygen`` (always SW) -- generates one primary ray per pixel.
* ``bvh_mem`` / ``scene_mem`` -- the BVH node store and the triangle store,
  served through request/response FIFOs.  Their placement is what
  distinguishes partition C (on-chip block RAM next to the traversal engine)
  from partition B (data left in processor-side memory).
* ``trav`` (BVH Trav + Box Inter) -- a per-ray traversal state machine that
  pops BVH nodes, tests bounding boxes, and requests leaf triangle bundles.
* ``geom`` (Geom Inter) -- ray/triangle intersection over one leaf bundle.
* ``shader`` (Light/Color) -- converts the best hit into a pixel value.
* ``bitmap`` (always SW) -- stores pixels and counts completed rays.

Every inter-module queue is a synchronizer, so any placement of the
placeable modules onto {HW, SW} is a legal partition; the partitioner
rejects nothing and the generated interface carries exactly the queues that
ended up on the cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.apps.raytracer import geometry
from repro.apps.raytracer.bvh import Bvh, build_bvh
from repro.apps.raytracer.params import RayTracerParams
from repro.core import kernelcompile
from repro.core.action import IfA, LetA, par
from repro.core.domains import SW, Domain
from repro.core.expr import BinOp, Const, FieldSelect, KernelCall, RegRead, UnOp, Var
from repro.core.fixedpoint import raw_from_float
from repro.core.module import Design, Module, Register
from repro.core.primitives import RegFile
from repro.core.synchronizers import SyncFifo
from repro.core.types import BoolT, FixPtT, OpaqueT, RawStruct, UIntT
from repro.sim.cosim import ThresholdDone

#: Module groups whose domain can be chosen per partition.
PLACEABLE_MODULES = ("trav", "geom", "bvh_mem", "scene_mem", "shader")


@dataclass
class RayTracer:
    """Handle onto one built ray-tracer design and its observation points."""

    design: Design
    params: RayTracerParams
    placement: Dict[str, Domain]
    bvh: Bvh
    done_count: Register
    checksum: Register
    image: RegFile
    modules: Dict[str, Module] = field(default_factory=dict)
    syncs: Dict[str, SyncFifo] = field(default_factory=dict)
    pixel_idx: Optional[Register] = None

    @property
    def cosim_done(self) -> ThresholdDone:
        """Termination predicate: ``done_count`` has reached ``n_rays``.

        A :class:`~repro.sim.cosim.ThresholdDone`, compared inline by a
        generated group loop; called, it reads through the fabric's
        owner-resolved ``read``, so it works on the two-partition wrapper and
        on N-domain fabrics (``done_count`` lives in the software-side
        collector).
        """
        return ThresholdDone(((self.done_count, self.params.n_rays),))

    def tile_request(self, start_pixel: int = 0, name: str = ""):
        """A serving request rendering pixels ``start_pixel..n_rays-1``.

        Writes the ray-generator cursor ``pixel_idx`` (different starts
        render different tiles and fold different checksums), declares
        completion as ``done_count`` reaching the tile's ray count, and
        returns the image checksum.  Plain picklable data for the serving
        layer.
        """
        from repro.sim.serve import Request

        n_rays = self.params.n_rays
        if not 0 <= start_pixel < n_rays:
            raise ValueError(f"start_pixel must be in [0, {n_rays}), got {start_pixel}")
        return Request(
            name=name or f"{self.design.name}:tile[{start_pixel}:{n_rays}]",
            writes={self.pixel_idx.full_name: start_pixel},
            done_min={self.done_count.full_name: n_rays - start_pixel},
            outputs=(self.checksum.full_name, self.done_count.full_name),
        )


def build_raytracer(
    params: Optional[RayTracerParams] = None,
    placement: Optional[Dict[str, Domain]] = None,
    name: str = "raytracer",
    sync_depth: int = 2,
) -> RayTracer:
    """Build the ray tracer with the given HW/SW placement (default: all software)."""
    params = params or RayTracerParams()
    placement = dict(placement or {})
    for module_name in PLACEABLE_MODULES:
        placement.setdefault(module_name, SW)
    unknown = set(placement) - set(PLACEABLE_MODULES)
    if unknown:
        raise ValueError(f"unknown ray-tracer modules in placement: {sorted(unknown)}")

    ib, fb = params.int_bits, params.frac_bits
    types = geometry.struct_types(ib, fb, params.leaf_size)
    ray_t, hit_t, node_t = types["ray"], types["hit"], types["node"]
    tri_t, leaf_req_t, mem_req_t, color_t = (
        types["triangle"],
        types["leaf_req"],
        types["mem_req"],
        types["color"],
    )
    leaf_data_t, geom_req_t = types["leaf_data"], types["geom_req"]

    # Scene and BVH are constructed up front (the BVH Ctor pass, always software).
    triangles = geometry.generate_scene(params.n_triangles, params.seed, ib, fb)
    bvh = build_bvh(triangles, params.leaf_size)
    padded_tris = list(bvh.triangles) + [
        tri_t.raw(geometry.degenerate_triangle(ib, fb))
    ] * params.leaf_size
    light = geometry.light_direction(ib, fb)
    miss = hit_t.raw(geometry.miss_hit(ib, fb))

    top = Module(name)

    raygen = top.add_submodule(Module("raygen", domain=SW))
    trav = top.add_submodule(Module("trav", domain=placement["trav"]))
    geom = top.add_submodule(Module("geom", domain=placement["geom"]))
    bvh_mem = top.add_submodule(Module("bvh_mem", domain=placement["bvh_mem"]))
    scene_mem = top.add_submodule(Module("scene_mem", domain=placement["scene_mem"]))
    shader = top.add_submodule(Module("shader", domain=placement["shader"]))
    bitmap = top.add_submodule(Module("bitmap", domain=SW))

    nodes_rf = bvh_mem.add_submodule(
        RegFile("nodes", node_t, size=bvh.n_nodes, init=bvh.nodes, read_latency=1)
    )
    tris_rf = scene_mem.add_submodule(
        RegFile("tris", tri_t, size=len(padded_tris), init=padded_tris, read_latency=1)
    )
    image_rf = bitmap.add_submodule(
        RegFile("image", FixPtT(ib, fb), size=params.n_rays, read_latency=1)
    )

    # -- synchronizers -------------------------------------------------------------
    def sync(sync_name: str, ty, producer: Domain, consumer: Domain) -> SyncFifo:
        return top.add_submodule(
            SyncFifo(sync_name, ty, domain_enq=producer, domain_deq=consumer, depth=sync_depth)
        )

    ray_q = sync("ray_q", ray_t, SW, placement["trav"])
    bvh_req_q = sync("bvh_req_q", mem_req_t, placement["trav"], placement["bvh_mem"])
    bvh_resp_q = sync("bvh_resp_q", node_t, placement["bvh_mem"], placement["trav"])
    scene_req_q = sync("scene_req_q", leaf_req_t, placement["trav"], placement["scene_mem"])
    scene_resp_q = sync("scene_resp_q", leaf_data_t, placement["scene_mem"], placement["trav"])
    geom_req_q = sync("geom_req_q", geom_req_t, placement["trav"], placement["geom"])
    geom_resp_q = sync("geom_resp_q", hit_t, placement["geom"], placement["trav"])
    hit_q = sync("hit_q", hit_t, placement["trav"], placement["shader"])
    color_q = sync("color_q", color_t, placement["shader"], SW)

    # -- registers -------------------------------------------------------------------
    pixel_idx = raygen.add_register("pixel_idx", UIntT(32), 0)
    busy = trav.add_register("busy", BoolT(), False)
    awaiting_node = trav.add_register("awaiting_node", BoolT(), False)
    awaiting_leaf = trav.add_register("awaiting_leaf", BoolT(), False)
    awaiting_geom = trav.add_register("awaiting_geom", BoolT(), False)
    cur_ray = trav.add_register(
        "cur_ray",
        OpaqueT(ray_t.raw(geometry.camera_ray(0, params.image_width, params.image_height, ib, fb))),
    )
    stack = trav.add_register("stack", OpaqueT(()))
    best = trav.add_register("best", OpaqueT(miss))
    done_count = bitmap.add_register("done_count", UIntT(32), 0)
    checksum = bitmap.add_register("checksum", UIntT(32), 0)

    # -- kernels ------------------------------------------------------------------------
    def kc(kernel_name: str, fn, args, sw_cycles, hw_cycles) -> KernelCall:
        return KernelCall(kernel_name, fn, args, sw_cycles=sw_cycles, hw_cycles=hw_cycles)

    # Raw-path constants and struct accessors of the kernel dataplane (the
    # format is fixed per design).  Every struct-valued kernel reads its
    # inputs' raws through the accessors, which read the dict form too, and
    # returns a RawStruct.  Only the fixed-point work -- process_node's slab
    # test and intersect_leaf's triangle tests -- keeps a dict-of-FixedPoint
    # implementation for the oracle backend to cross-check; it reads raw
    # inputs through item access.
    total_bits = ib + fb
    light_raws = geometry.vec_raws(light)
    miss_t_raw = raw_from_float(1000.0, fb, total_bits)
    no_leaf_req = RawStruct(leaf_req_t, (0, 0))
    ray_origin, ray_dir, ray_pixel = map(ray_t.accessor, ("origin", "dir", "pixel"))
    node_min, node_max, node_is_leaf, node_left, node_right, node_start, node_count = map(
        node_t.accessor,
        ("bbox_min", "bbox_max", "is_leaf", "left", "right", "tri_start", "tri_count"),
    )
    req_origin, req_dir, req_pixel, req_bundle, req_count, req_base = map(
        geom_req_t.accessor,
        ("ray.origin", "ray.dir", "ray.pixel", "bundle", "count", "base"),
    )
    hit_hit, hit_t_raw, hit_tri, hit_pixel, hit_shade = map(
        hit_t.accessor, ("hit", "t", "tri", "pixel", "shade")
    )
    color_pixel, color_value = map(color_t.accessor, ("pixel", "value"))
    tri_leaves = len(tri_t.leaves)
    value_mask = (1 << total_bits) - 1

    def ray_gen_fn(pixel: int):
        ray = geometry.camera_ray(pixel, params.image_width, params.image_height, ib, fb)
        return RawStruct(
            ray_t, geometry.vec_raws(ray["origin"]) + geometry.vec_raws(ray["dir"]) + (pixel,)
        )

    def make_mem_req_fn(index):
        return RawStruct(mem_req_t, (index,))

    def process_node_fn(ray, node, stack_value):
        # The only fixed-point work here is the slab test; on the fast
        # backends it runs over raw ints (bit-identical, see geometry).
        if kernelcompile.kernel_backend() == "oracle":
            return process_node_oracle(ray, node, stack_value)
        if not geometry.intersect_box_raw(
            ray_origin(ray), ray_dir(ray), node_min(node), node_max(node), fb, total_bits
        ):
            return {"stack": stack_value, "fetch_leaf": False, "leaf_req": no_leaf_req}
        if node_is_leaf(node):
            leaf_req = RawStruct(leaf_req_t, (node_start(node), node_count(node)))
            return {"stack": stack_value, "fetch_leaf": True, "leaf_req": leaf_req}
        return {
            "stack": stack_value + (node_left(node), node_right(node)),
            "fetch_leaf": False,
            "leaf_req": no_leaf_req,
        }

    def process_node_oracle(ray, node, stack_value):
        if not geometry.intersect_box(ray, node["bbox_min"], node["bbox_max"]):
            return {"stack": stack_value, "fetch_leaf": False, "leaf_req": {"start": 0, "count": 0}}
        if node["is_leaf"]:
            return {
                "stack": stack_value,
                "fetch_leaf": True,
                "leaf_req": {"start": node["tri_start"], "count": node["tri_count"]},
            }
        return {
            "stack": stack_value + (node["left"], node["right"]),
            "fetch_leaf": False,
            "leaf_req": {"start": 0, "count": 0},
        }

    def make_bundle_fn(start, count, *tris):
        raws = ()
        for triangle in tris:
            raws += tri_t.raw(triangle).raws
        return RawStruct(leaf_data_t, raws + (count, start))

    def make_geom_req_fn(ray, leaf_data):
        # GeomReq's fields are Ray's followed by LeafData's.
        return RawStruct(geom_req_t, ray_t.raw(ray).raws + leaf_data_t.raw(leaf_data).raws)

    def intersect_leaf_fn(req):
        if kernelcompile.kernel_backend() == "oracle":
            return intersect_leaf_oracle(req)
        # Raw fast path: Möller-Trumbore over the request's raws, a new raw
        # hit record out.  The oracle recomputes the shade on every
        # improvement but returns only the last one, so shading just the
        # final winner is bit-identical.
        origin, direction, pixel = req_origin(req), req_dir(req), req_pixel(req)
        bundle = req_bundle(req)
        best_t = miss_t_raw
        best_offset = -1
        best_tri = None
        for offset in range(req_count(req)):
            # A triangle's raws are its vertices' (x, y, z) raws in order.
            at = offset * tri_leaves
            tri_raws = bundle[at : at + 3], bundle[at + 3 : at + 6], bundle[at + 6 : at + 9]
            t = geometry.intersect_triangle_raw(
                origin, direction, tri_raws[0], tri_raws[1], tri_raws[2], fb, total_bits
            )
            if t is not None and t < best_t:
                best_t, best_offset, best_tri = t, offset, tri_raws
        if best_offset < 0:
            return RawStruct(hit_t, (False, miss_t_raw, 0, pixel, 0))
        shade = geometry.lambert_shade_raw(best_tri[0], best_tri[1], best_tri[2], light_raws, ib, fb)
        return RawStruct(hit_t, (True, best_t, req_base(req) + best_offset, pixel, shade))

    def intersect_leaf_oracle(req):
        ray = req["ray"]
        best_hit = geometry.miss_hit(ib, fb)
        best_hit["pixel"] = ray["pixel"]
        for offset in range(req["count"]):
            triangle = req["bundle"][offset]
            t = geometry.intersect_triangle(ray, triangle)
            if t is not None and t < best_hit["t"]:
                best_hit = {
                    "hit": True,
                    "t": t,
                    "tri": req["base"] + offset,
                    "pixel": ray["pixel"],
                    "shade": geometry.lambert_shade(triangle, light, ib, fb),
                }
        return best_hit

    def better_hit_fn(current, candidate):
        # Wrapped raws of one format order like the values they stand for.
        if hit_hit(candidate) and (not hit_hit(current) or hit_t_raw(candidate) < hit_t_raw(current)):
            return candidate
        return current

    def make_result_fn(ray, best_hit):
        return RawStruct(
            hit_t,
            (
                hit_hit(best_hit),
                hit_t_raw(best_hit),
                hit_tri(best_hit),
                ray_pixel(ray),
                hit_shade(best_hit),
            ),
        )

    def shade_color_fn(hit):
        return RawStruct(color_t, (hit_pixel(hit), hit_shade(hit) if hit_hit(hit) else 0))

    def fold_checksum_fn(running, color):
        return (running * 31 + (color_value(color) & value_mask) + color_pixel(color)) & 0xFFFFFFFF

    # -- rules ------------------------------------------------------------------------------

    raygen.add_rule(
        "gen_ray",
        par(
            ray_q.call("enq", kc("ray_gen", ray_gen_fn, [RegRead(pixel_idx)], 220, 220)),
            pixel_idx.write(BinOp("+", RegRead(pixel_idx), Const(1))),
        ).when(BinOp("<", RegRead(pixel_idx), Const(params.n_rays))),
    )

    # BVH node memory server.
    bvh_mem.add_rule(
        "serve_bvh",
        par(
            bvh_resp_q.call(
                "enq",
                nodes_rf.value("sub", FieldSelect(bvh_req_q.value("first"), "index")),
            ),
            bvh_req_q.call("deq"),
        ),
    )

    # Scene (triangle) memory server: always reads a full fixed-size bundle.
    scene_mem.add_rule(
        "serve_scene",
        LetA(
            "req",
            scene_req_q.value("first"),
            par(
                scene_resp_q.call(
                    "enq",
                    kc(
                        "make_bundle",
                        make_bundle_fn,
                        [FieldSelect(Var("req"), "start"), FieldSelect(Var("req"), "count")]
                        + [
                            tris_rf.value(
                                "sub", BinOp("+", FieldSelect(Var("req"), "start"), Const(k))
                            )
                            for k in range(params.leaf_size)
                        ],
                        40,
                        2,
                    ),
                ),
                scene_req_q.call("deq"),
            ),
        ),
    )

    # Traversal state machine.
    not_waiting = BinOp(
        "&&",
        BinOp("&&", UnOp("!", RegRead(awaiting_node)), UnOp("!", RegRead(awaiting_leaf))),
        UnOp("!", RegRead(awaiting_geom)),
    )
    stack_depth = kc("stack_depth", lambda s: len(s), [RegRead(stack)], 6, 1)

    trav.add_rule(
        "start_ray",
        par(
            cur_ray.write(ray_q.value("first")),
            ray_q.call("deq"),
            stack.write(Const((0,))),
            best.write(Const(miss)),
            busy.write(Const(True)),
        ).when(UnOp("!", RegRead(busy))),
    )

    trav.add_rule(
        "issue_node",
        par(
            bvh_req_q.call(
                "enq",
                kc("make_mem_req", make_mem_req_fn, [kc("stack_top", lambda s: s[-1], [RegRead(stack)], 8, 1)], 8, 1),
            ),
            stack.write(kc("stack_pop", lambda s: s[:-1], [RegRead(stack)], 8, 1)),
            awaiting_node.write(Const(True)),
        ).when(
            BinOp(
                "&&",
                BinOp("&&", RegRead(busy), not_waiting),
                BinOp(">", stack_depth, Const(0)),
            )
        ),
    )

    trav.add_rule(
        "process_node",
        LetA(
            "res",
            kc(
                "process_node",
                process_node_fn,
                [RegRead(cur_ray), bvh_resp_q.value("first"), RegRead(stack)],
                140,
                4,
            ),
            par(
                stack.write(FieldSelect(Var("res"), "stack")),
                IfA(
                    FieldSelect(Var("res"), "fetch_leaf"),
                    par(
                        scene_req_q.call("enq", FieldSelect(Var("res"), "leaf_req")),
                        awaiting_leaf.write(Const(True)),
                    ),
                ),
                bvh_resp_q.call("deq"),
                awaiting_node.write(Const(False)),
            ),
        ).when(RegRead(awaiting_node)),
    )

    trav.add_rule(
        "forward_leaf",
        par(
            geom_req_q.call(
                "enq",
                kc(
                    "make_geom_req",
                    make_geom_req_fn,
                    [RegRead(cur_ray), scene_resp_q.value("first")],
                    30,
                    1,
                ),
            ),
            scene_resp_q.call("deq"),
            awaiting_leaf.write(Const(False)),
            awaiting_geom.write(Const(True)),
        ).when(RegRead(awaiting_leaf)),
    )

    trav.add_rule(
        "merge_hit",
        par(
            best.write(
                kc(
                    "better_hit",
                    better_hit_fn,
                    [RegRead(best), geom_resp_q.value("first")],
                    30,
                    1,
                )
            ),
            geom_resp_q.call("deq"),
            awaiting_geom.write(Const(False)),
        ).when(RegRead(awaiting_geom)),
    )

    trav.add_rule(
        "finish_ray",
        par(
            hit_q.call(
                "enq",
                kc("make_result", make_result_fn, [RegRead(cur_ray), RegRead(best)], 20, 1),
            ),
            busy.write(Const(False)),
        ).when(
            BinOp(
                "&&",
                BinOp("&&", RegRead(busy), not_waiting),
                BinOp("==", stack_depth, Const(0)),
            )
        ),
    )

    # Geometry intersection engine (the compute-heavy leaf test).
    geom.add_rule(
        "intersect_leaf",
        par(
            geom_resp_q.call(
                "enq",
                kc("intersect_leaf", intersect_leaf_fn, [geom_req_q.value("first")], 620, 8),
            ),
            geom_req_q.call("deq"),
        ),
    )

    # Shading.
    shader.add_rule(
        "shade",
        par(
            color_q.call(
                "enq", kc("shade_color", shade_color_fn, [hit_q.value("first")], 320, 6)
            ),
            hit_q.call("deq"),
        ),
    )

    # Bitmap sink (always software).
    bitmap.add_rule(
        "store_pixel",
        LetA(
            "c",
            color_q.value("first"),
            par(
                image_rf.call(
                    "upd", FieldSelect(Var("c"), "pixel"), FieldSelect(Var("c"), "value")
                ),
                checksum.write(
                    kc(
                        "fold_checksum",
                        fold_checksum_fn,
                        [RegRead(checksum), color_q.value("first")],
                        60,
                        60,
                    )
                ),
                done_count.write(BinOp("+", RegRead(done_count), Const(1))),
                color_q.call("deq"),
            ),
        ),
    )

    design = Design(top, name)
    return RayTracer(
        design=design,
        params=params,
        placement=placement,
        bvh=bvh,
        done_count=done_count,
        checksum=checksum,
        image=image_rf,
        pixel_idx=pixel_idx,
        modules={
            "raygen": raygen,
            "trav": trav,
            "geom": geom,
            "bvh_mem": bvh_mem,
            "scene_mem": scene_mem,
            "shader": shader,
            "bitmap": bitmap,
        },
        syncs={
            "ray_q": ray_q,
            "bvh_req_q": bvh_req_q,
            "bvh_resp_q": bvh_resp_q,
            "scene_req_q": scene_req_q,
            "scene_resp_q": scene_resp_q,
            "geom_req_q": geom_req_q,
            "geom_resp_q": geom_resp_q,
            "hit_q": hit_q,
            "color_q": color_q,
        },
    )
