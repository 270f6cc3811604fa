"""Differential and property tests for the compiled kernel dataplane.

The kernel compiler (:mod:`repro.core.kernelcompile`) gives every foreign
kernel up to three backends -- ``oracle`` (the original object-based code),
``python`` (batch loops over flat raw ints) and ``numpy`` (int64
vectorised) -- plus a memoised pure-kernel result cache.  The contract is
the same one the rule and transport dataplanes already carry: **backends
are bit-interchangeable**.  These tests enforce it at three levels:

* kernel level -- every vorbis kernel and every raw geometry kernel agrees
  with its oracle on random inputs (negatives included) across several
  fixed-point formats, including one wider than the NumPy backend's int64
  safety bound;
* cache level -- memoisation never changes a result, only whether it is
  recomputed;
* system level -- full co-simulations produce bitwise-identical
  ``CosimResult``s whichever kernel backend runs, under both rule-execution
  backends.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.raytracer import bvh, geometry
from repro.apps.vorbis import kernels
from repro.core import kernelcompile as kc
from repro.core.fixedpoint import (
    FixComplex,
    FixedPoint,
    RawComplexVector,
    RawFixVector,
    box_complex_vector,
    box_fixed_vector,
)

#: (int_bits, frac_bits) formats under test; (24, 40) is wider than
#: ``NUMPY_MAX_TOTAL_BITS`` and must silently take the python path.
FORMATS = [(8, 24), (16, 16), (4, 12), (24, 40)]

BACKENDS = ["oracle", "python"] + (["numpy"] if kc.HAVE_NUMPY else [])

#: The formats of ``FORMATS`` the NumPy backend runs, one with no integer
#: bits, and the two 32-bit formats where the NumPy wraps' fused shift
#: count ``64 - total - frac_bits`` is 0 and 24.
EDGE_FORMATS = [fmt for fmt in FORMATS if sum(fmt) <= kc.NUMPY_MAX_TOTAL_BITS] + [
    (0, 16),
    (0, 32),
    (24, 8),
]


def _rand_fix(rng, int_bits, frac_bits):
    total = int_bits + frac_bits
    return FixedPoint.from_raw(
        rng.randrange(-(1 << (total - 1)), 1 << (total - 1)), int_bits, frac_bits
    )


def _rand_frame(rng, n, int_bits, frac_bits):
    return tuple(_rand_fix(rng, int_bits, frac_bits) for _ in range(n))


def _rand_spectrum(rng, n, int_bits, frac_bits):
    return tuple(
        FixComplex(_rand_fix(rng, int_bits, frac_bits), _rand_fix(rng, int_bits, frac_bits))
        for _ in range(n)
    )


@pytest.fixture(autouse=True)
def _cold_cache():
    """Each test starts with a cold kernel cache and leaves none behind."""
    kc.clear_kernel_cache()
    yield
    kc.clear_kernel_cache()


# --------------------------------------------------------------------------
# vorbis kernels: backend matrix
# --------------------------------------------------------------------------


class TestVorbisBackendMatrix:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("n", [8, 64])
    def test_all_kernels_bit_identical(self, fmt, n):
        """Every vorbis kernel returns the oracle's exact values on every
        backend, across formats and frame sizes (random inputs, negatives
        included), whether its inputs arrive as boxed tuples or in the raw
        form; the fast backends return the raw form."""
        ib, fb = fmt
        rng = random.Random(ib * 1000 + fb * 10 + n)
        frame = _rand_frame(rng, n, ib, fb)
        half = _rand_frame(rng, n // 2, ib, fb)
        spectrum = _rand_spectrum(rng, n, ib, fb)
        boxed_inputs = (frame, half, spectrum)
        raw_inputs = (
            box_fixed_vector([v.raw for v in frame], ib, fb),
            box_fixed_vector([v.raw for v in half], ib, fb),
            box_complex_vector(
                [v.real.raw for v in spectrum], [v.imag.raw for v in spectrum], ib, fb
            ),
        )
        with kc.kernel_cache_override(False):
            expected = {}
            for backend in BACKENDS:
                for frame_in, half_in, spectrum_in in (boxed_inputs, raw_inputs):
                    with kc.kernel_backend_override(backend):
                        got = {
                            "gen_frame": kernels.gen_frame(3, n, 2012, ib, fb),
                            "backend_input": kernels.backend_input(frame_in, ib, fb),
                            "imdct_pre": kernels.imdct_pre(frame_in, ib, fb),
                            "rule_stage0": kernels.ifft_rule_stage(0, spectrum_in, 2, ib, fb),
                            "rule_stage1": kernels.ifft_rule_stage(1, spectrum_in, 2, ib, fb),
                            "ifft_full": kernels.ifft_full(spectrum_in, ib, fb),
                            "imdct_post": kernels.imdct_post(spectrum_in, ib, fb),
                            "window": kernels.window_overlap(half_in, frame_in, ib, fb),
                            "checksum": kernels.audio_checksum(frame_in, 17),
                        }
                    if not expected:
                        expected = got
                        continue
                    for name, value in got.items():
                        assert value == expected[name], (backend, name, fmt, n)
                    if backend != "oracle":
                        assert type(got["window"]) is tuple
                        values = [v for k, v in got.items() if k not in ("window", "checksum")]
                        for value in values + list(got["window"]):
                            assert type(value) in (RawFixVector, RawComplexVector), (
                                backend,
                                fmt,
                                n,
                            )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_edge_cases_bit_identical(self, data):
        """Every Vorbis kernel, and every ``(first, last)`` range of radix
        stages through ``_ifft_stages``, agrees on all backends over raws
        from the format's full signed range, with its two extremes, -1 and 0
        forced into every vector.  The formats are ``EDGE_FORMATS``: in the
        two without integer bits the oracle's 0.5 wraps to -0.5.  At 8, 16
        and 64 points (3, 4 and 6 radix stages) a rule stage of two holds
        two, one or none of them."""
        ib, fb = data.draw(st.sampled_from(EDGE_FORMATS), label="format")
        points = data.draw(st.sampled_from([8, 16, 64]), label="points")
        n = points // 2
        total = ib + fb
        corners = [-(1 << (total - 1)), (1 << (total - 1)) - 1, -1, 0]
        raw = st.one_of(
            st.sampled_from(corners), st.integers(-(1 << (total - 1)), (1 << (total - 1)) - 1)
        )

        def raws(length):
            drawn = data.draw(st.lists(raw, min_size=length - 4, max_size=length - 4))
            return data.draw(st.permutations(corners + drawn))

        frame = box_fixed_vector(raws(n), ib, fb)
        current = box_fixed_vector(raws(points), ib, fb)
        spectrum = box_complex_vector(raws(points), raws(points), ib, fb)
        index = data.draw(st.integers(0, 1 << 16), label="index")
        seed = data.draw(st.integers(0, 1 << 32), label="seed")
        stages = points.bit_length() - 1
        ranges = [(a, b) for a in range(stages) for b in range(a + 1, stages + 1)]

        def ifft_range(first, last, backend):
            if backend != "oracle":
                return kernels._ifft_stages(first, last, spectrum, ib, fb, backend)
            out = spectrum
            for stage in range(first, last):
                out = kernels.ifft_radix_stage_oracle(stage, out, ib, fb)
            return out

        results = {}
        with kc.kernel_cache_override(False):
            for backend in BACKENDS:
                with kc.kernel_backend_override(backend):
                    got = {
                        "gen_frame": kernels.gen_frame(index, n, seed, ib, fb),
                        "backend_input": kernels.backend_input(frame, ib, fb),
                        "imdct_pre": kernels.imdct_pre(frame, ib, fb),
                        "rule_stage": [
                            kernels.ifft_rule_stage(r, spectrum, 2, ib, fb) for r in range(3)
                        ],
                        "ifft_full": kernels.ifft_full(spectrum, ib, fb),
                        "imdct_post": kernels.imdct_post(spectrum, ib, fb),
                        "window": kernels.window_overlap(frame, current, ib, fb),
                        "checksum": kernels.audio_checksum(current, seed),
                    }
                    for first, last in ranges:
                        got[first, last] = ifft_range(first, last, backend)
                results[backend] = got
        for backend in BACKENDS[1:]:
            for name, value in results[backend].items():
                assert value == results["oracle"][name], (backend, name, (ib, fb), points)

    def test_wide_format_demotes_numpy_to_python(self):
        """Formats beyond the int64 safety bound never take the numpy path."""
        if not kc.HAVE_NUMPY:
            pytest.skip("NumPy not available")
        with kc.kernel_backend_override("numpy"):
            assert kc.effective_backend(32) == "numpy"
            assert kc.effective_backend(64) == "python"
        with kc.kernel_backend_override("python"):
            assert kc.effective_backend(64) == "python"
        with kc.kernel_backend_override("oracle"):
            assert kc.effective_backend(16) == "oracle"

    def test_window_overlap_length_error_identical_on_fast_path(self):
        """The fast path validates frame lengths before unboxing, raising the
        oracle's exact ValueError."""
        half = _rand_frame(random.Random(0), 4, 8, 24)
        bad = _rand_frame(random.Random(1), 5, 8, 24)
        messages = {}
        for backend in BACKENDS:
            with kc.kernel_backend_override(backend):
                with pytest.raises(ValueError) as exc:
                    kernels.window_overlap(half, bad, 8, 24)
                messages[backend] = str(exc.value)
        assert len(set(messages.values())) == 1, messages

    def test_backend_selection_api(self):
        previous = kc.kernel_backend()
        with pytest.raises(ValueError):
            kc.set_kernel_backend("fortran")
        assert kc.kernel_backend() == previous
        with kc.kernel_backend_override("auto") as resolved:
            assert resolved == ("numpy" if kc.HAVE_NUMPY else "python")
        assert kc.kernel_backend() == previous
        if not kc.HAVE_NUMPY:
            with pytest.raises(ValueError):
                kc.set_kernel_backend("numpy")


def test_tables_and_plans_are_built_on_first_use():
    """Importing the kernels and building and snapshotting vorbis_C and
    vorbis_G, as a warm benchmark's set-up does, fills no table, constant
    or plan cache of the kernel module: nothing is allocated before a
    kernel runs.  A fresh interpreter, since other tests fill them."""
    script = textwrap.dedent(
        """
        import json
        from repro.apps.vorbis import kernels, partitions
        from repro.apps.vorbis.params import VorbisParams
        from repro.sim.cosim import CosimFabric

        for build, letter in (
            (partitions.build_partition, "C"),
            (partitions.build_multi_partition, "G"),
        ):
            CosimFabric(build(letter, VorbisParams(n_frames=16)).design).snapshot()
        caches = {n: f for n, f in vars(kernels).items() if hasattr(f, "cache_info")}
        print(json.dumps({n: f.cache_info().currsize for n, f in caches.items()}))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    built = json.loads(proc.stdout.splitlines()[-1])
    assert {"_twiddles_raw", "_np_consts", "_ifft_plan", "_pre_plan"} <= set(built)
    assert not any(built.values()), built


# --------------------------------------------------------------------------
# the memoised kernel result cache
# --------------------------------------------------------------------------


class TestKernelCache:
    def test_hit_returns_the_cached_object(self):
        frame = _rand_frame(random.Random(7), 16, 8, 24)
        with kc.kernel_backend_override("python"), kc.kernel_cache_override(True):
            first = kernels.imdct_pre(frame, 8, 24)
            before = kc.kernel_cache_info()["hits"]
            second = kernels.imdct_pre(frame, 8, 24)
            assert kc.kernel_cache_info()["hits"] == before + 1
        assert second is first

    def test_disabled_cache_recomputes_equal_values(self):
        frame = _rand_frame(random.Random(8), 16, 8, 24)
        with kc.kernel_backend_override("python"), kc.kernel_cache_override(False):
            first = kernels.imdct_pre(frame, 8, 24)
            second = kernels.imdct_pre(frame, 8, 24)
            assert kc.kernel_cache_info()["entries"] == 0
        assert second is not first
        assert second == first

    def test_cached_equals_uncached_across_kernels(self):
        rng = random.Random(9)
        frame = _rand_frame(rng, 32, 8, 24)
        half = _rand_frame(rng, 16, 8, 24)
        spectrum = _rand_spectrum(rng, 32, 8, 24)
        with kc.kernel_backend_override("python"):
            runs = {}
            for cached in (True, False):
                with kc.kernel_cache_override(cached):
                    runs[cached] = (
                        kernels.gen_frame(0, 32, 2012, 8, 24),
                        kernels.ifft_full(spectrum, 8, 24),
                        kernels.imdct_post(spectrum, 8, 24),
                        kernels.window_overlap(half, frame, 8, 24),
                    )
        assert runs[True] == runs[False]

    def test_cache_bound_is_enforced(self):
        with kc.kernel_backend_override("python"), kc.kernel_cache_override(True):
            limit = kc.kernel_cache_info()["limit"]
            for i in range(8):
                kernels.gen_frame(i, 8, 2012, 8, 24)
            assert 0 < kc.kernel_cache_info()["entries"] <= limit

    def test_disabling_clears(self):
        with kc.kernel_backend_override("python"), kc.kernel_cache_override(True):
            kernels.gen_frame(0, 8, 2012, 8, 24)
            assert kc.kernel_cache_info()["entries"] > 0
            with kc.kernel_cache_override(False):
                assert kc.kernel_cache_info()["entries"] == 0


# --------------------------------------------------------------------------
# raytracer raw kernels: property tests against the object oracles
# --------------------------------------------------------------------------


class TestGeometryRawKernels:
    @pytest.mark.parametrize("fmt", [(16, 16), (8, 24)])
    def test_triangle_and_box_and_shade_match_oracle(self, fmt):
        ib, fb = fmt
        rng = random.Random(ib * 100 + fb)
        light = geometry.light_direction(ib, fb)
        light_raws = geometry.vec_raws(light)

        def rand_vec(lo=-4.0, hi=4.0):
            return geometry.vec(
                rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi), ib, fb
            )

        for _ in range(400):
            origin = rand_vec()
            direction = rand_vec(-1.0, 1.0)
            if rng.random() < 0.2:
                # Degenerate direction components exercise the epsilon branch.
                axis = rng.choice(("x", "y", "z"))
                direction = dict(direction)
                direction[axis] = FixedPoint.zero(ib, fb)
            ray = {"origin": origin, "dir": direction, "pixel": 0}
            o_raws = geometry.vec_raws(origin)
            d_raws = geometry.vec_raws(direction)

            v0, v1, v2 = rand_vec(), rand_vec(), rand_vec()
            tri = {"v0": v0, "v1": v1, "v2": v2}
            t_oracle = geometry.intersect_triangle(ray, tri)
            t_raw = geometry.intersect_triangle_raw(
                o_raws,
                d_raws,
                geometry.vec_raws(v0),
                geometry.vec_raws(v1),
                geometry.vec_raws(v2),
                fb,
                ib + fb,
            )
            if t_oracle is None:
                assert t_raw is None
            else:
                assert t_raw == t_oracle.raw

            lo = geometry.v_min(geometry.v_min(v0, v1), v2)
            hi = geometry.v_max(geometry.v_max(v0, v1), v2)
            assert geometry.intersect_box_raw(
                o_raws, d_raws, geometry.vec_raws(lo), geometry.vec_raws(hi), fb, ib + fb
            ) == geometry.intersect_box(ray, lo, hi)

            shade_oracle = geometry.lambert_shade(tri, light, ib, fb)
            shade_raw = geometry.lambert_shade_raw(
                geometry.vec_raws(v0),
                geometry.vec_raws(v1),
                geometry.vec_raws(v2),
                light_raws,
                ib,
                fb,
            )
            assert shade_raw == shade_oracle.raw

    def test_degenerate_triangle_never_hit_on_fast_path(self):
        tri = geometry.degenerate_triangle()
        ray = geometry.camera_ray(0, 4, 4)
        assert (
            geometry.intersect_triangle_raw(
                geometry.vec_raws(ray["origin"]),
                geometry.vec_raws(ray["dir"]),
                geometry.vec_raws(tri["v0"]),
                geometry.vec_raws(tri["v1"]),
                geometry.vec_raws(tri["v2"]),
                16,
                32,
            )
            is None
        )

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "oracle"])
    def test_traverse_matches_oracle_on_camera_rays(self, backend):
        triangles = geometry.generate_scene(48, seed=5)
        tree = bvh.build_bvh(triangles)
        for pixel in range(36):
            ray = geometry.camera_ray(pixel, 6, 6)
            with kc.kernel_backend_override("oracle"):
                want = bvh.traverse(tree, ray)
            with kc.kernel_backend_override(backend):
                got = bvh.traverse(tree, ray)
            assert got == want


def _boxed(value):
    """``value`` with every raw struct and raw vector in it boxed: the dict
    form of a struct, a tuple of ``FixedPoint`` for a vector."""
    from repro.core.fixedpoint import RawComplexVector, RawFixVector
    from repro.core.types import RawStruct

    if type(value) is RawStruct:
        return {name: _boxed(field) for name, field in value.items()}
    if type(value) in (RawFixVector, RawComplexVector):
        return tuple(value)
    if type(value) is tuple:
        return tuple(map(_boxed, value))
    return value


class TestRaytracerStructKernels:
    """The design's struct-valued kernels on random raw inputs.  Each
    returns the same value for the raw and the dict form of its inputs, a
    RawStruct where it builds a struct; process_node and intersect_leaf,
    whose fixed-point work runs over raw ints, also match the oracle's
    FixedPoint code."""

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "oracle"])
    def test_raw_kernels_match_oracle_on_random_raw_inputs(self, backend):
        from repro.analysis.purity import design_kernels
        from repro.apps.raytracer import partitions as rp
        from repro.apps.raytracer.params import RayTracerParams
        from repro.core.types import RawStruct

        params = RayTracerParams(n_triangles=24, image_width=4, image_height=4)
        workload = rp.build_partition("B", params)
        fns = {name: fn for name, fn in design_kernels(workload.design)}
        types = geometry.struct_types(params.int_bits, params.frac_bits, params.leaf_size)
        tree = workload.bvh
        rng = random.Random(backend)

        def rand(name):
            ty = types[name]
            return ty.unpack(rng.getrandbits(ty.bit_width()))

        def camera(pixel):
            return types["ray"].raw(geometry.camera_ray(pixel, 4, 4))

        # Camera rays and the scene triangle each one hits first.
        targets = []
        for pixel in range(params.n_rays):
            found, _, tri_index = bvh.traverse_oracle(tree, camera(pixel))
            if found:
                targets.append((pixel, tri_index))
        assert targets

        def ray_and_leaf():
            """A ray and a leaf bundle: one that hits, a camera ray against a
            scene leaf, or random raws."""
            mode = rng.random()
            if mode < 0.4:
                pixel, start = rng.choice(targets)
                the_ray = camera(pixel)
            else:
                the_ray = camera(rng.randrange(params.n_rays)) if mode < 0.7 else rand("ray")
                start = rng.randrange(len(tree.triangles))
            tris = [
                tree.triangles[(start + k) % len(tree.triangles)]
                if rng.random() < 0.8
                else rand("triangle")
                for k in range(params.leaf_size)
            ]
            return the_ray, start, rng.randrange(1, params.leaf_size + 1), tris

        struct_results = {
            "ray_gen", "make_mem_req", "make_bundle", "make_geom_req",
            "intersect_leaf", "better_hit", "make_result", "shade_color",
        }
        hits = 0
        for _ in range(150):
            the_ray, start, count, tris = ray_and_leaf()
            data = RawStruct(
                types["leaf_data"], sum((t.raws for t in tris), ()) + (count, start)
            )
            request = RawStruct(types["geom_req"], the_ray.raws + data.raws)
            node = rng.choice(tree.nodes) if rng.random() < 0.5 else rand("node")
            cases = [
                ("ray_gen", (rng.randrange(params.n_rays),)),
                ("make_mem_req", (rng.randrange(1 << 16),)),
                ("process_node", (the_ray, node, (3, 1))),
                ("make_bundle", (start, count, *tris)),
                ("make_geom_req", (the_ray, data)),
                ("intersect_leaf", (request,)),
                ("better_hit", (rand("hit"), rand("hit"))),
                ("make_result", (the_ray, rand("hit"))),
                ("shade_color", (rand("hit"),)),
                ("fold_checksum", (rng.getrandbits(32), rand("color"))),
            ]
            for name, args in cases:
                with kc.kernel_backend_override(backend):
                    got = fns[name](*args)
                    from_dicts = fns[name](*map(_boxed, args))
                assert from_dicts == got, name
                assert repr(from_dicts) == repr(got), name
                if name in ("process_node", "intersect_leaf"):
                    with kc.kernel_backend_override("oracle"):
                        want = fns[name](*args)
                    assert got == want, name
                    assert repr(got) == repr(want), name
                if name in struct_results:
                    assert type(got) is RawStruct, name
                if name == "process_node":
                    assert type(got["leaf_req"]) is RawStruct
                if name == "intersect_leaf":
                    hits += got["hit"]
        assert hits > 10, hits


# --------------------------------------------------------------------------
# system level: CosimResults are backend-independent
# --------------------------------------------------------------------------


def _vorbis_snapshot(letter, kernel_backend, rule_backend, cache=True):
    from repro.apps.vorbis import partitions as vp
    from repro.apps.vorbis.params import VorbisParams
    from repro.sim.cosim import Cosimulator

    with kc.kernel_backend_override(kernel_backend), kc.kernel_cache_override(cache):
        workload = vp.build_partition(letter, VorbisParams(n_frames=2))
        cosim = Cosimulator(workload.design, backend=rule_backend)
        result = cosim.run(workload.cosim_done, max_cycles=500_000_000)
        return asdict(result), cosim.read_sw(workload.checksum)


def _raytracer_snapshot(letter, kernel_backend, rule_backend):
    from repro.apps.raytracer import partitions as rp
    from repro.apps.raytracer.params import RayTracerParams
    from repro.sim.cosim import Cosimulator

    with kc.kernel_backend_override(kernel_backend):
        workload = rp.build_partition(
            letter, RayTracerParams(n_triangles=24, image_width=3, image_height=3)
        )
        cosim = Cosimulator(workload.design, backend=rule_backend)
        result = cosim.run(workload.cosim_done, max_cycles=500_000_000)
        return asdict(result), cosim.read_sw(workload.checksum)


class TestCosimBackendIndependence:
    @pytest.mark.parametrize("rule_backend", ["interp", "source"])
    @pytest.mark.parametrize("letter", ["B", "F"])
    def test_vorbis_results_identical_across_kernel_backends(self, letter, rule_backend):
        """Partition B crosses the HW/SW cut mid-pipeline; F runs every
        kernel in software.  Either way the CosimResult may not depend on
        the kernel backend."""
        want = _vorbis_snapshot(letter, "oracle", rule_backend)
        for backend in BACKENDS[1:]:
            assert _vorbis_snapshot(letter, backend, rule_backend) == want

    @pytest.mark.parametrize("rule_backend", ["interp", "source"])
    @pytest.mark.parametrize("letter", ["A", "C"])
    def test_raytracer_results_identical_across_kernel_backends(self, letter, rule_backend):
        """Partition A traces entirely in software, C entirely in hardware."""
        want = _raytracer_snapshot(letter, "oracle", rule_backend)
        for backend in BACKENDS[1:]:
            assert _raytracer_snapshot(letter, backend, rule_backend) == want

    def test_vorbis_results_identical_with_and_without_cache(self):
        """Memoisation is invisible in the CosimResult, not just the audio."""
        with_cache = _vorbis_snapshot("F", "python", "source", cache=True)
        without = _vorbis_snapshot("F", "python", "source", cache=False)
        assert with_cache == without
