"""Shared helpers for the benchmark harness.

Every benchmark prints the same rows/series the paper reports (execution
times in FPGA cycles per partition) and asserts the qualitative claims of
Section 7.  Workload sizes are reduced relative to the paper's 10 000-frame
audio test bench -- steady state is reached after a handful of frames and the
reported quantity is per-frame/per-ray, so the shape is unaffected.  See
EXPERIMENTS.md for the recorded numbers.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.apps.raytracer.params import RayTracerParams
from repro.apps.raytracer import partitions as rt_partitions
from repro.apps.vorbis.params import VorbisParams
from repro.apps.vorbis import partitions as vorbis_partitions
from repro.core.optimize import OptimizationConfig
from repro.platform.platform import Platform
from repro.sim.cosim import Cosimulator, CosimResult

#: Benchmark workloads (small but past pipeline-fill effects).
VORBIS_PARAMS = VorbisParams(n_frames=12)
RAYTRACER_PARAMS = RayTracerParams(n_triangles=96, image_width=5, image_height=5)


def run_vorbis_partition(
    letter: str,
    params: VorbisParams = VORBIS_PARAMS,
    config: OptimizationConfig | None = None,
    burst: bool = True,
    platform: Platform | None = None,
    backend: str | None = None,
) -> CosimResult:
    """Co-simulate one Vorbis partition and return its result.

    ``backend`` selects the execution backend (``None`` -- the default,
    ``"source"`` unless ``REPRO_RULE_BACKEND`` says otherwise; ``"interp"``
    for the tree-walking reference).  Both produce bitwise-identical
    results, which ``tests/test_compiled_backend.py`` verifies.
    """
    workload = vorbis_partitions.build_partition(letter, params)
    cosim = Cosimulator(
        workload.design,
        platform=platform or Platform.ml507(),
        config=config or OptimizationConfig.all(),
        burst=burst,
        backend=backend,
    )
    return cosim.run(workload.cosim_done, max_cycles=500_000_000)


def run_raytracer_partition(
    letter: str,
    params: RayTracerParams = RAYTRACER_PARAMS,
    burst: bool = True,
    backend: str | None = None,
) -> CosimResult:
    """Co-simulate one ray-tracer partition and return its result."""
    tracer = rt_partitions.build_partition(letter, params)
    cosim = Cosimulator(tracer.design, burst=burst, backend=backend)
    return cosim.run(tracer.cosim_done, max_cycles=500_000_000)


def print_table(title: str, rows: Dict[str, float], unit: str) -> None:
    """Print a small aligned results table (the 'figure' output)."""
    print(f"\n=== {title} ===")
    width = max(len(k) for k in rows)
    for key, value in rows.items():
        print(f"  {key:<{width}}  {value:12.1f} {unit}")


@pytest.fixture(scope="session")
def vorbis_results() -> Dict[str, CosimResult]:
    """Co-simulation results of all six Vorbis partitions (computed once per session)."""
    return {
        letter: run_vorbis_partition(letter)
        for letter in vorbis_partitions.PARTITION_ORDER
    }


@pytest.fixture(scope="session")
def raytracer_results() -> Dict[str, CosimResult]:
    """Co-simulation results of all four ray-tracer partitions (computed once per session)."""
    return {
        letter: run_raytracer_partition(letter)
        for letter in rt_partitions.PARTITION_ORDER
    }
