"""The shipped-workload catalog the lint CLI and the clean-pass tests share.

Each entry is the same picklable builder-spec contract the worker pool
uses: a module-level builder plus plain-data args, producing
a workload object with a ``.design`` (the catalog never imports the app
modules until a workload is actually built, keeping ``python -m
repro.analysis --list`` instant).

The catalog is the definition of "every shipped workload" in the
acceptance criteria: the Figure 13 Vorbis partitions A-F, the Figure 14
ray-tracer partitions A-D, the multi-domain placements G/H and the
multi-group (independently clocked pipelines) workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Dict, List, Tuple


@dataclass(frozen=True)
class WorkloadSpec:
    """One shipped workload: where to build it and how (plain data)."""

    name: str
    module: str
    builder: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self):
        """Elaborate the workload (imports the app module lazily)."""
        fn = getattr(import_module(self.module), self.builder)
        return fn(*self.args, **dict(self.kwargs))


def shipped_workloads() -> List[WorkloadSpec]:
    """Every shipped workload, in report order."""
    specs: List[WorkloadSpec] = []
    for letter in "ABCDEF":
        specs.append(
            WorkloadSpec(
                name=f"vorbis_{letter}",
                module="repro.apps.vorbis.partitions",
                builder="build_partition",
                args=(letter,),
            )
        )
    for letter in "GH":
        specs.append(
            WorkloadSpec(
                name=f"vorbis_{letter}",
                module="repro.apps.vorbis.partitions",
                builder="build_multi_partition",
                args=(letter,),
            )
        )
    specs.append(
        WorkloadSpec(
            name="vorbis_mg_BC",
            module="repro.apps.vorbis.partitions",
            builder="build_group_partition",
            args=("BC",),
        )
    )
    specs.append(
        WorkloadSpec(
            name="vorbis_mg_BCF",
            module="repro.apps.vorbis.partitions",
            builder="build_group_partition",
            args=("BCF",),
        )
    )
    for letter in "ABCD":
        specs.append(
            WorkloadSpec(
                name=f"raytracer_{letter}",
                module="repro.apps.raytracer.partitions",
                builder="build_partition",
                args=(letter,),
            )
        )
    return specs


def workload_by_name(name: str) -> WorkloadSpec:
    for spec in shipped_workloads():
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in shipped_workloads())
    raise KeyError(f"unknown workload {name!r}; shipped workloads: {known}")
