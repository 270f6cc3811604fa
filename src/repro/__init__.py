"""Reproduction of *Automatic Generation of Hardware/Software Interfaces* (ASPLOS 2012).

The package implements BCL -- the Bluespec Codesign Language of King, Dave and
Arvind -- as an embedded Python DSL, together with everything the paper's
evaluation depends on:

``repro.core``
    The kernel language (guarded atomic actions, rules, modules), its
    operational semantics, the when-axioms and compiler optimisations,
    computational domains and the partitioner.
``repro.codegen``
    C++ / BSV source generation and HW/SW interface (transactor)
    generation.
``repro.platform``
    The physical-channel substrate: shared bus / LocalLink model, LIBDN
    FIFOs, marshaling.
``repro.sim``
    The hardware cycle simulator, the software cost-model engine and the
    co-simulator that connects partitions over a channel.
``repro.apps``
    The two applications evaluated in the paper: the Ogg Vorbis back-end and
    a ray tracer, each with the full set of HW/SW partitions.
``repro.baselines``
    Hand-coded software and SystemC-style discrete-event baselines.
"""

from repro.core.types import (
    BoolT,
    BitT,
    UIntT,
    IntT,
    FixPtT,
    ComplexT,
    VectorT,
    StructT,
)
from repro.core.fixedpoint import FixedPoint, FixComplex
from repro.core.module import Module, Register, Rule, Method, Design
from repro.core.primitives import Fifo, RegFile, PulseWire
from repro.core.synchronizers import SyncFifo
from repro.core.domains import Domain, HW, SW, DomainError
from repro.core.partition import partition_design
from repro.sim.cosim import CosimFabric, Cosimulator, CosimResult
from repro.platform.channel import Topology
from repro.platform.platform import Platform

__version__ = "1.0.0"

__all__ = [
    "BoolT",
    "BitT",
    "UIntT",
    "IntT",
    "FixPtT",
    "ComplexT",
    "VectorT",
    "StructT",
    "FixedPoint",
    "FixComplex",
    "Module",
    "Register",
    "Rule",
    "Method",
    "Design",
    "Fifo",
    "RegFile",
    "PulseWire",
    "SyncFifo",
    "Domain",
    "HW",
    "SW",
    "DomainError",
    "partition_design",
    "CosimFabric",
    "Cosimulator",
    "CosimResult",
    "Topology",
    "Platform",
]
