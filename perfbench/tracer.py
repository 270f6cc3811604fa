"""Out-of-program tracing: spans around the public entry points of each layer.

A :class:`Tracer` replaces public functions and methods of the simulator
with thin wrappers that record a span -- layer, start, end, parent span,
request id and a flag -- in in-memory columns, and restores the originals
on :meth:`Tracer.uninstall`.  Nothing inside the program changes: every span
is taken from outside, around a call into a layer.

Layers (span names) and the entry points that open them:

* ``apps.build`` -- the workload builders (wrapped by the benchmark itself)
* ``sim.cosim.init`` -- ``CosimFabric.__init__``; the wrapper also wraps the
  new fabric's engine ``step`` / ``step_cycle``
* ``core.pycodegen.generate`` -- the ``generate_*`` functions of
  :mod:`repro.core.pycodegen` (modules counted at ``GeneratedModule``)
* ``codegen.interface`` -- ``build_interface_spec`` and every per-domain /
  per-link generator (artifact bytes counted from their results)
* ``sim.cosim.run`` / ``sim.cosim.done`` / ``sim.cosim.read`` /
  ``sim.cosim.write`` -- ``CosimFabric.run`` (and the done predicate it is
  given), ``CosimFabric.read`` and ``CosimFabric.write``
* ``sim.swsim.step`` / ``sim.hwsim.step`` -- engine ``step`` / ``step_cycle``
* ``platform.marshal.encode`` / ``platform.marshal.decode`` -- the closures
  returned by the ``MessageLayout`` encoder and decoder factories
* ``apps.kernels.call`` -- the kernel module functions of both apps
* ``sim.serve.restore`` -- ``FabricServer.reset``
* ``sim.distrib.run`` -- ``run_distributed``; all other wrappers are
  suspended for its duration, so forked members run untraced code

Boxing helpers (``from_wrapped_raw``, ``box_fixed_vector``,
``box_complex_vector``) are counted, not timed, in every namespace that
binds them.  A call into a layer from inside the same layer opens no new
span, so nested kernel or generator calls are counted once; nor does a
``CosimFabric.read`` made by a done predicate, which is done-predicate
time.

A layer's self time is its span's duration minus the durations of its
direct children.  :func:`reconcile` checks that the layer table adds up:
the per-layer self times of :data:`RUN_PARTS` plus the run's own self time
must equal the summed duration of the ``sim.cosim.run`` spans.  That fails
when a part layer also runs outside simulation calls, or another layer
runs inside them, so the printed parts no longer make up the run time.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: Span names in table order.
LAYERS = (
    "apps.build",
    "sim.cosim.init",
    "core.pycodegen.generate",
    "codegen.interface",
    "sim.cosim.run",
    "sim.swsim.step",
    "sim.hwsim.step",
    "sim.cosim.done",
    "platform.marshal.encode",
    "platform.marshal.decode",
    "apps.kernels.call",
    "sim.serve.restore",
    "sim.cosim.write",
    "sim.cosim.read",
    "sim.distrib.run",
)

LAYER_CODE = {name: code for code, name in enumerate(LAYERS)}

#: Layers that run inside ``sim.cosim.run`` spans and make up their time,
#: together with the run's own self time (``sim.cosim.loop_self_s``).
RUN_PARTS = (
    "sim.swsim.step",
    "sim.hwsim.step",
    "sim.cosim.done",
    "platform.marshal.encode",
    "platform.marshal.decode",
    "apps.kernels.call",
)

VORBIS_KERNELS = (
    "gen_frame",
    "backend_input",
    "imdct_pre",
    "ifft_rule_stage",
    "imdct_post",
    "window_overlap",
    "audio_checksum",
)
RAYTRACER_KERNELS = (
    "camera_ray",
    "intersect_box",
    "intersect_box_raw",
    "intersect_triangle",
    "intersect_triangle_raw",
    "lambert_shade",
    "lambert_shade_raw",
)
INTERFACE_GENERATORS = (
    ("repro.codegen.interface", "build_interface_spec"),
    ("repro.codegen.interface", "generate_sw_header"),
    ("repro.codegen.interface", "generate_hw_arbiter"),
    ("repro.codegen.interface", "generate_sw_marshal_source"),
    ("repro.codegen.interface", "generate_transactors"),
    ("repro.codegen.cxx", "generate_sw_partition"),
    ("repro.codegen.bsv", "generate_hw_partition"),
)
PYCODEGEN_GENERATORS = (
    "generate_rule_execs",
    "generate_counting_attempts",
    "generate_sw_step",
    "generate_hw_step",
    "generate_transport_pump",
    "generate_transport_delivery",
)
BOXING_HELPERS = ("from_wrapped_raw", "box_fixed_vector", "box_complex_vector")


def _artifact_bytes(value: Any) -> int:
    """Bytes of generated text in a generator's result (str or nested dict)."""
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, dict):
        return sum(_artifact_bytes(v) for v in value.values())
    return 0


COLUMNS = ("layer", "start", "end", "parent", "rid", "flag")


class Spans:
    """Recorded spans as parallel columns (about 26 bytes per span)."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rid = array("l")
        self.flag = array("b")

    def __len__(self) -> int:
        return len(self.layer)


class Tracer:
    """Records spans around layer entry points while installed."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.stack: List[int] = []
        #: Identifier of the current operation (request); stamped on spans.
        self.rid = -1
        #: Count-only events: boxing-helper calls, generated modules,
        #: interface artifact bytes.
        self.counts: Dict[str, int] = {
            "core.fixedpoint.boxed": 0,
            "core.pycodegen.modules": 0,
            "codegen.artifact_bytes": 0,
        }
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        #: Where :func:`totals` starts: spans and counts before the mark
        #: (e.g. elaboration ahead of the measured passes) are left out.
        self._mark: Tuple[int, Dict[str, int]] = (0, dict(self.counts))

    def mark(self) -> None:
        """Leave everything recorded so far out of :func:`totals`."""
        self._mark = (len(self.spans), dict(self.counts))

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self, layer: str, fn: Callable, flag: Callable[[Any], int] = None, within: tuple = ()
    ) -> Callable:
        """Wrap ``fn`` so each call records a ``layer`` span.

        ``flag`` maps the call's return value to the span's flag (engine
        steps record whether they made progress).  A call made directly
        inside a span of ``layer`` itself or of a layer in ``within`` opens
        no span, so its time stays with that caller.
        """
        code = LAYER_CODE[layer]
        quiet = {code} | {LAYER_CODE[name] for name in within}
        spans = self.spans
        layers, starts, ends = spans.layer, spans.start, spans.end
        parents, rids, flags = spans.parent, spans.rid, spans.flag
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and layers[stack[-1]] in quiet:
                return fn(*args, **kwargs)
            index = len(layers)
            layers.append(code)
            parents.append(stack[-1] if stack else -1)
            rids.append(tracer.rid)
            flags.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if flag is not None and flag(result):
                flags[index] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn: Callable, amount: Callable[[Any], int] = None) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1 if amount is None else amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name], replacement))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, module: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.name`` in every loaded ``repro`` module binding it."""
        original = getattr(module, name)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                mod.__dict__.get(name) is original
            ):
                self._set(mod, name, replacement)

    def install(self) -> None:
        """Patch every traced entry point."""
        import importlib

        from repro.apps.raytracer import geometry
        from repro.apps.vorbis import kernels
        from repro.core import fixedpoint, pycodegen
        from repro.platform.marshal import MessageLayout
        from repro.sim import distrib
        from repro.sim.cosim import CosimFabric
        from repro.sim.hwsim import HwEngine
        from repro.sim.serve import FabricServer
        from repro.sim.swsim import SwEngine

        tracer = self
        progress = bool

        original_init = CosimFabric.__init__
        wrapped_init = self.wrap("sim.cosim.init", original_init)

        def init(fabric, *args, **kwargs):
            wrapped_init(fabric, *args, **kwargs)
            for engine in fabric.engines.values():
                if isinstance(engine, HwEngine):
                    engine.step_cycle = tracer.wrap(
                        "sim.hwsim.step", engine.step_cycle, progress
                    )
                elif isinstance(engine, SwEngine):
                    engine.step = tracer.wrap("sim.swsim.step", engine.step, progress)

        self._set(CosimFabric, "__init__", init)

        original_run = CosimFabric.run
        wrapped_run = self.wrap("sim.cosim.run", original_run)

        def run(fabric, done, *args, **kwargs):
            return wrapped_run(fabric, tracer.wrap("sim.cosim.done", done), *args, **kwargs)

        self._set(CosimFabric, "run", run)
        # Done predicates read registers: that is done-predicate time.
        self._set(
            CosimFabric,
            "read",
            self.wrap("sim.cosim.read", CosimFabric.read, within=("sim.cosim.done",)),
        )
        self._set(CosimFabric, "write", self.wrap("sim.cosim.write", CosimFabric.write))
        self._set(FabricServer, "reset", self.wrap("sim.serve.restore", FabricServer.reset))

        for factory, layer in (
            ("encoder", "platform.marshal.encode"),
            ("batch_encoder", "platform.marshal.encode"),
            ("decoder", "platform.marshal.decode"),
            ("run_decoder", "platform.marshal.decode"),
        ):
            make = getattr(MessageLayout, factory)

            def factory_wrapper(layout, *args, _make=make, _layer=layer):
                return tracer.wrap(_layer, _make(layout, *args))

            self._set(MessageLayout, factory, factory_wrapper)

        self._set(
            pycodegen.GeneratedModule,
            "__init__",
            self._counter("core.pycodegen.modules", pycodegen.GeneratedModule.__init__),
        )
        for name in PYCODEGEN_GENERATORS:
            self._patch_everywhere(
                pycodegen, name, lambda fn: tracer.wrap("core.pycodegen.generate", fn)
            )
        for module_name, name in INTERFACE_GENERATORS:
            module = importlib.import_module(module_name)
            self._patch_everywhere(
                module,
                name,
                lambda fn: tracer._counter(
                    "codegen.artifact_bytes",
                    tracer.wrap("codegen.interface", fn),
                    _artifact_bytes,
                ),
            )
        for module, names in ((kernels, VORBIS_KERNELS), (geometry, RAYTRACER_KERNELS)):
            for name in names:
                self._patch_everywhere(
                    module, name, lambda fn: tracer.wrap("apps.kernels.call", fn)
                )
        for name in BOXING_HELPERS:
            self._patch_everywhere(
                fixedpoint, name, lambda fn: tracer._counter("core.fixedpoint.boxed", fn)
            )

        wrapped_distributed = self.wrap("sim.distrib.run", distrib.run_distributed)

        def run_distributed(*args, **kwargs):
            # Members fork from this process: run them (and the parent's
            # planning) on the original code, timed as one span from here.
            with tracer.paused():
                return wrapped_distributed(*args, **kwargs)

        self._patch_everywhere(distrib, "run_distributed", lambda fn: run_distributed)

    def suspend(self) -> None:
        """Put every original back, keeping the patch list for :meth:`resume`."""
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def resume(self) -> None:
        for owner, name, _, replacement in self._patches:
            setattr(owner, name, replacement)

    @contextlib.contextmanager
    def paused(self):
        """Run the ``with`` body on the original code (benchmark checks)."""
        self.suspend()
        try:
            yield
        finally:
            self.resume()

    def uninstall(self) -> None:
        """Restore every original; spans and counts are kept."""
        self.suspend()
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the recorded spans once, as gzipped JSON lines.

        Line one is ``meta`` plus the layer names and the column names;
        each further line is one column as a JSON array: ``layer`` (index
        into the names), ``start`` and ``end`` (``perf_counter`` seconds),
        ``parent`` (span index, -1 for none), ``rid`` (request id) and
        ``flag``.  Columns are written in chunks to keep memory flat.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            header = {**meta, "layers": list(LAYERS), "columns": list(COLUMNS)}
            out.write(json.dumps(header) + "\n")
            for name in COLUMNS:
                column = getattr(self.spans, name)
                out.write("[")
                for i in range(0, len(column), 65536):
                    if i:
                        out.write(",")
                    out.write(",".join(map(repr, column[i : i + 65536])))
                out.write("]\n")


def call(tracer: "Tracer | None", layer: str, fn: Callable, *args):
    """Call ``fn`` inside a ``layer`` span (for calls the benchmark makes)."""
    return fn(*args) if tracer is None else tracer.wrap(layer, fn)(*args)


def paused(tracer: "Tracer | None"):
    """``tracer.paused()``, or a no-op context when tracing is off."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def totals(tracer: Tracer) -> Dict[str, float]:
    """Additive per-layer totals of one tracer's spans and counts.

    Keys: ``<layer>.self_s``, ``<layer>.incl_s`` (summed span durations),
    ``<layer>.spans`` and ``<layer>.progress`` (spans whose flag was set)
    for every layer, and the count-only events.
    """
    first, counts_at_mark = tracer._mark
    spans = tracer.spans
    layers, starts, ends = spans.layer, spans.start, spans.end
    parents, flags = spans.parent, spans.flag
    self_sum = [0.0] * len(LAYERS)
    incl_sum = [0.0] * len(LAYERS)
    span_count = [0] * len(LAYERS)
    progress = [0] * len(LAYERS)
    for i in range(first, len(layers)):
        code = layers[i]
        duration = ends[i] - starts[i]
        self_sum[code] += duration
        incl_sum[code] += duration
        # Spans after the mark never have a parent before it: the mark is
        # taken between passes, with no span open.
        parent = parents[i]
        if parent >= 0:
            self_sum[layers[parent]] -= duration
        span_count[code] += 1
        progress[code] += flags[i]
    out: Dict[str, float] = {}
    for code, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = self_sum[code]
        out[f"{layer}.incl_s"] = incl_sum[code]
        out[f"{layer}.spans"] = span_count[code]
        out[f"{layer}.progress"] = progress[code]
    for key, value in tracer.counts.items():
        out[key] = value - counts_at_mark[key]
    return out


def add_totals(into: Dict[str, float], other: Dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value


#: Allowed relative gap between the run time and the layer-table rows that
#: should make it up; a few part-layer calls outside runs (kernels a
#: builder calls) stay well below it.
RECONCILE_TOLERANCE = 0.01


def reconcile(run_s: float, rows_s: List[float]) -> float:
    """Relative gap between ``sim.cosim.run_s`` and the printed table rows
    that make it up: ``sim.cosim.loop_self_s`` and those of :data:`RUN_PARTS`."""
    from repro.sim.serve import safe_ratio

    return safe_ratio(abs(run_s - sum(rows_s)), run_s)
