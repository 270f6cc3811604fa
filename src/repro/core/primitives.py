"""Primitive library modules: FIFOs, register files, wires.

The paper's designs are built almost entirely from registers and FIFOs
(``mkFIFO``) plus memories for the ray tracer's scene and BVH storage.  These
are :class:`~repro.core.module.PrimitiveModule` instances whose methods have
native guard/body implementations executed directly by the interpreter,
each next to the :class:`~repro.core.module.NativeTemplate` the generated
tier inlines in its place.

Every primitive keeps its state in ordinary :class:`Register` objects so that
shadowing, commit/rollback and the read/write-set analyses work uniformly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.errors import ElaborationError
from repro.core.module import NativeTemplate, PrimitiveModule, Register
from repro.core.types import BCLType, BoolT


class Fifo(PrimitiveModule):
    """A bounded FIFO (``mkFIFO`` / ``mkSizedFIFO``).

    Interface methods:

    * ``enq(x)`` -- action, guarded on *not full*
    * ``deq()``  -- action, guarded on *not empty*
    * ``first()`` -- value, guarded on *not empty*
    * ``clear()`` -- action, always ready
    * ``notEmpty()`` / ``notFull()`` -- unguarded value methods

    ``enq`` and ``deq`` by different rules are concurrently schedulable in a
    single hardware clock cycle (the behaviour of a pipeline FIFO), which is
    what allows the pipelined IFFT's stages to all fire every cycle.
    """

    def __init__(self, name: str, ty: BCLType, depth: int = 2, domain=None):
        super().__init__(name, domain)
        if depth < 1:
            raise ElaborationError(f"FIFO {name} must have depth >= 1, got {depth}")
        self.ty = ty
        self.depth = depth
        # The queue contents are stored functionally as a tuple in one register.
        self.data = self.add_register("data", _TupleStateT(), init=())

        self.add_native_method(
            "enq",
            "action",
            guard_fn=lambda read, x: len(read(self.data)) < self.depth,
            body_fn=lambda read, x: ({self.data: read(self.data) + (x,)}, None),
            params=["x"],
            reads=[self.data],
            writes=[self.data],
            template=NativeTemplate(
                guard="len({data}) < {depth}", writes=[("data", "{data} + ({x},)")]
            ),
        )
        self.add_native_method(
            "deq",
            "action",
            guard_fn=lambda read: len(read(self.data)) > 0,
            body_fn=lambda read: ({self.data: read(self.data)[1:]}, None),
            reads=[self.data],
            writes=[self.data],
            template=NativeTemplate(guard="len({data}) > 0", writes=[("data", "{data}[1:]")]),
        )
        self.add_native_method(
            "first",
            "value",
            guard_fn=lambda read: len(read(self.data)) > 0,
            body_fn=lambda read: ({}, read(self.data)[0]),
            reads=[self.data],
            template=NativeTemplate(guard="len({data}) > 0", result="{data}[0]"),
        )
        self.add_native_method(
            "clear",
            "action",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({self.data: ()}, None),
            reads=[],
            writes=[self.data],
            template=NativeTemplate(writes=[("data", "()")]),
        )
        self.add_native_method(
            "notEmpty",
            "value",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({}, len(read(self.data)) > 0),
            reads=[self.data],
            template=NativeTemplate(result="len({data}) > 0"),
        )
        self.add_native_method(
            "notFull",
            "value",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({}, len(read(self.data)) < self.depth),
            reads=[self.data],
            template=NativeTemplate(result="len({data}) < {depth}"),
        )
        self.add_native_method(
            "count",
            "value",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({}, len(read(self.data))),
            reads=[self.data],
            template=NativeTemplate(result="len({data})"),
        )

    def concurrently_schedulable(self, method_a: str, method_b: str) -> bool:
        # enq/deq (and reads) commute like a pipeline FIFO; identical mutating
        # methods from two rules conflict, and clear conflicts with any other
        # mutation.
        mutating = {"enq", "deq", "clear"}
        if method_a == method_b and method_a in mutating:
            return False
        if "clear" in (method_a, method_b) and method_a in mutating and method_b in mutating:
            return False
        return True

    def symbolic_guard(self, method: str, args):
        from repro.core.expr import MethodCallE, TRUE

        if method == "enq":
            return MethodCallE(self, "notFull", [])
        if method in ("deq", "first"):
            return MethodCallE(self, "notEmpty", [])
        if method in ("clear", "notEmpty", "notFull", "count"):
            return TRUE
        return None

    def occupancy(self, store: Dict[Register, Any]) -> int:
        """Convenience for tests and the co-simulator: current element count."""
        return len(store[self.data])

    def contents(self, store: Dict[Register, Any]) -> Tuple[Any, ...]:
        return tuple(store[self.data])


class RegFile(PrimitiveModule):
    """An indexed memory (``mkRegFile`` / BRAM / scene memory).

    Interface methods:

    * ``sub(i)`` -- value method returning element ``i``
    * ``upd(i, x)`` -- action method writing element ``i``

    The memory is held functionally (a tuple in one register), so partial
    shadowing and rollback work without special cases.  ``read_latency``
    records the access latency in cycles of the *hosting* substrate; the
    cost model charges it on every ``sub``/``upd`` (on-chip BRAM = 1 cycle,
    processor-side DRAM many more -- the distinction at the heart of the ray
    tracer's partition C vs. B).
    """

    def __init__(
        self,
        name: str,
        ty: BCLType,
        size: int,
        init: Optional[Sequence[Any]] = None,
        read_latency: int = 1,
        domain=None,
    ):
        super().__init__(name, domain)
        if size < 1:
            raise ElaborationError(f"RegFile {name} must have size >= 1, got {size}")
        self.ty = ty
        self.size = size
        self.read_latency = read_latency
        if init is None:
            contents: Tuple[Any, ...] = tuple(ty.default() for _ in range(size))
        else:
            contents = tuple(init)
            if len(contents) != size:
                raise ElaborationError(
                    f"RegFile {name}: init has {len(contents)} elements, expected {size}"
                )
        self.mem = self.add_register("mem", _TupleStateT(), init=contents)

        self.add_native_method(
            "sub",
            "value",
            guard_fn=lambda read, i: 0 <= i < self.size,
            body_fn=lambda read, i: ({}, read(self.mem)[i]),
            params=["i"],
            reads=[self.mem],
            template=NativeTemplate(guard="0 <= {i} < {size}", result="{mem}[{i}]"),
        )
        self.add_native_method(
            "upd",
            "action",
            guard_fn=lambda read, i, x: 0 <= i < self.size,
            body_fn=lambda read, i, x: (
                {self.mem: read(self.mem)[:i] + (x,) + read(self.mem)[i + 1 :]},
                None,
            ),
            params=["i", "x"],
            reads=[self.mem],
            writes=[self.mem],
            template=NativeTemplate(
                guard="0 <= {i} < {size}",
                writes=[("mem", "{mem}[:{i}] + ({x},) + {mem}[{i} + 1:]")],
            ),
        )

    def concurrently_schedulable(self, method_a: str, method_b: str) -> bool:
        return not (method_a == "upd" and method_b == "upd")

    def symbolic_guard(self, method: str, args):
        # Index-in-range guards are not hoisted (the index expression may be
        # arbitrary); stay conservative so out-of-range access still rolls back.
        return None

    def load(self, store: Dict[Register, Any], values: Sequence[Any]) -> None:
        """Overwrite the memory contents directly (test-bench convenience)."""
        if len(values) != self.size:
            raise ElaborationError(
                f"RegFile {self.name}: load of {len(values)} elements into size {self.size}"
            )
        store[self.mem] = tuple(values)


class PulseWire(PrimitiveModule):
    """A single-cycle signalling wire (``mkPulseWire``).

    ``send()`` asserts the wire; ``read()`` returns whether it was asserted.
    The hardware simulator clears every pulse wire at the end of each clock
    cycle; in software a pulse lasts for the current rule execution only (the
    software engine clears it after every rule).
    """

    def __init__(self, name: str, domain=None):
        super().__init__(name, domain)
        self.flag = self.add_register("flag", BoolT(), init=False)
        self.add_native_method(
            "send",
            "action",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({self.flag: True}, None),
            writes=[self.flag],
            template=NativeTemplate(writes=[("flag", "True")]),
        )
        self.add_native_method(
            "read",
            "value",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({}, read(self.flag)),
            reads=[self.flag],
            template=NativeTemplate(result="{flag}"),
        )
        self.add_native_method(
            "clear",
            "action",
            guard_fn=lambda read: True,
            body_fn=lambda read: ({self.flag: False}, None),
            writes=[self.flag],
            template=NativeTemplate(writes=[("flag", "False")]),
        )

    def symbolic_guard(self, method: str, args):
        from repro.core.expr import TRUE

        return TRUE


class _TupleStateT(BCLType):
    """Internal pseudo-type for primitive state held as a Python tuple.

    Primitive internals never cross the HW/SW boundary directly (values do,
    and those are packed with their declared element types), so this type
    does not need a bit-level representation.
    """

    def bit_width(self) -> int:  # pragma: no cover - never marshaled
        raise NotImplementedError("primitive internal state has no canonical bit layout")

    def pack(self, value: Any) -> int:  # pragma: no cover - never marshaled
        raise NotImplementedError("primitive internal state cannot be packed")

    def unpack(self, bits: int) -> Any:  # pragma: no cover - never marshaled
        raise NotImplementedError("primitive internal state cannot be unpacked")

    def default(self) -> Tuple[Any, ...]:
        return ()

    def __repr__(self) -> str:
        return "TupleState"
