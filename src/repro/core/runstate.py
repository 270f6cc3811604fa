"""Run state declared once: one table per class builds snapshot and restore.

Every class whose state a fabric snapshot carries lists its mutable
attributes in ``RUN_STATE``, a tuple of ``(attribute, kind)`` pairs, and
is decorated with :func:`run_state`, which compiles the class's
``snapshot()`` and ``restore()`` from the table when the class is defined
(restore runs once per served request, so no call walks the table).  The
snapshot audit (:mod:`repro.analysis.snapshot_audit`) reads the same
tables, so a new mutable field is declared in exactly one place.

A snapshot is a tuple of plain data: one entry per attribute in table
order, a child's own snapshot for a child (a list of them for a
collection), transient attributes left out.  Restore keeps the identity
of every container and child object, because generated code pre-binds
them: transport routes bind stores, pool rings, stats objects and the
per-VC message counts; steps, pumps, deliveries and the group loop bind
``HwEngine._locked``, the set of registers its busy rules hold.  So only
scalars and copied values are rebound.
"""

from __future__ import annotations

import linecache

#: Rebound as it is: a number, ``None`` or an immutable object.
SCALAR = "scalar"
#: A dict rewritten in place through the unbound ``dict`` methods, so a
#: :class:`~repro.core.scheduler.WakingStore` wakes nothing.
DICT = "dict"
#: A list or bytearray rewritten by slice.
SLICE = "slice"
#: A set generated code pre-binds, cleared and refilled in place.
SET = "set"
#: A dict, set or ``None`` that nothing pre-binds, rebound to a copy.
COPY = "copy"
#: An object with its own table (or ``None``), restored in place.
CHILD = "child"
#: A dict or list of objects with their own tables, in iteration order.
CHILDREN = "children"
#: Transient state, reset to ``None``; the snapshot does not carry it.
RESET = "reset"

#: Per carried kind: the snapshot entry's expression and the restore
#: statements (``{s}`` is the entry).  A scalar's restore is an unpacking
#: target instead.
_TEMPLATES = {
    SCALAR: ("self.{a}", ()),
    DICT: ("_dict(self.{a})", ("_clear(self.{a})", "_update(self.{a}, {s})")),
    SLICE: ("self.{a}[:]", ("self.{a}[:] = {s}",)),
    SET: ("_set(self.{a})", ("self.{a}.clear()", "self.{a}.update({s})")),
    COPY: (
        "None if (_v := self.{a}) is None else _v.copy()",
        ("self.{a} = None if {s} is None else {s}.copy()",),
    ),
    CHILD: (
        "None if (_v := self.{a}) is None else _v.snapshot()",
        ("if {s} is not None:", "    self.{a}.restore({s})"),
    ),
    CHILDREN: (
        "[_c.snapshot() for _c in _members(self.{a})]",
        ("for _c, _t in zip(_members(self.{a}), {s}):", "    _c.restore(_t)"),
    ),
}


def _members(children):
    return children.values() if isinstance(children, dict) else children


def run_state(cls: type) -> type:
    """Class decorator: compile ``cls.RUN_STATE`` into ``snapshot``/``restore``."""
    kept = [(attr, kind) for attr, kind in cls.RUN_STATE if kind != RESET]
    take = "".join(f"        {_TEMPLATES[kind][0].format(a=attr)},\n" for attr, kind in kept)
    targets = "".join(
        f"self.{attr}, " if kind == SCALAR else f"_{i}, "
        for i, (attr, kind) in enumerate(kept)
    )
    puts = [
        line.format(a=attr, s=f"_{i}")
        for i, (attr, kind) in enumerate(kept)
        for line in _TEMPLATES[kind][1]
    ]
    puts += [f"self.{attr} = None" for attr, kind in cls.RUN_STATE if kind == RESET]
    source = (
        f"def snapshot(self):\n    return (\n{take}    )\n\n"
        f"def restore(self, snap):\n    {targets}= snap\n"
        + "".join(f"    {line}\n" for line in puts)
    )
    filename = f"<run-state:{cls.__module__}.{cls.__qualname__}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {
        "_dict": dict,
        "_set": set,
        "_clear": dict.clear,
        "_update": dict.update,
        "_members": _members,
    }
    exec(compile(source, filename, "exec"), namespace)
    for name in ("snapshot", "restore"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls
