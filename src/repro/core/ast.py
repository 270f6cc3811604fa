"""Base machinery shared by BCL expressions and actions.

The kernel grammar (Figure 7 of the paper) has two syntactic categories:
*expressions* (pure, possibly guarded computations of values) and *actions*
(guarded state updates).  Both are represented as immutable-ish Python object
trees.  This module provides the common :class:`Node` base class plus generic
traversal helpers used by the analyses (read/write sets, guard lifting,
method inlining, code generation).
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Iterator, List


class Node:
    """Base class of every BCL AST node (expressions and actions)."""

    #: attribute names holding child nodes, in declaration order (not
    #: evaluation order: the evaluator tests a ``when``'s guard before its
    #: body, and forces a ``let``'s value only where the body uses it).
    #: The passes visit children in this order, so it is the order they
    #: draw fresh ``$n`` names in.  Every Node-valued attribute is listed;
    #: each holds a Node, a list of Nodes, or ``None`` (an absent ``else``).
    _child_fields: tuple = ()

    def children(self) -> List["Node"]:
        """Direct child nodes in declaration order."""
        out: List[Node] = []
        for field in self._child_fields:
            value = getattr(self, field)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                out.extend(v for v in value if isinstance(v, Node))
        return out

    def rebuild(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """This node with ``fn`` applied to each child in order.

        The result is a node of this class sharing every other attribute,
        lists staying lists and ``None`` staying ``None``; it is the node
        itself when ``fn`` returns every child unchanged, so a pass copies
        only the nodes above the ones it changes.
        """
        changed = None
        for field in self._child_fields:
            value = getattr(self, field)
            if type(value) is list:
                mapped = list(map(fn, value))
                if not any(map(is_not, mapped, value)):
                    continue
            elif value is None:
                continue
            else:
                mapped = fn(value)
                if mapped is value:
                    continue
            if changed is None:
                changed = {}
            changed[field] = mapped
        if changed is None:
            return self
        node = object.__new__(self.__class__)
        node.__dict__.update(self.__dict__, **changed)
        return node

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree (including ``self``)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def contains(self, predicate: Callable[["Node"], bool]) -> bool:
        """True if any node in the subtree satisfies ``predicate``."""
        return any(predicate(node) for node in self.walk())

    def __repr__(self) -> str:
        fields = []
        for field in self._child_fields:
            fields.append(f"{field}={getattr(self, field)!r}")
        return f"{self.__class__.__name__}({', '.join(fields)})"
