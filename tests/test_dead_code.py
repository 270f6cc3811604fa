"""No definition under ``src/`` is dead code.

A function, method or class whose name occurs as a word nowhere but in its
own definitions has no caller: nothing can reach it, so it is deleted, not
kept.  Any other occurrence counts as a use -- a call, an attribute, an
import, a name inside a string (the benchmark tracer patches functions by
name) -- across the package, the tests, the examples, the benchmarks and
``perfbench``, so the check errs towards keeping code.  Dunder methods are
called by the language and are not checked.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where a use of a ``src/`` definition may live.
SEARCHED = ("src", "tests", "examples", "benchmarks", "perfbench")

_WORD = re.compile(r"\w+")


def _python_files(top):
    return sorted((ROOT / top).rglob("*.py"))


def test_every_definition_is_referenced():
    occurrences = collections.Counter()
    for top in SEARCHED:
        for path in _python_files(top):
            occurrences.update(_WORD.findall(path.read_text(encoding="utf-8")))
    definitions = collections.defaultdict(list)
    for path in _python_files("src"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    definitions[node.name].append(f"{path.relative_to(ROOT)}:{node.lineno}")
    unreferenced = sorted(
        f"{site} {name}"
        for name, sites in definitions.items()
        if occurrences[name] <= len(sites)
        for site in sites
    )
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)
