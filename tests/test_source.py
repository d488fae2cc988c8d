"""Source hygiene: every definition in cychom has a caller, and no
floating point enters the package.

A private function, class or method that nothing else in the package
refers to is dead code, and so is a public one that nothing in the
package, its tests or its benchmark refers to; this keeps deleted code
from coming back.  References are names, attribute lookups and imports
outside the definition's own body, so a helper that only calls itself
still counts as unused.

Exact arithmetic is the package's contract, so its source holds no float
literal, no ``float(...)`` call and no ``math`` function outside the
integer-valued ones.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import cychom

SRC = Path(cychom.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the math functions that map integers to integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


@functools.lru_cache(maxsize=None)
def _trees(folder=SRC):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(folder.glob("*.py"))]


def _reference(node):
    """The identifier a node refers to, or None."""
    kind = type(node)
    if kind is ast.Name:
        return node.id
    if kind is ast.Attribute:
        return node.attr
    if kind is ast.alias:
        return node.name
    return None


def _unreferenced(private: bool, folders) -> list:
    """Definitions in the package, private or public ones, that nothing in
    the given folders refers to outside their own body."""
    referenced = Counter()
    for folder in folders:
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                name = _reference(node)
                if name is not None:
                    referenced[name] += 1
    unused = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (not isinstance(node, DEFINITIONS)
                    or node.name.startswith("__")
                    or node.name.startswith("_") != private):
                continue
            own = sum(1 for inner in ast.walk(node)
                      if _reference(inner) == node.name)
            if referenced[node.name] <= own:
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return unused


def test_every_private_definition_is_referenced():
    unused = _unreferenced(True, [SRC])
    assert not unused, "private definitions nothing refers to: %s" % unused


def test_every_public_definition_is_referenced():
    unused = _unreferenced(False, [SRC, REPO / "tests", REPO / "perfbench"])
    assert not unused, "public definitions nothing refers to: %s" % unused


def test_no_floating_point():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            kind = type(node)
            if kind is ast.Constant and isinstance(node.value, (float, complex)):
                what = "literal %r" % node.value
            elif (kind is ast.Call and type(node.func) is ast.Name
                  and node.func.id == "float"):
                what = "float(...)"
            elif kind is ast.ImportFrom and node.module == "math":
                what = ", ".join("math.%s" % alias.name for alias in node.names
                                 if alias.name not in INTEGER_MATH)
            elif (kind is ast.Attribute and type(node.value) is ast.Name
                  and node.value.id == "math" and node.attr not in INTEGER_MATH):
                what = "math.%s" % node.attr
            else:
                continue
            if what:
                found.append("%s:%d %s" % (path.name, node.lineno, what))
    assert not found, "floating point in the exact package: %s" % found
