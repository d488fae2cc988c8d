"""Source hygiene: every private helper in cychom has a caller.

A private function, class or method that nothing else in the package
refers to is dead code; this keeps deleted helpers from coming back.
References are names, attribute lookups and imports anywhere in
``src/cychom`` outside the definition's own body, so a helper that only
calls itself still counts as unused.
"""

import ast
from collections import Counter
from pathlib import Path

import cychom

SRC = Path(cychom.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def test_every_private_definition_is_referenced():
    referenced = Counter()
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = _reference(node)
            if name is not None:
                referenced[name] += 1
            elif (isinstance(node, DEFINITIONS) and node.name.startswith("_")
                  and not node.name.startswith("__")):
                definitions.append((path.name, node))
    unused = []
    for filename, node in definitions:
        own = sum(1 for inner in ast.walk(node)
                  if _reference(inner) == node.name)
        if referenced[node.name] <= own:
            unused.append("%s:%d %s" % (filename, node.lineno, node.name))
    assert not unused, "private definitions nothing refers to: %s" % unused
