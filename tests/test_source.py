"""Source hygiene: every definition in cychom has a caller, every
parameter is read, every import is used, every limit is set in config, and
no floating point enters the package.

A private function, class or method that nothing else in the package
refers to is dead code, and so is a public one that nothing in the
package, its tests or its benchmark refers to; this keeps deleted code
from coming back.  References are names, attribute lookups and imports
outside the definition's own body, so a helper that only calls itself
still counts as unused.  A function defined in a class body is reached
only as an attribute, so only attribute lookups count for it: a local
variable of the same name does not keep a method alive.  Likewise a
parameter that the body never reads, or reads only to default it
(``x = x or default``), is a knob nothing turns, and an import whose
name the module neither loads nor lists in ``__all__`` is left over from
deleted code, in the package, its tests and its tools alike.

Resource limits live in ``config``: no function takes a ``budget``
parameter and no other module builds a ``Budget``.

Exact arithmetic is the package's contract, so its source holds no float
literal, no ``float(...)`` call and no ``math`` function outside the
integer-valued ones.  Scalars are ints wherever they are integral, and
``int / int`` is a float, so every true division has a ``Fraction(...)``
call as an operand.

Every deliberate failure is typed: a ``raise`` in the package raises a
class of ``errors`` or re-raises, apart from the few exceptions that
Python's own protocols name.

The benchmark's tracer (``perfbench/tracer.py``) wraps functions it names
in its ``BOUNDARIES`` list; each of those names resolves in cychom, so a
deleted or renamed boundary fails here rather than in a traced run.
"""

import ast
import functools
import importlib
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
    the given folders refers to outside their own body; for a method only
    attribute lookups count."""
    referenced, looked_up = Counter(), Counter()
    for folder in folders:
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                name = _reference(node)
                if name is not None:
                    referenced[name] += 1
                    looked_up[name] += type(node) is ast.Attribute
    unused = []
    for path, tree in _trees():
        methods = {id(item) for node in ast.walk(tree)
                   if type(node) is ast.ClassDef for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if (not isinstance(node, DEFINITIONS)
                    or node.name.startswith("__")
                    or node.name.startswith("_") != private):
                continue
            method = id(node) in methods
            own = sum(1 for inner in ast.walk(node)
                      if _reference(inner) == node.name
                      and (not method or type(inner) is ast.Attribute))
            if (looked_up if method else referenced)[node.name] <= own:
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return unused


def test_every_private_definition_is_referenced():
    unused = _unreferenced(True, [SRC])
    assert not unused, "private definitions nothing refers to: %s" % unused


def test_every_public_definition_is_referenced():
    unused = _unreferenced(False, [SRC, REPO / "tests", REPO / "perfbench"])
    assert not unused, "public definitions nothing refers to: %s" % unused


def _exported(tree) -> set:
    """The names listed in the module's ``__all__``."""
    names = set()
    for node in tree.body:
        if (type(node) is ast.Assign
                and any(type(t) is ast.Name and t.id == "__all__"
                        for t in node.targets)):
            names.update(item.value for item in ast.walk(node.value)
                         if type(item) is ast.Constant)
    return names


def test_every_import_is_used():
    unused = []
    for path, tree in [pair for folder in (SRC, REPO / "tests", REPO / "tools")
                       for pair in _trees(folder)]:
        loaded = {node.id for node in ast.walk(tree) if type(node) is ast.Name}
        loaded |= _exported(tree)
        for node in ast.walk(tree):
            if type(node) is ast.Import:
                names = [(a.asname or a.name).split(".")[0]
                         for a in node.names]
            elif type(node) is ast.ImportFrom and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused.extend("%s/%s:%d %s" % (path.parent.name, path.name,
                                           node.lineno, name)
                          for name in names if name not in loaded)
    assert not unused, "imports nothing uses: %s" % unused


def _defaults_itself(node, name) -> bool:
    """Whether node is the line ``name = name or ...``."""
    return (type(node) is ast.Assign and len(node.targets) == 1
            and type(node.targets[0]) is ast.Name
            and node.targets[0].id == name
            and type(node.value) is ast.BoolOp
            and type(node.value.op) is ast.Or
            and type(node.value.values[0]) is ast.Name
            and node.value.values[0].id == name)


def test_every_parameter_is_read():
    unread = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # named parameters only: *args and **kwargs catch a signature
            args = node.args
            for param in args.posonlyargs + args.args + args.kwonlyargs:
                name = param.arg
                if name in ("self", "cls"):
                    continue
                defaulting = {id(line.value.values[0]) for stmt in node.body
                              for line in ast.walk(stmt)
                              if _defaults_itself(line, name)}
                if not any(type(inner) is ast.Name and inner.id == name
                           and type(inner.ctx) is ast.Load
                           and id(inner) not in defaulting
                           for stmt in node.body
                           for inner in ast.walk(stmt)):
                    unread.append("%s:%d %s.%s"
                                  % (path.name, node.lineno, node.name, name))
    assert not unread, "parameters nothing reads: %s" % unread


def _is_fraction_call(node) -> bool:
    return type(node) is ast.Call and _reference(node.func) == "Fraction"


def test_no_floating_point():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            kind = type(node)
            if kind in (ast.BinOp, ast.AugAssign) and type(node.op) is ast.Div:
                operands = (node.left, node.right) if kind is ast.BinOp \
                    else (node.target, node.value)
                what = "" if any(map(_is_fraction_call, operands)) \
                    else "/ without a Fraction(...) operand"
            elif kind is ast.Constant and isinstance(node.value, (float, complex)):
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


def test_limits_are_read_in_one_place():
    # a per-call limit reaches only the calls that forward it; the limit
    # checks read config.default_budget() when they run instead
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(param.arg == "budget" for param in
                       args.posonlyargs + args.args + args.kwonlyargs):
                    found.append("%s:%d %s(budget)"
                                 % (path.name, node.lineno, node.name))
            elif (type(node) is ast.Call and _reference(node.func) == "Budget"
                  and path.name != "config.py"):
                found.append("%s:%d Budget(...)" % (path.name, node.lineno))
    assert not found, "limits set outside config: %s" % found


# (module, function, exception) of the raises that are not refusals
UNTYPED_RAISES = {
    # an immutable object refuses assignment as Python's objects do
    ("scalars.py", "__setattr__", "AttributeError"),
    # an internal check, not a refusal: Phi_d divides x^m - 1 for d | m
    ("scalars.py", "_poly_divmod_exact", "ArithmeticError"),
}


def test_every_raise_is_typed():
    trees = dict(_trees())
    typed = {node.name for node in trees[SRC / "errors.py"].body
             if type(node) is ast.ClassDef}
    found, exempt = [], set()
    for path, tree in trees.items():
        # ast.walk meets an outer function before the ones nested in it,
        # so each raise ends up with its innermost function
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node)
                             if type(inner) is ast.Raise)
        for node in ast.walk(tree):
            if type(node) is not ast.Raise or node.exc is None:
                continue
            exc = node.exc.func if type(node.exc) is ast.Call else node.exc
            name = _reference(exc)
            key = (path.name, owner.get(id(node)), name)
            if key in UNTYPED_RAISES:
                exempt.add(key)
            elif name not in typed:
                found.append("%s:%d raise %s" % (path.name, node.lineno, name))
    assert not found, "raises of no class in errors.py: %s" % found
    # an exemption whose raise is gone would let a new one of that name in
    assert exempt == UNTYPED_RAISES, \
        "exempt raises not in the source: %s" % sorted(UNTYPED_RAISES - exempt)


def test_every_traced_boundary_resolves():
    # read the list from the source; the tracer looks each name up in the
    # namespace of its module or class, as below
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text())
    boundaries = [node.value for node in tree.body
                  if type(node) is ast.Assign
                  and any(type(t) is ast.Name and t.id == "BOUNDARIES"
                          for t in node.targets)]
    assert len(boundaries) == 1 and boundaries[0].elts
    missing = []
    for entry in boundaries[0].elts:
        module, qualname = (ast.literal_eval(item) for item in entry.elts[:2])
        owner = importlib.import_module("cychom." + module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append("%s.%s" % (module, qualname))
    assert not missing, "traced boundaries cychom lacks: %s" % missing
