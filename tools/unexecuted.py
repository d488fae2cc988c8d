"""Print every statement of src/cychom that no tier-1 test executes.

Run from the repository root:

    python3 tools/unexecuted.py

It runs the tier-1 suite (pytest on tests/) in this process under
sys.settrace, tracing only frames whose code lives under src/cychom, and
then prints one line per statement none of whose lines ran, as
``path:line: first line of the statement``, and a count.  A compound
statement (def, class, if, for, while, with) counts by its header, so an
``if`` whose body never ran is not reported, but the body's statements are.
Left out:
- docstrings and other bare constants, which compile to no code;
- ``try`` itself, whose header runs no code of its own;
- code that only a subprocess started by a test reaches
  (tests/test_window_digest.py runs tools/window_digest.py in one).

It writes nothing into the repository: no bytecode, no pytest or
hypothesis cache.  Traced, the suite runs about four times slower (about
70 s on a 2-core x86-64 box), so the tool is not part of it.  The exit
code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cychom"


def _statement_spans(tree: ast.AST):
    """(first line, last line) of each statement that compiles to code of
    its own; a compound statement spans its decorators and header."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield first, last


def _tracer(hits: dict):
    """A global trace function that records the line events of frames in
    PACKAGE into hits[filename], and ignores every other frame."""
    prefix = str(PACKAGE) + os.sep
    local_of: dict = {}

    def make_local(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_of:
            local_of[name] = (make_local(hits.setdefault(name, set()))
                              if name.startswith(prefix) else None)
        return local_of[name]

    return global_trace


def main() -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    hits: dict = {}
    trace = _tracer(hits)
    cwd = os.getcwd()
    # hypothesis keeps a cache under the working directory it is imported in
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        import pytest

        threading.settrace(trace)
        sys.settrace(trace)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider",
                                "--rootdir", str(ROOT), str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)

    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for first, last in sorted(_statement_spans(ast.parse(source))):
            total += 1
            if not any(n in ran for n in range(first, last + 1)):
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), first,
                                     lines[first - 1].strip()))
    print("%d of %d statements in %s not executed"
          % (missed, total, PACKAGE.relative_to(ROOT)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
