"""tools/unexecuted.py runs the tests it is given and counts the statements
of src/cychom they leave unexecuted."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "unexecuted.py"


def test_the_tool_counts_what_one_test_file_leaves(tmp_path):
    # a test that imports cychom runs the package's module level, and a
    # statement of check_int, but little else
    test = tmp_path / "test_check_int.py"
    test.write_text("from cychom.errors import check_int\n\n\n"
                    "def test_check_int():\n    check_int(1, 'one', 0)\n")
    result = subprocess.run([sys.executable, str(SCRIPT), str(test)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert "1 passed" in result.stdout
    count = re.fullmatch(r"(\d+) of (\d+) statements in src/cychom not "
                         r"executed", lines[-1])
    assert count, lines[-1]
    missed, total = int(count[1]), int(count[2])
    listed = [line for line in lines if line.startswith("src/cychom/")]
    assert len(listed) == missed and 0 < missed < total
    assert not any(line.startswith("src/cychom/errors.py") and
                   "isinstance(value, int)" in line for line in listed)


def _tool():
    spec = importlib.util.spec_from_file_location("unexecuted", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_options_alone_keep_the_whole_suite(monkeypatch):
    tool = _tool()
    monkeypatch.chdir(ROOT)
    tests = str(ROOT / "tests")
    assert tool.pytest_args([]) == [tests]
    assert tool.pytest_args(["-q"]) == ["-q", tests]
    assert tool.pytest_args(["-x", "-k", "groups"]) == ["-x", "-k", "groups",
                                                         tests]
    # a path that does not exist names nothing, and pytest reports it
    assert tool.pytest_args(["tests/no_such_file.py"]) == [
        "tests/no_such_file.py", tests]


def test_paths_and_node_ids_replace_the_suite(monkeypatch):
    tool = _tool()
    monkeypatch.chdir(ROOT)
    node = "tests/test_groups.py::test_cyclic_four_basics"
    assert tool.pytest_args(["-q", "tests/test_groups.py"]) == [
        "-q", str(ROOT / "tests" / "test_groups.py")]
    assert tool.pytest_args([node]) == [str(ROOT / node)]
