"""tools/unexecuted.py runs the tests it is given and counts the statements
of src/cychom they leave unexecuted."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "unexecuted.py"


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
