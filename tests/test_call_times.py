"""tools/call_times.py prints a median time for each call of a workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "call_times.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=300)


def test_call_times_prints_each_call_and_writes_nothing():
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    result = _run("cyclic_local", "--calls", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert re.fullmatch(r"cyclic_local at seed 0: [0-9.]+ ms per sequence, "
                        r"the median of 2 passes", lines[0])
    assert [line.split("%  ")[1] for line in lines[1:]] == [
        "hp(Q[x]/x^4, stabilization)", "hc(Q[x]/x^5, 5)"]
    for line in lines[1:]:
        assert re.fullmatch(r" +[0-9.]+ ms +[0-9]+%  .+", line)
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before


def test_call_times_refuses_an_unknown_workload_and_no_calls():
    for args in (("no_such_workload",), ("hh_group_q", "--calls", "0")):
        result = _run(*args)
        assert result.returncode == 2 and not result.stdout
        assert "call_times.py: error:" in result.stderr
