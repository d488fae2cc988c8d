"""The tools stop quietly when their reader closes the pipe early, as
head -1 does after the first line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("args", [
    ["call_times.py", "cyclic_local", "--calls", "1"],
    ["hh_stages.py", "--calls", "1"],
    ["window_digest.py"],
], ids=["call_times", "hh_stages", "window_digest"])
def test_a_closed_pipe_stops_a_tool_quietly(args):
    # the read end is closed before the tool starts, so its first write
    # fails; unbuffered, that write is its first print
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, str(TOOLS / args[0]), *args[1:]], stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=300,
            env=dict(os.environ, PYTHONUNBUFFERED="1"))
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (0, "")
