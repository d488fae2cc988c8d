"""tools/hh_stages.py prints a median and a share for each stage of hh,
and the products of one hh call."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "hh_stages.py"


def test_hh_stages_prints_each_stage_of_both_algebras():
    result = subprocess.run([sys.executable, str(SCRIPT), "--calls", "2"],
                            capture_output=True, text=True, timeout=300,
                            check=True)
    lines = result.stdout.splitlines()
    assert len(lines) == 12
    for header, label, n_max in ((lines[0], "Q", 4),
                                 (lines[6], "Q(zeta3)", 3)):
        assert re.fullmatch(r"QS3 over %s, hh\(A, %d\): [0-9.]+ ms, the "
                            r"median of 2 calls" % (re.escape(label), n_max),
                            header)
    stages = lines[1:5] + lines[7:11]
    assert [line.split()[0] for line in stages] == [
        "split_idempotents", "_SlotData", "_check_blocks", "rest"] * 2
    for line in stages:
        assert re.fullmatch(r" +\S+ +-?[0-9.]+ ms +-?[0-9]+%", line)
    # QS3 splits over Q, so over Q(zeta3) too every product is rational
    for line in (lines[5], lines[11]):
        counts = re.fullmatch(r"  products: (\d+) FDAlgebra\.multiply "
                              r"calls, (\d+) on rationals", line)
        assert counts and int(counts[1]) > 0 and counts[1] == counts[2]
