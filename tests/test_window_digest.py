"""tools/window_digest.py against its reference lines.

The script prints seven digests of windows, maps, reports and idempotents
(see its docstring).  A change that alters any of them on purpose updates
REFERENCE below and says which entries changed and why.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "window_digest.py"

REFERENCE = [
    "225 entries sha256 "
    "4f53e208d6ee0fe5873ef89a690e643273bd7561ab0271d664922d142d342b78",
    "89 entries sha256 "
    "c32e8b3cc1b4f23c24d68806557a6dc60bd6020103d4e51defb90cfcd4c7e3a5",
    "30 entries sha256 "
    "7e0a1cb12ed9d4f856f176addcc65e8d631a3366ed31b19ec5f692570699ba70",
    # the Chern chains are raised over the subalgebra the class generates,
    # not over the scalars with a fresh unit or the group algebra of Z/n:
    # the idempotents' chains for q >= 1 and zeta3's odd chain change, by
    # a boundary, and the generator of QZ3 keeps its chains
    "12 entries sha256 "
    "ae3d8008df9bbc05b6966a6a99905cd543fb4b7a9136cf7b13fa731fa3807cb2",
    # the "swap hc" entries are induced_map_hc's chain maps between hc's
    # Connes windows, word by word, no longer blocks of the total complex
    "21 entries sha256 "
    "ba665c071a8b7a20fd6f7303b0238ca03187044db27425bb647d528ee61a074a",
    "38 entries sha256 "
    "a245b3434423d6beff8f65785d520e1a28b923c067f5d633c6be0f44a0344eec",
    "54 entries sha256 "
    "171b9ad1e31081b458adaeced8e7d98262b9d295d10ff5208e6f0bfa7e0f04ff",
]


def test_window_digest_matches_the_reference():
    # the script puts src/ on its own path and re-runs itself with a fixed
    # hash seed
    result = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                            text=True, timeout=600, check=True)
    assert result.stdout.splitlines() == REFERENCE
