"""Print where hh spends its time on QS3 over Q and over Q(zeta3), and
how many products it makes.

Run from the repository root:

    python3 tools/hh_stages.py [--calls N]

It builds QS3 = group_algebra(symmetric_group_3()) and, with
extend_scalars, QS3 over Q(zeta3), and calls hh(QS3, 4) and
hh(QS3 over Q(zeta3), 3) N times each (300 by default) after one warm-up
call.  The stages are timed from outside: split_idempotents, _SlotData and
_check_blocks are replaced by timing wrappers in the hochschild module for
the run and restored after it, and "rest" is what is left of each call.
Each stage prints the median of its N times and its share of the median
call.  The shares are in-process wall times, so they move with the load of
the host; the benchmark (perfbench/run.py) is what measures a gain.  A last
line per algebra counts the FDAlgebra.multiply calls of one hh call and how
many of them ran on native rational arithmetic (algebra._native_product,
wrapped for that call by a counter).  It writes nothing into the
repository.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cychom import algebra, hochschild  # noqa: E402
from cychom.groups import group_algebra, symmetric_group_3  # noqa: E402
from cychom.spectrum import extend_scalars  # noqa: E402

STAGES = ("split_idempotents", "_SlotData", "_check_blocks")


def _timed(fn, times: list):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(perf_counter() - start)
    return wrapper


def stage_times(A, n_max: int, calls: int) -> dict:
    """Median seconds of hh(A, n_max), of each stage in it and of the rest,
    over calls calls made after one warm-up call."""
    hochschild.hh(A, n_max)
    per_stage = {name: [] for name in STAGES}
    originals = {name: getattr(hochschild, name) for name in STAGES}
    spent = []
    try:
        for name in STAGES:
            setattr(hochschild, name,
                    _timed(originals[name], per_stage[name]))
        for _ in range(calls):
            marks = {name: len(times) for name, times in per_stage.items()}
            start = perf_counter()
            hochschild.hh(A, n_max)
            total = perf_counter() - start
            call = {name: sum(times[marks[name]:])
                    for name, times in per_stage.items()}
            call["rest"] = total - sum(call.values())
            call["hh"] = total
            spent.append(call)
    finally:
        for name, fn in originals.items():
            setattr(hochschild, name, fn)
    return {name: statistics.median(call[name] for call in spent)
            for name in spent[0]}


def product_counts(A, n_max: int) -> tuple:
    """(products, rational) of one hh(A, n_max) call: its FDAlgebra.multiply
    calls and how many of them ran algebra._native_product."""
    counts = {"multiply": 0, "_native_product": 0}
    originals = {"multiply": (algebra.FDAlgebra, algebra.FDAlgebra.multiply),
                 "_native_product": (algebra, algebra._native_product)}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    try:
        for name, (owner, fn) in originals.items():
            setattr(owner, name, counted(name, fn))
        hochschild.hh(A, n_max)
    finally:
        for name, (owner, fn) in originals.items():
            setattr(owner, name, fn)
    return counts["multiply"], counts["_native_product"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=300)
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    QS3 = group_algebra(symmetric_group_3())
    for label, A, n_max in (("QS3 over Q", QS3, 4),
                            ("QS3 over Q(zeta3)", extend_scalars(QS3, 3), 3)):
        medians = stage_times(A, n_max, args.calls)
        total = medians.pop("hh")
        print("%s, hh(A, %d): %.2f ms, the median of %d calls"
              % (label, n_max, 1e3 * total, args.calls))
        for name, seconds in medians.items():
            print("  %-18s %6.2f ms %4.0f%%"
                  % (name, 1e3 * seconds, 100 * seconds / total))
        print("  products: %d FDAlgebra.multiply calls, %d on rationals"
              % product_counts(A, n_max))
    return 0


if __name__ == "__main__":
    sys.exit(main())
