"""Print the in-process median time of each call of a benchmark workload.

Run from the repository root:

    python3 tools/call_times.py WORKLOAD [--calls N]

WORKLOAD is one of the workloads of perfbench/cases.py (hh_group_q,
hh_group_cyc, cyclic_local, constructions), built at seed 0 as
perfbench/run.py builds it by default.  After one warm-up pass the call
sequence runs N times (20 by default) in its own order, and each call
prints the median of its N wall times and its share of the median
sequence.  A call that raises or gives a wrong answer stops the run with
exit status 1.  The times are raw in-process wall times, not normalized
for the host's speed, so they move with its load; perfbench/run.py is what
measures a gain.  perfbench/cases.py is imported as it is, and nothing is
written: no bytecode, no file.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402


def call_times(workload: str, passes: int) -> list:
    """[(label, seconds of each pass)] for the calls of the workload, in
    their order, over passes passes made after one warm-up pass."""
    calls = cases.WORKLOADS[workload](0)
    if cases.run_calls(calls):
        raise SystemExit("call_times: %s failed its warm-up pass" % workload)
    times = [[] for _ in calls]
    for _ in range(passes):
        for call, spent in zip(calls, times):
            start = perf_counter()
            got = call.summarize(call.run())
            spent.append(perf_counter() - start)
            if got != call.expected:
                raise SystemExit("call_times: %s gave %r, expected %r"
                                 % (call.label, got, call.expected))
    return [(call.label, spent) for call, spent in zip(calls, times)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(cases.WORKLOADS))
    parser.add_argument("--calls", type=int, default=20)
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    per_call = call_times(args.workload, args.calls)
    sequence = statistics.median(map(sum, zip(*(t for _, t in per_call))))
    print("%s at seed 0: %.2f ms per sequence, the median of %d passes"
          % (args.workload, 1e3 * sequence, args.calls))
    for label, spent in per_call:
        median = statistics.median(spent)
        print("  %9.3f ms %4.0f%%  %s"
              % (1e3 * median, 100 * median / sequence, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
