"""Benchmark of cychom's public API on four exact-homology workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One single-threaded process makes the
workload's calls as a closed loop with one caller: each call starts when the
previous one has returned, and every answer is checked against its exact
reference.  With ``--trace 0`` the call sequence repeats while another one
fits in S seconds, and the run reports the median sequence time
(``solve_s``), the median set-up time over several fresh interpreters
(``setup_s``) and the peak resident set (``peak_rss_mib``).  Both times are
normalized for the host's speed by ``hostspeed.py``.  With ``--trace 1`` the
inputs are built and the sequence runs once with spans recorded at each
module boundary, every original is restored, the sequence runs once more
untraced, and the run reports the per-layer metrics of ``tracer.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the seed, the failure fraction, the raw wall times, the line count
of ``src/`` and the Python version.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up takes a tenth of a second or two, so take the median of several
SETUP_SAMPLES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import and input set-up once, print seconds")
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    probe = hostspeed.Probe()
    for _ in range(5):
        probe.sample()
    start = time.perf_counter()
    import cases
    cases.WORKLOADS[workload](seed)
    wall = time.perf_counter() - start
    for _ in range(5):
        probe.sample()
    print(wall, probe.normalize(wall))


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median wall and normalized time from before ``import cychom`` to
    validated inputs, each sample in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    walls, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        wall, norm = done.stdout.split()[-2:]
        walls.append(float(wall))
        normalized.append(float(norm))
    return statistics.median(walls), statistics.median(normalized)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Repeat the call sequence while another one fits in the time given."""
    import cases
    calls = cases.WORKLOADS[workload](seed)
    walls, times, failed = [], [], 0
    start = time.perf_counter()
    while True:
        bad, wall, norm = hostspeed.timed(lambda: cases.run_calls(calls))
        walls.append(wall)
        times.append(norm)
        failed += bad
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    setup_wall, setup_norm = setup_seconds(workload, seed)
    metrics = {
        "solve_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": setup_norm, "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB"},
    }
    detail = {"solve_s_each": times, "solve_wall_s": statistics.median(walls),
              "setup_wall_s": setup_wall}
    return metrics, len(times) * len(calls), failed, detail


def trace(workload: str, seed: int) -> tuple:
    """One traced set-up and sequence, then one untraced sequence."""
    import cases
    import tracer
    spans = tracer.Tracer()
    spans.install()
    try:
        calls = cases.WORKLOADS[workload](seed)
        failed, traced_wall, traced_s = hostspeed.timed(
            lambda: cases.run_calls(calls), spans)
    finally:
        spans.restore()
    bad, _, plain_s = hostspeed.timed(lambda: cases.run_calls(calls))
    metrics = spans.metrics(scale=traced_s / traced_wall)
    metrics["trace.overhead_frac"] = {
        "value": (traced_s - plain_s) / plain_s, "unit": "frac"}
    return (metrics, 2 * len(calls), failed + bad,
            {"traced_s": traced_s, "untraced_s": plain_s,
             "spans": len(spans.spans)})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cychom" / "__init__.py").is_file():
        print("perfbench: no cychom sources at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import cases
    if args.workload not in cases.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(cases.WORKLOADS)), file=sys.stderr)
        return 2
    if args.trace:
        metrics, attempted, failed, detail = trace(args.workload, args.seed)
    else:
        metrics, attempted, failed, detail = measure(args.workload, args.seed,
                                                     args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "fail_frac": failed / attempted, **detail,
            "src_lines": src_lines(), "python": platform.python_version()}
    print("perfbench " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
