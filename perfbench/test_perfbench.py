"""Self-tests of the benchmark: tracing, answer checks, seeds, metric lists.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cases
import hostspeed
import tracer
from cychom import algebra, hochschild, linalg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _wrappers_left() -> list:
    """Every place a traced wrapper is still reachable from cychom."""
    left = []
    for module in tracer._cychom_modules():
        for key, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                left.append((module.__name__, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        left.append((module.__name__, key, attr))
    return left


def test_tracer_wraps_every_lookup_site_and_restores_them():
    originals = (linalg.homology, linalg.Homology.__init__,
                 hochschild.bar_complex, algebra.FDAlgebra.validate)
    spans = tracer.Tracer()
    spans.install()
    try:
        patched = {(getattr(owner, "__name__", owner), attr)
                   for owner, attr, _ in spans.patches}
        for site in [("cychom.cyclic", "bar_complex"),
                     ("cychom.hochschild", "homology"),
                     ("cychom.crossprod", "hh"),
                     ("Homology", "__init__")]:
            assert site in patched
        report = hochschild.hh(algebra.truncated_polynomial(2), 2)
    finally:
        spans.restore()
    assert report.dims == [2, 1, 1]
    assert not _wrappers_left()
    assert (linalg.homology, linalg.Homology.__init__,
            hochschild.bar_complex, algebra.FDAlgebra.validate) == originals

    stats = spans.layer_totals()
    hh_span = stats["hochschild.hh"]
    assert hh_span["calls"] == 1
    assert 0 < hh_span["self"] <= hh_span["total"]
    # Homology.__init__ runs inside homology(), so it is a child span
    by_index = spans.spans
    inits = [s for s in by_index if s[0] == "linalg.Homology.__init__"]
    assert inits and all(by_index[s[3]][0] == "linalg.homology" for s in inits)
    metrics = spans.metrics()
    assert metrics["hochschild.bar_complex.calls"]["value"] == 1
    assert metrics["hochschild.chain_coords"]["value"] == 2 + 2 + 2 + 2
    assert metrics["linalg.reduced_rows.rank"]["value"] > 0


def test_host_speed_samples_stay_out_of_layer_times():
    spans = tracer.Tracer()
    handler = signal.getsignal(signal.SIGALRM)

    def busy():
        index = spans.begin("work")
        start = perf_counter()
        while perf_counter() - start < 0.35:
            pass
        spans.end(index)

    _, wall, normalized = hostspeed.timed(busy, spans)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert wall > 0 and normalized > 0
    work = next(i for i, s in enumerate(spans.spans) if s[0] == "work")
    inside = [s for s in spans.spans
              if s[0] == hostspeed.PROBE and s[3] == work]
    assert len(inside) >= 2
    probe_s = sum(end - start for _, start, end, _ in inside)
    name, start, end, _ = spans.spans[work]
    stats = spans.layer_totals()["work"]
    assert abs(stats["self"] - (end - start - probe_s)) < 1e-9
    assert abs(stats["total"] - stats["self"]) < 1e-9


def test_wrong_answers_and_errors_count_as_failed_calls():
    def boom():
        raise ValueError("injected")

    right = cases.Call("hh(Q[x]/x^2, 1)",
                       lambda: hochschild.hh(algebra.truncated_polynomial(2), 1),
                       cases._dims, [2, 1])
    wrong = right._replace(expected=[2, 2])
    raising = right._replace(run=boom)
    assert cases.run_calls([right]) == 0
    assert cases.run_calls([right, wrong, raising]) == 2


def test_seed_relabels_to_an_isomorphic_algebra():
    A = algebra.truncated_polynomial(3)
    same = cases.relabel(A, 0)
    assert same.mul == A.mul and same.unit == A.unit
    moved = cases.relabel(A, 2)
    assert moved.mul != A.mul
    assert hochschild.hh(moved, 2).dims == hochschild.hh(A, 2).dims
    assert cases.relabel(A, 2).mul == moved.mul


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m[0] for m in tracer.LAYER_METRICS]
    layer_names += [m[0] for m in tracer.DERIVED_METRICS]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    units = {m[0]: m[1] for m in tracer.LAYER_METRICS + tracer.DERIVED_METRICS}
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "solve_s", "setup_s", "peak_rss_mib"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hh_group_q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
