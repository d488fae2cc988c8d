"""Spans and counts at the public boundaries of cychom's modules.

The tracer works from outside the package: it replaces each boundary
function with a wrapper in every cychom module that binds it (``bar_complex``
is also bound in ``cyclic``, ``homology`` in ``hochschild`` and ``cyclic``,
``hh`` in ``crossprod``), and methods on their class.  ``restore`` puts every
original back.  A span is (name, start, end, parent span); a layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# spans of the benchmark's own work: count hooks and host-speed samples
HOOK = "trace.hook"
PROBE = "trace.probe"
OWN = (HOOK, PROBE)


def _nnz(rows) -> int:
    return sum(len(row) for row in rows)


def _count_reduced_rows(args, result):
    rows, pivots = result
    # every caller passes a list, so the input rows are still there to count
    return {"in_nnz": _nnz(args[0]), "out_nnz": _nnz(rows), "rank": len(pivots)}


def _count_rref_rows(args, result):
    return {"rank": len(result[1])}


def _count_bar_complex(args, window):
    return {"chain_coords": sum(window.dims),
            "boundary_nnz": sum(_nnz(b.rows) for b in window.boundaries[1:])}


def _count_cyclic_complex(args, window):
    return {"total_coords": sum(window.dims)}


# (module, qualified name, count hook) of each traced boundary
BOUNDARIES = [
    ("linalg", "reduced_rows", _count_reduced_rows),
    ("linalg", "rref_rows", _count_rref_rows),
    ("linalg", "homology", None),
    ("linalg", "Homology.__init__", None),
    ("linalg", "induced_map", None),
    ("hochschild", "bar_complex", _count_bar_complex),
    ("hochschild", "hh", None),
    ("hochschild", "hh_with_coefficients", None),
    ("cyclic", "cyclic_complex", _count_cyclic_complex),
    ("cyclic", "hc", None),
    ("cyclic", "hp", None),
    ("structure", "semisimple_quotient", None),
    ("structure", "center", None),
    ("spectrum", "wedderburn_blocks", None),
    ("spectrum", "extend_scalars", None),
    ("crossprod", "hh_decomposition", None),
    ("crossprod", "invariants", None),
    ("crossprod", "phi_isomorphism_report", None),
    ("chern", "chern_idempotent", None),
    ("chern", "chern_invertible", None),
    ("algebra", "FDAlgebra.validate", None),
    ("groups", "group_algebra", None),
]

# (metric, unit, statistic, spans it sums).  The statistic is "self" (span
# minus children), "total" (outermost spans of each name), "calls", or a
# count key recorded by a hook.
LAYER_METRICS = [
    ("linalg.reduced_rows.self_s", "s", "self", ["linalg.reduced_rows"]),
    ("linalg.reduced_rows.calls", "count", "calls", ["linalg.reduced_rows"]),
    ("linalg.reduced_rows.in_nnz", "count", "in_nnz", ["linalg.reduced_rows"]),
    ("linalg.reduced_rows.out_nnz", "count", "out_nnz", ["linalg.reduced_rows"]),
    ("linalg.reduced_rows.rank", "count", "rank", ["linalg.reduced_rows"]),
    ("linalg.rref_rows.self_s", "s", "self", ["linalg.rref_rows"]),
    ("linalg.rref_rows.rank", "count", "rank", ["linalg.rref_rows"]),
    ("linalg.homology.self_s", "s", "self",
     ["linalg.homology", "linalg.Homology.__init__"]),
    ("linalg.induced_map.s", "s", "total", ["linalg.induced_map"]),
    ("linalg.induced_map.calls", "count", "calls", ["linalg.induced_map"]),
    ("hochschild.bar_complex.self_s", "s", "self", ["hochschild.bar_complex"]),
    ("hochschild.bar_complex.calls", "count", "calls", ["hochschild.bar_complex"]),
    ("hochschild.chain_coords", "count", "chain_coords", ["hochschild.bar_complex"]),
    ("hochschild.boundary_nnz", "count", "boundary_nnz", ["hochschild.bar_complex"]),
    ("hochschild.hh_with_coefficients.s", "s", "total",
     ["hochschild.hh_with_coefficients"]),
    ("cyclic.cyclic_complex.self_s", "s", "self", ["cyclic.cyclic_complex"]),
    ("cyclic.total_coords", "count", "total_coords", ["cyclic.cyclic_complex"]),
    ("cyclic.hc.self_s", "s", "self", ["cyclic.hc"]),
    ("cyclic.hp.self_s", "s", "self", ["cyclic.hp"]),
    ("structure.semisimple_quotient.s", "s", "total",
     ["structure.semisimple_quotient"]),
    ("structure.center.s", "s", "total", ["structure.center"]),
    ("spectrum.wedderburn_blocks.self_s", "s", "self", ["spectrum.wedderburn_blocks"]),
    ("spectrum.extend_scalars.s", "s", "total", ["spectrum.extend_scalars"]),
    ("crossprod.hh_decomposition.self_s", "s", "self", ["crossprod.hh_decomposition"]),
    ("crossprod.invariants.s", "s", "total", ["crossprod.invariants"]),
    ("crossprod.phi_isomorphism_report.s", "s", "total",
     ["crossprod.phi_isomorphism_report"]),
    ("chern.chern_idempotent.self_s", "s", "self", ["chern.chern_idempotent"]),
    ("chern.chern_invertible.self_s", "s", "self", ["chern.chern_invertible"]),
    ("algebra.FDAlgebra.validate.s", "s", "total", ["algebra.FDAlgebra.validate"]),
    ("groups.group_algebra.s", "s", "total", ["groups.group_algebra"]),
]

# metrics derived from the ones above or from the run, with their units
DERIVED_METRICS = [
    ("linalg.reduced_rows.ns_per_in_nnz", "ns"),
    ("trace.overhead_frac", "frac"),
]


def _cychom_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "cychom" or name.startswith("cychom.")]


class Tracer:
    """Records spans and counts while installed; restores every original."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index or None]
        self.counts: dict = {}     # span name -> {count key: total}
        self._open: list = []      # indices of spans not yet ended
        self.patches: list = []    # (owner, attribute, original)

    def install(self) -> None:
        modules = _cychom_modules()
        for module_name, qualname, hook in BOUNDARIES:
            owner = sys.modules["cychom." + module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(module_name + "." + qualname, original, hook)
            if path:
                # a method is looked up on its class only
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                # counting is the tracer's work: a sibling span keeps it out
                # of the caller's self time
                hook_index = tracer.begin(HOOK)
                totals = tracer.counts.setdefault(name, {})
                for key, value in hook(args, result).items():
                    totals[key] = totals.get(key, 0) + value
                tracer.end(hook_index)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def layer_totals(self) -> dict:
        """Per span name: calls, total time of outermost spans, self time.

        Time spent in the tracer's own spans (count hooks, host-speed
        samples) is in neither the self time nor the total of any layer.
        """
        child_time = [0.0] * len(self.spans)
        own_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
            if name in OWN:
                ancestor = parent
                while ancestor is not None:
                    own_time[ancestor] += end - start
                    ancestor = self.spans[ancestor][3]
        stats: dict = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["self"] += end - start - child_time[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                entry["total"] += end - start - own_time[index]
        return stats

    def metrics(self, scale: float = 1.0) -> dict:
        """Every LAYER_METRICS value, plus ns per input entry of reduced_rows.

        Times are multiplied by ``scale``, the run's host-speed factor.
        """
        stats = self.layer_totals()
        out = {}
        for metric, unit, stat, names in LAYER_METRICS:
            value = 0
            for name in names:
                if stat in ("self", "total", "calls"):
                    value += stats.get(name, {}).get(stat, 0)
                else:
                    value += self.counts.get(name, {}).get(stat, 0)
            if unit == "s":
                value *= scale
            out[metric] = {"value": value, "unit": unit}
        in_nnz = out["linalg.reduced_rows.in_nnz"]["value"]
        self_s = out["linalg.reduced_rows.self_s"]["value"]
        out["linalg.reduced_rows.ns_per_in_nnz"] = {
            "value": self_s * 1e9 / in_nnz if in_nnz else 0, "unit": "ns"}
        return out
