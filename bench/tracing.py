"""Spans around the calls the benchmark makes into each parkdet layer.

Nothing here edits parkdet. In-process workloads call parkdet through
the namespace `api()` returns, whose functions are wrapped when a tracer
is given. The `verify-all` workload runs the CLI, so its child process
instead rebinds the names as `parkdet.suites` and `parkdet.cli` hold them
(`instrument_cli`). One name inside the library is rebound as well:
`parkdet.standard_count.artinian_bounds`, which `count_standard` looks up
at call time, so the box-bound step gets a span of its own.

A span is `[id, parent, layer, name, start, end, attrs]`; ids are list
indices. Spans stay in memory until the run ends. A layer's self time
is the length of its spans minus the part covered by their child spans.
With `memory=True`, tracemalloc gives the peak allocation above the
level at entry, per layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from math import comb
from types import SimpleNamespace

# The public functions the benchmark and the suites call, by layer.
LAYERS = {
    "multigraph": ("random_multigraph", "random_root_deletion", "complete_multigraph",
                   "complete_minus_root_edges", "from_edges", "laplacians",
                   "relabel_vertices", "delete_root_edge", "merge_into_root"),
    "monomial_ideals": ("skeleton_ideal", "parking_ideal", "matrix_skeleton_ideal",
                        "step_weight_ideal", "lambda_ideal", "colon"),
    "standard_count": ("count_standard", "count_standard_ie", "enumerate_standard"),
    "exact_linalg": ("det", "is_psd", "has_dominant_diagonal", "principal_submatrix",
                     "matmul", "matrix"),
    "formulas": ("parking_dim_complete", "skeleton1_dim_complete",
                 "root_deleted_signless_det", "step_weight_dim"),
}


def _ideal(candidates):
    return lambda args, result: {"subsets": candidates(*args), "gens": len(result.gens)}


# Work counts recorded on a span from the call's arguments and result.
# "subsets" is the number of candidate generators a constructor builds
# before minimalization; "gens" the number it keeps.
COUNTERS = {
    "count_standard": lambda args, result: {"monomials": result},
    "skeleton_ideal": _ideal(lambda g, k: sum(comb(g.n, s) for s in range(1, k + 2))),
    "parking_ideal": _ideal(lambda g: 2 ** g.n - 1),
    "matrix_skeleton_ideal": _ideal(lambda h: comb(h.order + 1, 2)),
    "step_weight_ideal": _ideal(lambda n, r, a: comb(n + 1, 2)),
    "lambda_ideal": _ideal(lambda lam: 2 ** len(lam) - 1),
    "det": lambda args, result: {"bits": abs(result).bit_length(), "order": args[0].order},
    "is_psd": lambda args, result: {"order": args[0].order},
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.memory = memory
        self.peak_kb: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, traced bytes at entry, highest traced bytes seen]

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)
        return traced

    def call(self, layer, name, fn, args, kwargs):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, layer, name, 0.0, 0.0, None]
        self.spans.append(span)
        frame = [span[0], 0, 0]
        if self.memory:
            frame[1] = frame[2] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._stack.append(frame)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                high = max(frame[2], tracemalloc.get_traced_memory()[1])
                self.peak_kb[layer] = max(self.peak_kb[layer], (high - frame[1]) / 1024)
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], high)
                tracemalloc.reset_peak()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[6] = counter(args, result)
        return result

    def adopt(self, spans: list[list], parent: int | None):
        """Append spans recorded by another process, under `parent`."""
        base = len(self.spans)
        for sid, par, *rest in spans:
            self.spans.append([sid + base, parent if par is None else par + base, *rest])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "peak_kb": self.peak_kb}, fh)


def api(tracer: Tracer | None = None) -> SimpleNamespace:
    """parkdet's public functions by name, wrapped when a tracer is given."""
    funcs = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"parkdet.{layer}")
        for name in names:
            fn = getattr(module, name)
            funcs[name] = fn if tracer is None else tracer.wrap(layer, name, fn)
    if tracer is not None:
        trace_artinian_bounds(tracer)
    return SimpleNamespace(**funcs)


def trace_artinian_bounds(tracer: Tracer):
    import parkdet.standard_count as sc
    original = getattr(sc.artinian_bounds, "__wrapped__", sc.artinian_bounds)
    sc.artinian_bounds = tracer.wrap("standard_count", "artinian_bounds", original)


def instrument_cli(tracer: Tracer):
    """Rebind the layer functions, suites and report serialization as
    `parkdet.suites` and `parkdet.cli` hold them."""
    import parkdet.cli as cli
    import parkdet.suites as suites
    for layer, names in LAYERS.items():
        for name in names:
            if hasattr(suites, name):
                setattr(suites, name, tracer.wrap(layer, name, getattr(suites, name)))
    for key, fn in list(suites.SUITES.items()):
        suites.SUITES[key] = tracer.wrap("suites", key, fn)
    suites.Report.to_dict = tracer.wrap("suites", "serialize", suites.Report.to_dict)
    cli.json = SimpleNamespace(dumps=tracer.wrap("suites", "serialize", json.dumps))
    trace_artinian_bounds(tracer)


def self_times(spans: list[list]) -> dict[tuple[str, str], float]:
    """Self time summed per (layer, name)."""
    covered = [0.0] * len(spans)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[tuple[str, str], float] = defaultdict(float)
    for sid, _, layer, name, start, end, _ in spans:
        out[(layer, name)] += end - start - covered[sid]
    return out


def layer_metrics(spans: list[list], verdicts: int, wall: float) -> dict[str, float]:
    """Per-verdict self times and work counts from the spans of `verdicts`
    verdicts that took `wall` seconds, set-up included."""
    from parkdet.suites import SUITES
    selfs = self_times(spans)
    per = lambda x: x / verdicts  # noqa: E731
    layer_s: dict[str, float] = defaultdict(float)
    for (layer, name), s in selfs.items():
        layer_s[layer] += s
    attrs: dict[tuple[str, str], int] = defaultdict(int)
    for _, _, layer, name, _, _, a in spans:
        for k, v in (a or {}).items():
            key = (layer, k)
            attrs[key] = max(attrs[key], v) if k in ("bits", "order") else attrs[key] + v
    count_names = ("count_standard", "count_standard_ie", "enumerate_standard")
    count_s = sum(selfs.get(("standard_count", n), 0.0) for n in count_names)
    monomials = attrs[("standard_count", "monomials")]
    subsets, gens = attrs[("monomial_ideals", "subsets")], attrs[("monomial_ideals", "gens")]
    psd_s, det_s = selfs.get(("exact_linalg", "is_psd"), 0.0), selfs.get(("exact_linalg", "det"), 0.0)
    m = {
        "standard_count.count_s": per(count_s),
        "standard_count.calls": per(sum(1 for s in spans if s[2] == "standard_count" and s[3] in count_names)),
        "standard_count.monomials": per(monomials),
        "standard_count.monomials_per_s": monomials / count_s if count_s else 0.0,
        "standard_count.artinian_bounds_s": per(selfs.get(("standard_count", "artinian_bounds"), 0.0)),
        "monomial_ideals.build_s": per(layer_s["monomial_ideals"]),
        "monomial_ideals.subsets": per(subsets),
        "monomial_ideals.gens_minimal": per(gens),
        "monomial_ideals.kept_ratio": gens / subsets if subsets else 0.0,
        "exact_linalg.is_psd_s": per(psd_s),
        "exact_linalg.det_s": per(det_s),
        "exact_linalg.other_s": per(layer_s["exact_linalg"] - psd_s - det_s),
        "exact_linalg.det_bits": attrs[("exact_linalg", "bits")],
        "exact_linalg.order_max": attrs[("exact_linalg", "order")],
        "formulas.closed_form_s": per(layer_s["formulas"]),
        "multigraph.build_s": per(layer_s["multigraph"]),
    }
    for suite in SUITES:
        m[f"suites.{suite}_s"] = per(selfs.get(("suites", suite), 0.0))
    m["suites.serialize_s"] = per(selfs.get(("suites", "serialize"), 0.0))
    for part in ("import", "main", "process"):
        m[f"cli.{part}_s"] = per(selfs.get(("cli", part), 0.0))
    m["bench.self_s"] = per(wall - sum(layer_s.values()))
    m["trace.wall_s"] = per(wall)
    return m
