"""Spans around calls into toricaut's layers, recorded from outside.

`Tracer.install` replaces each public layer function named in LAYERS, at
every module that imported it, with a wrapper that records one span
(name, start, end, parent span, operation id) and the counts below.  The
spans stay in memory until `write`; `aggregate` turns them into per-layer
self times (a span's duration minus the part its child spans cover) and
counts.  The program under test is not modified on disk.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

# layer -> public functions whose calls get a span.  `lattice` is called
# only by the other layers and `corpus` is data, so neither gets spans;
# their cost shows inside their callers' spans.
LAYERS = {
    "cli": ("parse_fan", "fan_from_document", "run_certificates"),
    "fan": ("validate_fan", "is_complete", "is_simplicial", "is_smooth",
            "product_fan", "transform_fan"),
    "roots": ("demazure_roots", "product_roots", "classify_roots"),
    "structure": ("fan_automorphisms", "fan_isomorphism", "generating_subset",
                  "decompose", "aut_structure_report", "wreath_order_check"),
    "symbolic": ("regularity_check", "action_additivity_check",
                 "infinitesimal_check", "faithfulness_check", "lie_dimension"),
}
MODULES = ("toricaut", "toricaut.cli", "toricaut.fan", "toricaut.roots",
           "toricaut.structure", "toricaut.symbolic", "toricaut.lattice",
           "toricaut.corpus")
ROOT_SPAN = "cli.main"

# per-layer metric -> the spans whose self time it sums
SELF_TIMES = {
    "cli.parse_s": ("cli.parse_fan", "cli.fan_from_document"),
    "fan.validate_s": ("fan.validate_fan",),
    "fan.complete_s": ("fan.is_complete",),
    "roots.bounds_s": ("roots.integer_box",),
    "roots.enumerate_s": ("roots.demazure_roots",),
    "structure.autos_s": ("structure.fan_automorphisms",),
    "structure.generators_s": ("structure.generating_subset",),
    "structure.decompose_s": ("structure.decompose",),
    "structure.wreath_s": ("structure.wreath_order_check",),
    "symbolic.regularity_s": ("symbolic.regularity_check",),
    "symbolic.additivity_s": ("symbolic.action_additivity_check",),
    "symbolic.infinitesimal_s": ("symbolic.infinitesimal_check",),
    "symbolic.faithfulness_s": ("symbolic.faithfulness_check",),
}
COUNTS = ("fan.cone_pairs", "fan.faces", "roots.box_points", "roots.found",
          "structure.group_order", "structure.factors",
          "symbolic.regularity_min_samples", "symbolic.additivity_terms",
          "symbolic.witness_failures", "memo.hits", "memo.misses", "trace.spans")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.counts = defaultdict(int)
        self.chart_samples: list = []
        self.memos: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, hook=None):
        """Run fn inside a span.  `hook(args)` runs before the clock starts
        and returns `finish(result, error)`, which runs after it stops, so
        counting is tracing overhead and not layer time."""
        finish = hook(args) if hook is not None else None
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
            if finish is not None:
                finish(result, error)

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a toricaut module refers
        to it, and RootPolytope.integer_box on its class."""
        modules = [importlib.import_module(m) for m in MODULES]
        roots, structure, symbolic = modules[3], modules[4], modules[5]
        self.memos = [roots.demazure_roots, structure.fan_automorphisms,
                      symbolic.dual_monomials]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"toricaut.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original, hooks.get(fname))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
        polytope = roots.RootPolytope
        polytope.integer_box = self.wrap("roots.integer_box", polytope.integer_box,
                                         hooks["integer_box"])

    def _hooks(self) -> dict:
        counts = self.counts

        def cone_pairs(args):
            def finish(report, error):
                if report is not None and (report.ok or any(
                        e.code == "intersection_not_face" for e in report.entries)):
                    counts["fan.cone_pairs"] += math.comb(len(args[0].max_cones), 2)
            return finish

        def faces(args):
            fan = args[0]
            built = "all_cones" in fan.__dict__

            def finish(result, error):
                if not built and "all_cones" in fan.__dict__:
                    counts["fan.faces"] += len(fan.all_cones)
            return finish

        def box_points(args):
            def finish(box, error):
                if box is not None:
                    counts["roots.box_points"] += math.prod(len(r) for r in box)
            return finish

        def computed(key, memo):
            """Count len(result) only when the memo missed, i.e. the call computed."""
            def hook(args):
                misses = memo.cache_info().misses

                def finish(result, error):
                    if result is not None and memo.cache_info().misses > misses:
                        counts[key] += len(result)
                return finish
            return hook

        def factors(args):
            def finish(dec, error):
                if dec is not None:
                    counts["structure.factors"] += len(dec.factors)
            return finish

        def regularity(args):
            def finish(cert, error):
                for entry in cert.entries if cert is not None else ():
                    if not entry.contains_distinguished_ray:
                        self.chart_samples.append(entry.samples_checked)
            return finish

        def additivity(args):
            fan, root, m = args[:3]
            k = sum(a * b for a, b in zip(fan.rays[root.rho_e], m))

            def finish(result, error):
                if k >= 0:
                    counts["symbolic.additivity_terms"] += (k + 1) * (k + 2) // 2
            return finish

        def witness(args):
            def finish(result, error):
                if isinstance(error, RuntimeError):
                    counts["symbolic.witness_failures"] += 1
            return finish

        demazure_roots, fan_automorphisms = self.memos[:2]
        return {
            "validate_fan": cone_pairs,
            "is_complete": faces,
            "integer_box": box_points,
            "demazure_roots": computed("roots.found", demazure_roots),
            "fan_automorphisms": computed("structure.group_order", fan_automorphisms),
            "decompose": factors,
            "regularity_check": regularity,
            "action_additivity_check": additivity,
            "faithfulness_check": witness,
        }

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[k]
        return dict(out)

    def aggregate(self) -> dict:
        """Every per-layer metric of one pass, as plain numbers."""
        by_name = self.self_times()
        out = {metric: sum(by_name.get(n, 0.0) for n in names)
               for metric, names in SELF_TIMES.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in by_name.items()
                                         if n.split(".")[0] == layer)
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        out["symbolic.regularity_min_samples"] = min(self.chart_samples, default=0)
        out["roots.hit_ratio"] = (self.counts["roots.found"] / self.counts["roots.box_points"]
                                  if self.counts["roots.box_points"] else 0.0)
        infos = [fn.cache_info() for fn in self.memos]
        out["memo.hits"] = sum(i.hits for i in infos)
        out["memo.misses"] = sum(i.misses for i in infos)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
