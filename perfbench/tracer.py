"""Per-layer tracing from outside the program.

The tracer replaces public functions of pattern_forge's modules with
wrappers. A function is replaced under every module attribute that holds it,
which is where its callers look the name up (`pipeline.extract_pattern`,
`graph.match_polygons`, `align.match_polygons`, ...). Each wrapped call
records a span -- name, parent span, start, end, outcome -- in memory; the
spans are written out once the run is over. `clip_polygon` runs tens of
millions of times per run, so it gets a call/hit counter and no span.

Self time is a span's duration minus the durations of its direct children
(the program is single-threaded, so children never overlap). A ratio over
zero calls reads 0 (the matching `.calls` metric shows why). A function the
program no longer has is reported as absent (null), never as zero.
"""

import functools
import importlib
import json
import time

MODULES = ("layout_io", "geometry", "raster", "align", "prescreen", "graph", "scp", "pipeline")


def _returned(_result):
    return True  # a raised exception marks the span as failed instead


def _not_none(result):
    return result is not None


def _solver_counts(result):
    st = result.stats
    return {"scp.solve.pops": st.pops, "scp.solve.recomputations": st.recomputations}


def _pair_funnel(result):
    st = result.stats
    return {"prescreen.pairs_total": st.total_pairs,
            "prescreen.pairs_after_topology": st.after_topology,
            "prescreen.pairs_after_thumbnail": st.after_thumbnail}


# (module, function, outcome, totals) -- outcome maps a returned value to a
# success flag (a raised exception always counts as a failure); totals maps
# it to counts that are summed over all calls.
SPANNED = (
    ("layout_io", "parse_layout", None, None),
    ("geometry", "extract_pattern", None, None),
    ("geometry", "match_polygons", _returned, None),
    ("geometry", "edge_displacements", _returned, None),
    ("raster", "pattern_features", None, None),
    ("raster", "coverage_grid", None, None),
    ("raster", "dct_features", None, None),
    ("raster", "cosine_similarity", None, None),
    ("align", "xy_minmax_align", None, None),
    ("align", "edge_fit_aligned", None, None),
    ("align", "edge_minmax_align", None, None),
    ("align", "phase_correlate", None, None),
    ("prescreen", "build_candidates", None, _pair_funnel),
    ("prescreen", "compatible", None, None),
    ("graph", "evaluate_pair_relaxed", _not_none, None),
    ("graph", "assemble", None, None),
    ("scp", "solve", None, _solver_counts),
    ("pipeline", "run_full", None, None),
    ("pipeline", "refine_cluster", _not_none, None),
    ("pipeline", "verify_clusterset", None, None),
)
# summed metric -> the function whose results it is read from
TOTALS = {
    "prescreen.pairs_total": "prescreen.build_candidates",
    "prescreen.pairs_after_topology": "prescreen.build_candidates",
    "prescreen.pairs_after_thumbnail": "prescreen.build_candidates",
    "scp.solve.pops": "scp.solve",
    "scp.solve.recomputations": "scp.solve",
}
COUNTED = (("geometry", "clip_polygon"),)

STAGES = ("probe", "extract", "prescreen", "graph", "solve", "refine")

# metric name -> unit, in report order
PER_LAYER = {
    "layout_io.parse_layout.self_s": "s",
    "layout_io.input_bytes": "B",
    "geometry.extract_pattern.calls": "count",
    "geometry.extract_pattern.self_s": "s",
    "geometry.clip_polygon.calls": "count",
    "geometry.clip_polygon.hit_ratio": "ratio",
    "geometry.match_polygons.calls": "count",
    "geometry.match_polygons.self_s": "s",
    "geometry.match_polygons.fail_ratio": "ratio",
    "geometry.edge_displacements.calls": "count",
    "geometry.edge_displacements.self_s": "s",
    "geometry.edge_displacements.fail_ratio": "ratio",
    "raster.pattern_features.calls": "count",
    "raster.coverage_grid.calls": "count",
    "raster.coverage_grid.self_s": "s",
    "raster.dct_features.calls": "count",
    "raster.dct_features.self_s": "s",
    "raster.cosine_similarity.calls": "count",
    "raster.cosine_similarity.self_s": "s",
    "align.xy_minmax_align.calls": "count",
    "align.xy_minmax_align.self_s": "s",
    "align.edge_fit_aligned.calls": "count",
    "align.edge_fit_aligned.self_s": "s",
    "align.edge_minmax_align.calls": "count",
    "align.edge_minmax_align.self_s": "s",
    "align.phase_correlate.calls": "count",
    "prescreen.build_candidates.self_s": "s",
    "prescreen.pairs_total": "count",
    "prescreen.pairs_after_topology": "count",
    "prescreen.pairs_after_thumbnail": "count",
    "prescreen.compatible.calls": "count",
    "graph.evaluate_pair_relaxed.calls": "count",
    "graph.evaluate_pair_relaxed.self_s": "s",
    "graph.evaluate_pair_relaxed.total_s": "s",
    "graph.evaluate_pair_relaxed.accept_ratio": "ratio",
    "graph.assemble.self_s": "s",
    "scp.solve.self_s": "s",
    "scp.solve.pops": "count",
    "scp.solve.recomputations": "count",
    "pipeline.run_full.self_s": "s",
    "pipeline.run_full.total_s": "s",
    "pipeline.refine_cluster.calls": "count",
    "pipeline.refine_cluster.self_s": "s",
    "pipeline.refine_cluster.accept_ratio": "ratio",
    "pipeline.verify_clusterset.self_s": "s",
    "pipeline.iterations": "count",
    "pipeline.probe_joined": "count",
    "pipeline.deferred": "count",
    "pipeline.orphaned": "count",
    **{f"pipeline.stage_s.{s}": "s" for s in STAGES},
    "trace.markers_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index, start, end, ok]
        self.counters: dict[str, list[int]] = {}  # name -> [calls, non-empty results]
        self.sums: dict[str, int] = {}  # totals read from returned stats
        self.absent: set[str] = set()
        self._stack: list[int] = []  # indices of the open spans
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"pattern_forge.{m}")
            except ModuleNotFoundError:
                pass  # every function of a missing module is reported absent
        for mod, fn, outcome, totals in SPANNED:
            self._replace(mods, mod, fn,
                          functools.partial(self._spanned, outcome=outcome, totals=totals))
        for mod, fn in COUNTED:
            self._replace(mods, mod, fn, self._counted)

    def _replace(self, mods, mod, fn, make):
        name = f"{mod}.{fn}"
        orig = getattr(mods.get(mod), fn, None)
        if orig is None:
            self.absent.add(name)
            return
        wrapper = make(name, orig)
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._patched.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _spanned(self, name, fn, outcome, totals):
        idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sums = self.sums

        def wrapper(*args, **kwargs):
            rec = [idx, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = False
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if outcome is not None:
                rec[4] = outcome(result)
            if totals is not None:
                for key, value in totals(result).items():
                    sums[key] = sums.get(key, 0) + value
            return result

        return wrapper

    def _counted(self, name, fn):
        c = self.counters.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            c[0] += 1
            if result:
                c[1] += 1
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def per_function(self) -> dict[str, dict]:
        """calls, self_s, total_s and ok count per spanned function name."""
        child = [0.0] * len(self.spans)
        for _n, parent, t0, t1, _ok in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "ok": 0} for name in self.names}
        for k, (n, _parent, t0, t1, ok) in enumerate(self.spans):
            agg = out[self.names[n]]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[k]
            agg["ok"] += ok is True
        return out

    def layer_metrics(self, stats) -> dict:
        """Every PER_LAYER metric that the run itself determines (None where
        the program lacks the function or field)."""
        fns = self.per_function()
        vals: dict[str, float | None] = {}
        for metric in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if metric in TOTALS:
                vals[metric] = self.sums.get(metric, 0) if TOTALS[metric] in fns else None
            elif base in fns:
                agg = fns[base]
                calls = agg["calls"]
                if field in ("calls", "self_s", "total_s"):
                    vals[metric] = agg[field]
                elif field == "fail_ratio":
                    vals[metric] = (calls - agg["ok"]) / calls if calls else 0.0
                elif field == "accept_ratio":
                    vals[metric] = agg["ok"] / calls if calls else 0.0
            elif base in self.counters:
                calls, hits = self.counters[base]
                vals[metric] = calls if field == "calls" else (hits / calls if calls else 0.0)
            elif base in self.absent:
                vals[metric] = None
        vals.update(_run_stats_metrics(stats))
        return vals

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters,
                       "fields": ["name", "parent", "start_s", "end_s", "ok"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _run_stats_metrics(stats) -> dict:
    """pipeline.* counts and stage times read from the returned RunStats."""
    iters = getattr(stats, "iterations", None)
    out: dict[str, float | None] = {"pipeline.iterations": getattr(stats, "iterations_used", None)}
    for key in ("probe_joined", "deferred", "orphaned"):
        if iters is None or not all(hasattr(it, key) for it in iters):
            out[f"pipeline.{key}"] = None
        else:
            out[f"pipeline.{key}"] = sum(getattr(it, key) for it in iters)
    for stage in STAGES:
        if iters is None or not all(hasattr(it, "timings_ms") for it in iters):
            out[f"pipeline.stage_s.{stage}"] = None
        else:
            out[f"pipeline.stage_s.{stage}"] = sum(it.timings_ms.get(stage, 0.0) for it in iters) / 1000.0
    return out
