"""In-memory spans around the benchmark's calls into pcsp, and the per-layer
metrics derived from them.

A span records a name, start and end (``time.perf_counter``), its parent span
and the query it belongs to, plus counts noted at the call site.  With
tracing off, ``Tracer.span`` hands back one shared no-op span, so the timed
runs execute the same code with a near-zero cost.
"""

import json
import statistics
import time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **attrs):
        pass


_NULL = _NullSpan()


class Span:
    __slots__ = ("tracer", "sid", "name", "qid", "parent", "start", "end", "attrs")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.qid = tracer.qid
        self.sid = self.parent = None
        self.start = self.end = 0.0

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        self.parent = tr.stack[-1].sid if tr.stack else None
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        self.end = time.perf_counter()
        tr.stack.pop()
        if exc[0] is not None:
            self.attrs["error"] = exc[0].__name__
        return False

    def note(self, **attrs):
        self.attrs.update(attrs)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans when ``on``; otherwise every span is the no-op span."""

    def __init__(self, on):
        self.on = on
        self.spans = []
        self.stack = []
        self.qid = None

    def span(self, name, **attrs):
        if not self.on:
            return _NULL
        return Span(self, name, attrs)

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "query": s.qid,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "attrs": s.attrs}, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

LAYERS = (
    "ratlp.feasible",
    "sherali_adams.build_sa",
    "consistency.compute_strategy",
    "core.hom_search",
    "random_instances.sample_hypergraph",
    "random_instances.is_alpha_beta_sparse",
    "random_instances.derive_parameters",
    "coloring.color",
    "coloring.oracle",
)


def _median_ms(durations):
    return statistics.median(durations) * 1e3 if durations else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics as ``{name: (value, unit)}``.

    Every metric is present for every workload; a layer the workload does
    not call reports zero calls and zero time.
    """
    by_name = {name: [] for name in LAYERS + ("query",)}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out = {}

    def base(name):
        group = by_name[name]
        busy = sum(s.duration for s in group)
        out[name + ".calls"] = (len(group), "count")
        out[name + ".busy_s"] = (busy, "s")
        return group, busy

    def count(group, key):
        return sum(1 for s in group if s.attrs.get(key))

    def total(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    group, _ = base("ratlp.feasible")
    feas = [s.duration for s in group if s.attrs.get("feasible")]
    infeas = [s.duration for s in group if s.attrs.get("feasible") is False]
    out["ratlp.feasible.feasible_ratio"] = (_ratio(len(feas), len(group)), "ratio")
    out["ratlp.feasible.feasible_p50_ms"] = (_median_ms(feas), "ms")
    out["ratlp.feasible.infeasible_p50_ms"] = (_median_ms(infeas), "ms")
    out["ratlp.feasible.sa_busy_s"] = (
        sum(s.duration for s in group if s.attrs.get("kind") == "sa"), "s")
    out["ratlp.feasible.general_busy_s"] = (
        sum(s.duration for s in group if s.attrs.get("kind") == "general"), "s")

    group, _ = base("sherali_adams.build_sa")
    for key in ("lp_vars", "lp_rows", "lp_nonzeros"):
        out["sherali_adams.build_sa." + key] = (total(group, key), "count")

    group, _ = base("consistency.compute_strategy")
    kept, space = total(group, "maps_kept"), total(group, "map_space")
    out["consistency.compute_strategy.accept_ratio"] = (
        _ratio(count(group, "accepted"), len(group)), "ratio")
    out["consistency.compute_strategy.maps_kept"] = (kept, "count")
    out["consistency.compute_strategy.map_space"] = (space, "count")
    out["consistency.compute_strategy.kept_ratio"] = (_ratio(kept, space), "ratio")

    group, _ = base("core.hom_search")
    out["core.hom_search.found_ratio"] = (_ratio(count(group, "found"), len(group)), "ratio")
    out["core.hom_search.budget_exceeded"] = (
        sum(1 for s in group if s.attrs.get("error") == "BudgetExceededError"), "count")

    group, _ = base("random_instances.sample_hypergraph")
    out["random_instances.sample_hypergraph.edges"] = (total(group, "edges"), "count")

    group, _ = base("random_instances.is_alpha_beta_sparse")
    out["random_instances.is_alpha_beta_sparse.exact_ratio"] = (
        _ratio(count(group, "exact"), len(group)), "ratio")

    base("random_instances.derive_parameters")

    group, busy = base("coloring.color")
    out["coloring.color.self_s"] = (busy - sum(child_time[s.sid] for s in group), "s")
    out["coloring.levels"] = (total(group, "levels"), "count")

    group, _ = base("coloring.oracle")
    out["coloring.oracle.vertices"] = (total(group, "vertices"), "count")
    out["coloring.oracle.refused"] = (count(group, "refused"), "count")

    # the query span's self time is the benchmark's own glue inside the
    # timed region (building LPs' inputs, wrapping results)
    group, busy = base("query")
    out["query.self_s"] = (busy - sum(child_time[s.sid] for s in group), "s")
    return out

