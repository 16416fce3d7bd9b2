"""Spans around the package's public functions, and the layer metrics.

The tracer wraps functions of `weylalt` from outside the package: it
replaces the name in every module that bound it (`from .altset import
compute` gives `bas`, `enumeration`, `typea` and `cli` bindings of their
own), so calls between modules are seen as well as calls from the
benchmark.  Each span is kept in memory as (name, start, end, parent span,
operation id, peak bytes) and written out once, when the process ends.

While `tracemalloc` is tracing, the spans named in `_PEAKED` also record
the peak memory traced during their call, for the `*.peak_kb` metrics.
Tracing allocations slows every call it covers several times over, so the
child turns it on in a repetition of its own, and only around the
workload's largest operation.

Processes forked by `counts --jobs 2` inherit the wrappers, but their spans
stay in those processes and are not collected: that work shows only in
`cli.counts.s` and `cli.counts.cpu_s`.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

from weylalt.weyl import group_order

# (module, function, span name).  Several functions may share a span name.
TARGETS = (
    ("weylalt.rootsys", "build_root_system", "rootsys.build"),
    ("weylalt.weyl", "enumerate_group", "weyl.enumerate_group"),
    ("weylalt.weyl", "from_word", "weyl.from_word"),
    ("weylalt.weyl", "multiply", "weyl.multiply"),
    ("weylalt.altset", "compute", "altset.compute"),
    ("weylalt.altset", "compute_naive", "altset.compute_naive"),
    ("weylalt.altset", "multiplicity", "altset.multiplicity"),
    ("weylalt.altset", "q_multiplicity", "altset.q_multiplicity"),
    ("weylalt.kostant", "kostant_partition", "kostant"),
    ("weylalt.kostant", "kostant_partition_q", "kostant"),
    ("weylalt.bas", "compute_bas", "bas.compute_bas"),
    ("weylalt.bas", "independent_subsets", "bas.independent_subsets"),
    ("weylalt.bas", "classify_product", "bas.classify_product"),
    ("weylalt.bas", "reconstruct", "bas.reconstruct"),
    ("weylalt.typea", "x_sequences", "typea.x_sequences"),
    ("weylalt.typea", "psi", "typea.psi"),
    ("weylalt.typea", "catalog_bas", "typea.catalog_bas"),
    ("weylalt.enumeration", "series_expand", "enumeration.series"),
    ("weylalt.enumeration", "series_p", "enumeration.series"),
    ("weylalt.enumeration", "series_h", "enumeration.series"),
    ("weylalt.enumeration", "series_p_bivariate", "enumeration.series"),
    ("weylalt.enumeration", "series_h_bivariate", "enumeration.series"),
    ("weylalt.enumeration", "series_grand", "enumeration.series"),
    ("weylalt.enumeration", "alternation_count", "enumeration.alternation_count"),
)

# Spans whose arguments and results feed the layer counts after the run.
_KEPT = {
    "altset.compute",
    "altset.compute_naive",
    "bas.compute_bas",
    "bas.independent_subsets",
    "weyl.enumerate_group",
    "typea.x_sequences",
    "kostant",
}
# Spans that measure their own peak traced memory.  None of them runs inside
# another, so resetting the tracemalloc peak on entry disturbs no measurement.
_PEAKED = {"altset.compute", "kostant"}

# (module, cache) pairs whose cache_info() is recorded after the timed phase.
CACHES = (
    ("weylalt.rootsys", "build_root_system", "rootsys.cache"),
    ("weylalt.weyl", "_simple_matrices", "weyl.cache"),
    ("weylalt.enumeration", "highest_root_alternation_set", "enumeration.cache"),
    ("weylalt.bas", "_reconstruction_index", "bas.cache"),
)

_NAME, _START, _END, _PARENT, _OP, _PEAK = range(6)


class Tracer:
    """In-memory spans for one process; install, run, then stop."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: list[tuple[int, tuple, object]] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "weylalt"]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def stop(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def begin_op(self, index: int, label: str) -> None:
        """Open the root span of one workload operation."""
        self.op = index
        self.spans.append([label, perf_counter(), 0.0, -1, index, 0])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][_END] = perf_counter()

    def _wrap(self, name: str, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        peaked, keep = name in _PEAKED, name in _KEPT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            measure = peaked and tracemalloc.is_tracing()
            if measure:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
            if measure:
                span[_PEAK] = tracemalloc.get_traced_memory()[1] - base
            if keep:
                kept.append((index, args, result))
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def cache_counts() -> dict[str, int]:
    """Hits and misses of the package's process-wide caches, exactly."""
    out = {}
    for module_name, attr, name in CACHES:
        info = getattr(sys.modules[module_name], attr).cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times derived from the spans and kept results."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_time[span[_PARENT]] += span[_END] - span[_START]
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    own: Counter = Counter()
    peak: Counter = Counter()
    for index, span in enumerate(spans):
        name = span[_NAME]
        duration = span[_END] - span[_START]
        calls[name] += 1
        own[name] += duration - child_time[index]
        peak[name] = max(peak[name], span[_PEAK])
        # Inclusive time counts a span only when no ancestor has its name,
        # so nested series builders are not counted twice.
        parent = span[_PARENT]
        while parent >= 0 and spans[parent][_NAME] != name:
            parent = spans[parent][_PARENT]
        if parent < 0:
            inclusive[name] += duration

    kept: dict[str, list] = {}
    for index, args, result in tracer.kept:
        kept.setdefault(spans[index][_NAME], []).append((args, result))

    asets = [result for _, result in kept.get("altset.compute", [])]
    naive = kept.get("altset.compute_naive", [])
    basic = [result for _, result in kept.get("bas.compute_bas", [])]
    xs = kept.get("typea.x_sequences", [])
    elements = sum(len(a) for a in asets)
    examined = sum(
        1 for a in asets for s in a.elements for col in s.images if min(col) >= 0
    )
    accepted = sum(len(a.edges) for a in asets)
    widest = max(
        (max(Counter(s.length for s in a.elements).values(), default=0) for a in asets),
        default=0,
    )
    arg_height = sum(
        sum(int(c) for c in args[1])
        for args, _ in kept.get("kostant", [])
        if all(c >= 0 and c == int(c) for c in args[1])
    )
    queries = calls["altset.multiplicity"] + calls["altset.q_multiplicity"]
    candidates = sum(3 ** args[0] for args, _ in xs)
    return {
        "rootsys.build.calls": calls["rootsys.build"],
        "rootsys.build.s": inclusive["rootsys.build"],
        "altset.compute.calls": calls["altset.compute"],
        "altset.compute.self_s": own["altset.compute"],
        "altset.elements": elements,
        "altset.us_per_element": 1e6 * _ratio(own["altset.compute"], elements),
        "altset.covers_examined": examined,
        "altset.covers_accepted": accepted,
        "altset.accept_ratio": _ratio(accepted, examined),
        "altset.max_layer": widest,
        "altset.peak_kb": peak["altset.compute"] / 1024,
        "altset.compute_naive.calls": calls["altset.compute_naive"],
        "altset.compute_naive.self_s": own["altset.compute_naive"],
        "altset.naive_keep_ratio": _ratio(
            sum(len(result) for _, result in naive),
            sum(group_order(args[0]) for args, _ in naive),
        ),
        "altset.multiplicity.self_s": own["altset.multiplicity"],
        "altset.q_multiplicity.self_s": own["altset.q_multiplicity"],
        "kostant.calls": calls["kostant"],
        "kostant.self_s": own["kostant"],
        "kostant.calls_per_pair": _ratio(calls["kostant"], queries),
        "kostant.arg_height": arg_height,
        "kostant.peak_kb": peak["kostant"] / 1024,
        "bas.compute_bas.self_s": own["bas.compute_bas"],
        "bas.members": sum(len(b.members) for b in basic),
        "bas.pairs_tested": sum(len(b.members) * (len(b.members) - 1) // 2 for b in basic),
        "bas.dependence_edges": sum(len(b.dependence_edges) for b in basic),
        "bas.independent_subsets.s": inclusive["bas.independent_subsets"],
        "bas.subsets": sum(len(r) for _, r in kept.get("bas.independent_subsets", [])),
        "bas.classify_product.calls": calls["bas.classify_product"],
        "bas.classify_product.s": inclusive["bas.classify_product"],
        "bas.reconstruct.calls": calls["bas.reconstruct"],
        "weyl.enumerate_group.s": inclusive["weyl.enumerate_group"],
        "weyl.group_elements": sum(len(r) for _, r in kept.get("weyl.enumerate_group", [])),
        "weyl.from_word.calls": calls["weyl.from_word"],
        "weyl.from_word.s": inclusive["weyl.from_word"],
        "weyl.multiply.calls": calls["weyl.multiply"],
        "typea.x_sequences.s": inclusive["typea.x_sequences"],
        "typea.x_candidates": candidates,
        "typea.x_keep_ratio": _ratio(sum(len(r) for _, r in xs), candidates),
        "typea.psi.calls": calls["typea.psi"],
        "typea.psi.s": inclusive["typea.psi"],
        "typea.catalog_bas.s": inclusive["typea.catalog_bas"],
        "enumeration.series.s": inclusive["enumeration.series"],
        "enumeration.alternation_count.calls": calls["enumeration.alternation_count"],
    }
