"""The names the benchmark's tracer wraps and reads still exist.

`bench/spans.py` patches functions and reads caches of `weylalt` by name,
and counts covers from each element's `images`.  A rename in the package,
or a change in what an attribute it reads means, would otherwise show only
as a failing or misreporting traced benchmark run.
"""

import importlib
from pathlib import Path

from weylalt import altset, bas, enumeration
from weylalt.altset import compute
from weylalt.rootsys import RootSystemSpec, build_root_system, neg_root, zero_weight
from weylalt.weyl import from_word

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_traced_targets_are_callables(monkeypatch):
    spans = _spans(monkeypatch)
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_recorded_caches_have_cache_info(monkeypatch):
    spans = _spans(monkeypatch)
    assert spans.CACHES
    for module, attr, _ in spans.CACHES:
        cached = getattr(importlib.import_module(module), attr)
        assert callable(cached.cache_info), (module, attr)


def test_computed_elements_carry_images():
    rs = build_root_system(RootSystemSpec("A", 3))
    aset = compute(rs, rs.highest_root, zero_weight(3))
    for sigma in aset.elements:
        assert len(sigma.images) == rs.rank
        assert all(len(col) == rs.rank for col in sigma.images)


def test_traced_cover_count_equals_a_brute_count(monkeypatch):
    spans = _spans(monkeypatch)
    rs = build_root_system(RootSystemSpec("A", 3))
    mu = neg_root(rs, 1, 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        altset.compute(rs, rs.highest_root, mu)
        bas.compute_bas(rs, rs.highest_root, mu)
        altset.multiplicity(rs, rs.highest_root, zero_weight(3))
    finally:
        tracer.stop()
    asets = [
        result
        for index, _, result in tracer.kept
        if tracer.spans[index][0] == "altset.compute"
    ]
    assert len(asets) == 3
    # A cover sigma s_i is one longer than sigma, whatever `images` holds.
    brute = sum(
        from_word(rs, sigma.word + (i,)).length > sigma.length
        for aset in asets
        for sigma in aset.elements
        for i in range(1, rs.rank + 1)
    )
    metrics = spans.layer_metrics(tracer)
    assert metrics["altset.compute.calls"] == 3
    assert metrics["altset.elements"] == sum(len(aset) for aset in asets)
    assert metrics["altset.covers_examined"] == brute
    assert metrics["altset.covers_accepted"] == sum(len(aset.edges) for aset in asets)


def test_traced_basic_subword_counts_equal_brute_counts(monkeypatch):
    spans = _spans(monkeypatch)
    rs = build_root_system(RootSystemSpec("A", 4))
    pairs = [(rs.highest_root, neg_root(rs, 1, 4)), (rs.highest_root, zero_weight(4))]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for lam, mu in pairs:
            bas.compute_bas(rs, lam, mu)
    finally:
        tracer.stop()
    # In type A a node set is connected when it is an interval, and two
    # influences are dependent when some of their nodes are at most 1 apart.
    members = [
        [
            set(sigma.word)
            for sigma in compute(rs, lam, mu).elements
            if sigma.word and max(sigma.word) - min(sigma.word) + 1 == len(set(sigma.word))
        ]
        for lam, mu in pairs
    ]
    metrics = spans.layer_metrics(tracer)
    assert metrics["bas.members"] == sum(len(basic) for basic in members)
    assert metrics["bas.dependence_edges"] == sum(
        any(abs(i - j) <= 1 for i in basic[a] for j in basic[b])
        for basic in members
        for a in range(len(basic))
        for b in range(a + 1, len(basic))
    )


def test_traced_series_time_is_reported(monkeypatch):
    # A series builder that stopped being called by its traced name would
    # leave `enumeration.series.s` at 0 without any other sign.
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        enumeration.series_grand(4)
        enumeration.series_h(1, 6)
    finally:
        tracer.stop()
    assert spans.layer_metrics(tracer)["enumeration.series.s"] > 0
