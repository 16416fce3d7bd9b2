"""The names the benchmark's tracer wraps and reads still exist.

`bench/spans.py` patches functions and reads caches of `weylalt` by name,
and counts covers from each element's `images`.  A rename in the package
would otherwise show only as a failing traced benchmark run.
"""

import importlib
from pathlib import Path

from weylalt.altset import compute
from weylalt.rootsys import RootSystemSpec, build_root_system, zero_weight

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
