"""Every benchmark operation passes its reference check.

`bench/workloads.py` pairs each operation with a check against an
independent method or a digest of the seed commit's output.  Running them
here makes an output change fail the tests, not only the benchmark.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("name", ["ideal", "graded", "sweep"])
def test_every_operation_passes_its_check(monkeypatch, name, tiny):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for op in workloads.build(name, 0, tiny).ops:
        mismatch = op.check(op.run())
        assert mismatch is None, f"{op.label}: {mismatch}"
