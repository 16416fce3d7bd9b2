"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks that
each result names every metric BENCHMARK.json declares, with the same unit,
that every operation passed its reference, and that the benchmark refuses to
run (exit code not 0, no result) in a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _run(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *flags],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared["0"] == END_TO_END, "end_to_end in BENCHMARK.json differs from run.py"
    assert declared["1"] == PER_LAYER, "per_layer in BENCHMARK.json differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    for workload in WORKLOADS:
        for trace, units in declared.items():
            done = _run(ROOT, "--workload", workload, "--seconds", "0", "--trace", trace, "--tiny")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, done.stdout
            assert result["attempted"] >= 1
            got = {name: item["unit"] for name, item in result["metrics"].items()}
            assert got == units, f"{workload} trace {trace}: {sorted(set(got) ^ set(units))}"
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_smoke_") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(Path(bare), "--workload", "ideal", "--seconds", "1")
        assert done.returncode != 0, "benchmark ran without the package"
        assert not done.stdout.strip(), done.stdout
        print("ok  refuses to run without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
