"""Cold-process benchmark for weylalt.

    python3 bench/run.py [--workload ideal|graded|sweep|all] [--seed N]
                         [--seconds S] [--trace 0|1] [--tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each repetition of a workload runs in a fresh
interpreter (bench/child.py), one at a time, until about S seconds have
passed.  With `--trace 0` the result holds the end-to-end metrics, as
medians over the repetitions; with `--trace 1` it alternates untraced and
traced repetitions and holds the per-layer metrics of the traced ones.
Every operation is checked against a reference after its timed phase.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable summary.  With `--workload all` the last line maps each workload
to such an object.  The exit code is 0 on success and 1 when the package
cannot be imported or a repetition crashes, in which case no result is
printed.  `--tiny` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SPANS_DIR = ROOT / ".bench_spans"
WORKLOADS = ("ideal", "graded", "sweep")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "largest_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rootsys.build.calls": "count",
    "rootsys.build.s": "s",
    "rootsys.cache.hits": "count",
    "rootsys.cache.misses": "count",
    "altset.compute.calls": "count",
    "altset.compute.self_s": "s",
    "altset.elements": "count",
    "altset.us_per_element": "us",
    "altset.covers_examined": "count",
    "altset.covers_accepted": "count",
    "altset.accept_ratio": "ratio",
    "altset.max_layer": "count",
    "altset.peak_kb": "KiB",
    "altset.compute_naive.calls": "count",
    "altset.compute_naive.self_s": "s",
    "altset.naive_keep_ratio": "ratio",
    "altset.multiplicity.self_s": "s",
    "altset.q_multiplicity.self_s": "s",
    "kostant.calls": "count",
    "kostant.self_s": "s",
    "kostant.calls_per_pair": "ratio",
    "kostant.arg_height": "count",
    "kostant.peak_kb": "KiB",
    "bas.compute_bas.self_s": "s",
    "bas.members": "count",
    "bas.pairs_tested": "count",
    "bas.dependence_edges": "count",
    "bas.independent_subsets.s": "s",
    "bas.subsets": "count",
    "bas.classify_product.calls": "count",
    "bas.classify_product.s": "s",
    "bas.reconstruct.calls": "count",
    "bas.cache.hits": "count",
    "bas.cache.misses": "count",
    "weyl.enumerate_group.s": "s",
    "weyl.group_elements": "count",
    "weyl.from_word.calls": "count",
    "weyl.from_word.s": "s",
    "weyl.multiply.calls": "count",
    "weyl.cache.hits": "count",
    "weyl.cache.misses": "count",
    "typea.x_sequences.s": "s",
    "typea.x_candidates": "count",
    "typea.x_keep_ratio": "ratio",
    "typea.psi.calls": "count",
    "typea.psi.s": "s",
    "typea.catalog_bas.s": "s",
    "enumeration.series.s": "s",
    "enumeration.cache.hits": "count",
    "enumeration.cache.misses": "count",
    "enumeration.alternation_count.calls": "count",
    "cli.counts.s": "s",
    "cli.counts.cpu_s": "s",
    "cli.verify-catalog.s": "s",
    "cli.verify-ideal.s": "s",
    "cli.verify-appendix.s": "s",
    "cli.verify-xbij.s": "s",
    "reporting.checks": "count",
    "trace_overhead": "ratio",
    "fail_ratio": "ratio",
    "probe.failed": "count",
}

# Untraced repetitions a --trace 0 run makes even when they overrun --seconds.
MIN_REPS = 3
# A repetition that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """A repetition could not run; the benchmark prints no result."""


def spawn(workload: str, seed: int, mode: str, tiny: bool, spans: Path | None = None) -> dict:
    """Run one child interpreter and return the JSON object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(CHILD), workload, str(seed), mode]
    argv.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    argv += ["--tiny"] * tiny + (["--spans", str(spans)] if spans else [])
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} {mode} repetition exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        _kill_group(proc.pid)
        raise BenchError(f"{workload} {mode} repetition exited {proc.returncode}")
    try:
        return json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} {mode} repetition printed no result") from exc


def _kill_group(pgid: int) -> None:
    """Kill whatever a failed child left in its process group, such as pool workers."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _next_kind(reps: dict[str, list], trace: bool) -> str:
    """Untraced repetitions alternate with traced ones; one measures memory."""
    if not trace:
        return "timed"
    if reps["traced"] and not reps["memory"]:
        return "memory"
    return "timed" if len(reps["timed"]) <= len(reps["traced"]) else "traced"


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, list[str]]:
    """Run one workload for about `seconds`; return the result and summary lines."""
    probe = spawn(workload, seed, "probe", tiny) if workload == "graded" else None
    spans = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"{workload}.jsonl"
    deadline = time.monotonic() + seconds
    reps: dict[str, list[dict]] = {"timed": [], "traced": [], "memory": []}
    setups: list[float] = []
    took = dict.fromkeys(reps, 0.0)
    while True:
        kind = _next_kind(reps, trace)
        began = time.monotonic()
        reps[kind].append(spawn(workload, seed, kind, tiny, spans if kind == "traced" else None))
        took[kind] = time.monotonic() - began
        if not trace:
            # Set-up alone is cheap, so sample it again between repetitions.
            setups.append(spawn(workload, seed, "setup", tiny)["setup_s"])
        if trace:
            enough = all(reps.values())
        else:
            enough = len(reps["timed"]) >= MIN_REPS
        if enough and time.monotonic() + took[_next_kind(reps, trace)] > deadline:
            break

    done = reps["timed"] + reps["traced"] + reps["memory"]
    attempted = sum(r["attempted"] for r in done)
    failures = [f"{label}: {detail}" for r in done for label, detail in r["failures"].items()]
    failed = len(failures)
    timed, traced = reps["timed"], reps["traced"]
    lines = [
        f"workload {workload}  seed {seed}  python {done[0]['python']}"
        f"  nproc {done[0]['nproc']}  repetitions: {len(timed)} untraced, {len(traced)}"
        f" traced, {len(reps['memory'])} memory, {len(setups)} set-up only",
    ]
    metrics = {}
    if trace:
        for name, unit in PER_LAYER.items():
            if name == "trace_overhead":
                value = statistics.median(r["wall_s"] for r in traced) / statistics.median(
                    r["wall_s"] for r in timed
                )
            elif name == "fail_ratio":
                value = failed / attempted
            elif name == "probe.failed":
                value = int(bool(probe and probe["failure"]))
            else:
                source = reps["memory"] if name.endswith(".peak_kb") else traced
                value = statistics.median(r["layer"][name] for r in source)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<36} {value:>14.6g} {unit}")
        lines.append(
            "  spans inside the counts pool workers are not collected; their work"
            " shows only in cli.counts.s and cli.counts.cpu_s"
        )
        lines.append(f"  spans of the last traced repetition: {spans.relative_to(ROOT)}")
    else:
        for name, unit in END_TO_END.items():
            samples = [r[name] for r in timed] + (setups if name == "setup_s" else [])
            q1, median, q3 = _quartiles(samples)
            metrics[name] = {"value": median, "unit": unit}
            lines.append(
                f"  {name:<24} {median:>12.4f} {unit:<5}  quartiles {q1:.4f} .. {q3:.4f}"
                f"  over {len(samples)}"
            )
    lines.append(f"  fail_ratio {failed}/{attempted} operations")
    lines += [f"  FAILED {detail}" for detail in failures[:10]]
    if probe:
        status = f"fails: {probe['failure']}" if probe["failure"] else "passes"
        lines.append(
            f"  known-defect probe `weylalt {' '.join(probe['argv'])}` {status}"
            " (run once, untimed, not counted in fail_ratio)"
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        # Fails fast when the package is missing, and compiles its bytecode
        # before anything is timed.
        spawn(names[0], args.seed, "setup", args.tiny)
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
