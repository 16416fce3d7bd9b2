"""One cold repetition of a workload, in a fresh interpreter started by run.py.

    python3 bench/child.py WORKLOAD SEED MODE SPAWNED [--tiny] [--spans FILE]

MODE is `timed` (tracing off), `traced` (spans on), `memory` (spans on, and
tracemalloc around the largest operation), `setup` (stop once set-up is
done) or `probe` (run the known-defect probe only).
SPAWNED is the CLOCK_MONOTONIC reading the parent took just before it
started this process, so set-up time includes interpreter start-up.  The
result is one JSON object on standard output.

Every repetition runs in its own process because several process-wide
caches (`build_root_system`, `_simple_matrices`,
`highest_root_alternation_set`, `_reconstruction_index`) would turn every
repetition after the first into cache hits, while a command-line user pays
the cold cost on every invocation.
"""

import json
import os
import platform
import resource
import sys
import time
import tracemalloc

import weylalt

import spans
import workloads

# Commands whose wall time is a layer metric of their own.
CLI_OPS = ("cli.counts", "cli.verify-catalog", "cli.verify-ideal", "cli.verify-appendix", "cli.verify-xbij")


def _cpu() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def main(argv) -> dict:
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    tiny = "--tiny" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(weylalt.__file__).startswith(src + os.sep):
        raise SystemExit(f"weylalt was imported from {weylalt.__file__}, not {src}")
    if mode == "probe":
        return {"failure": workloads.run_probe(), "argv": workloads.PROBE_ARGV}

    tracer = spans.Tracer() if mode in ("traced", "memory") else None
    if tracer:
        tracer.install()
    plan = workloads.build(name, seed, tiny)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if mode == "setup":
        return {"setup_s": setup_s}

    results, failures, op_s, op_cpu = {}, {}, {}, {}
    cpu_start = _cpu()
    start = time.perf_counter()
    for index, op in enumerate(plan.ops):
        if tracer:
            tracer.begin_op(index, op.label)
        measure_memory = mode == "memory" and op.label == plan.largest
        if measure_memory:
            tracemalloc.start()
        op_cpu_start = _cpu()
        op_start = time.perf_counter()
        try:
            results[op.label] = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures[op.label] = f"{type(exc).__name__}: {exc}"[:200]
        op_s[op.label] = time.perf_counter() - op_start
        op_cpu[op.label] = _cpu() - op_cpu_start
        if measure_memory:
            tracemalloc.stop()
        if tracer:
            tracer.end_op()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu() - cpu_start
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.stop()

    for op in plan.ops:
        if op.label in results:
            try:
                detail = op.check(results[op.label])
            except Exception as exc:  # a check that raises is a mismatch
                detail = f"check raised {type(exc).__name__}: {exc}"
            if detail is not None:
                failures[op.label] = detail[:200]

    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "largest_s": op_s[plan.largest],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(plan.ops),
        "failures": failures,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if tracer:
        layer = spans.layer_metrics(tracer)
        layer.update(spans.cache_counts())
        for label in CLI_OPS:
            layer[f"{label}.s"] = op_s.get(label, 0.0)
        layer["cli.counts.cpu_s"] = op_cpu.get("cli.counts", 0.0)
        layer["reporting.checks"] = sum(
            r.checks for r in results.values() if isinstance(r, workloads.CliRun)
        )
        out["layer"] = layer
        if spans_path:
            tracer.write(spans_path)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
