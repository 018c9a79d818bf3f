"""Benchmark of the idrd toolkit: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload solve_exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``idrd`` is imported from its ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (seed, request counts, tail percentile), which is also written
to ``.bench_out/`` together with the spans of a traced run.

``--trace 0`` sends requests back to back for ``--seconds`` seconds and
reports the end-to-end metrics of BENCHMARK.json.  Set-up time is measured
in fresh interpreters (``setup_once.py``), started at even intervals through
the run so that they see the same machine as the requests.

``--trace 1`` makes three passes over a fixed number of requests -- traced,
untraced, traced -- and reports the per-layer metrics: the mean of the two
traced passes, whose work counts must agree exactly, and the
traced/untraced time ratio.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Fresh-interpreter set-ups per run; their median is setup_s.  One follows
# each of this many equal slices of the run.
SETUP_REPEATS = 21
# The percentile latency_tail_ms reports: fixed per workload so that every
# commit reports the same one, and the highest of 90, 95, 99 that left at
# least ten requests beyond it in every baseline run.
TAIL_PERCENTILE = {"solve_exact": 99, "bounds_fuzz": 99, "trees_large": 95}
# Requests per pass of a traced run: fixed, so work counts repeat exactly,
# and sized so the three passes take about 30 s on the baseline machine.
TRACE_REQUESTS = {"solve_exact": 450, "bounds_fuzz": 500, "trees_large": 120}


def time_set_up(name, seed):
    """Seconds from starting a fresh interpreter until it has imported idrd
    and built the workload's inputs, ready for the first request."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_once.py"), name, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line != "ready\n" or proc.returncode:
        raise RuntimeError(f"set-up of {name} in a fresh interpreter failed (exit {proc.returncode})")
    return elapsed


def _untimed(name, fn, *args):
    return fn(*args)


def measure(workload, seconds=None, count=None, tracer=None, first=0):
    """Closed loop over the request stream from request `first`, for `seconds`
    or for `count` requests.

    Each request is timed alone; its output is checked after the clock stops.
    """
    latencies, failures, graphs = [], [], 0
    deadline = perf_counter() + seconds if count is None else None
    timed = tracer.timed if tracer else _untimed
    i = first
    while i < first + count if count is not None else perf_counter() < deadline:
        req = workload.requests[i % len(workload.requests)]
        error = None
        if tracer:
            tracer.request, tracer.active = i, True
        start = perf_counter()
        try:
            out = tracer.call("request", workload.call, req) if tracer else workload.call(req)
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - start)
        if tracer:
            tracer.active = False
        if error is None:
            try:
                error = workload.check(req, out, timed)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            graphs += workload.graphs(req)
        else:
            failures.append(f"request {i}: {error}")
        i += 1
    return SimpleNamespace(latencies=latencies, failures=failures, graphs=graphs)


def tail(latencies, percentile):
    """(value, requests beyond it) of the nearest-rank percentile."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, name, seed, seconds, percentile):
    res = SimpleNamespace(latencies=[], failures=[], graphs=0)
    setups = []
    for _ in range(SETUP_REPEATS):
        part = measure(workload, seconds=seconds / SETUP_REPEATS, first=len(res.latencies))
        res.latencies += part.latencies
        res.failures += part.failures
        res.graphs += part.graphs
        setups.append(time_set_up(name, seed))
    tail_s, beyond = tail(res.latencies, percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": res.graphs / sum(res.latencies),
        "latency_p50_ms": 1000 * statistics.median(res.latencies),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "requests": len(res.latencies),
        "graphs": res.graphs,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "failed_ratio": len(res.failures) / len(res.latencies),
    }
    return metrics, res.failures, len(res.latencies), record


def per_layer(workload, count, spans_path):
    passes = []
    for traced in (True, False, True):
        tracer = tracing.Tracer() if traced else None
        undo = tracing.install(tracer, workload.mods) if traced else None
        try:
            passes.append((measure(workload, count=count, tracer=tracer), tracer))
        finally:
            if undo:
                undo()
    (first, tracer_a), (plain, _), (second, tracer_b) = passes
    failures = first.failures + plain.failures + second.failures
    counts = tracing.work_counts(tracer_a)
    if counts != tracing.work_counts(tracer_b):
        failures.append("work counts differ between the two traced passes")
    layers = [tracing.layer_metrics(t, max(r.graphs, 1)) for r, t in ((first, tracer_a), (second, tracer_b))]
    metrics = {name: (layers[0][name] + layers[1][name]) / 2 for name in layers[0]}
    metrics["trace_overhead_ratio"] = (sum(first.latencies) + sum(second.latencies)) / (
        2 * sum(plain.latencies)
    )
    tracing.write_spans(spans_path, tracer_a.spans)
    record = {"requests": count, "graphs": first.graphs, "work_counts": counts}
    return metrics, failures, 3 * count, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        OUT.mkdir(exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.import_idrd())
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, failures, attempted, record = per_layer(
                workload, TRACE_REQUESTS[args.workload], stem.with_suffix(".spans.tsv")
            )
        else:
            values, failures, attempted, record = end_to_end(
                workload, args.workload, args.seed, args.seconds, TAIL_PERCENTILE[args.workload]
            )
    except (ImportError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **record,
        "failures": failures[:20],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    for failure in failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    stem.with_suffix(".json").write_text(json.dumps({"run": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
