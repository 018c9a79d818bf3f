"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 bench/prove.py [--seeds 10] [--out FILE]

Runs every workload of BENCHMARK.json for its ``run_seconds`` with seeds
1, 2, ... and, for every end-to-end metric, prints the median over the seeds
and the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json.  ``--out`` writes the same figures as JSON, with the Python
version and CPU count, for use as a recorded baseline.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_once(workload, seed, seconds, trace=0):
    """(result, run record) of one benchmark run; exits when a check failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(proc.stdout.splitlines()[-2])["run"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: {record['failures']}")
    return result, record


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seconds": spec["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in summary["seeds"]:
            runs.append(run_once(name, seed, spec["run_seconds"]))
            values = {m: round(v["value"], 4) for m, v in runs[-1][0]["metrics"].items()}
            print(f"{name:12} seed {seed:<4} {values}", flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "median": statistics.median(values),
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
                "unit": metric["unit"],
            }
            print(
                f"{name:12} {metric['name']:16} median {rows[metric['name']]['median']:10.4f}"
                f" {metric['unit']:5} spread {rows[metric['name']]['spread']:.3f}"
                f" bound {metric['bound']}",
                flush=True,
            )
        requests = [rec["requests"] for _, rec in runs]
        summary["workloads"][name] = {
            "metrics": rows,
            "requests_min": min(requests),
            "requests_max": max(requests),
            "tail_percentile": runs[0][1]["tail_percentile"],
            "tail_beyond_min": min(rec["tail_beyond"] for _, rec in runs),
        }
        print(f"{name:12} requests {min(requests)}-{max(requests)}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
