"""Run every workload untraced and then traced, and print every metric.

    python3 bench/all.py [--seed 1] [--seconds 30]

Prints one line per metric: workload, metric, value and unit, followed by
the failure ratio of each run.  Exits with code 1 if any output failed its
check.
"""

import argparse
import json

from prove import ROOT, run_once


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    for trace in (0, 1):
        for workload in spec["workloads"]:
            name = workload["name"]
            result, record = run_once(name, args.seed, args.seconds, trace)
            for metric, value in result["metrics"].items():
                print(f"{name:12} {metric:40} {value['value']:14.6g} {value['unit']}")
            ratio = result["failed"] / result["attempted"]
            print(f"{name:12} {'failed_ratio (trace=%d)' % trace:40} {ratio:14.6g} ratio", flush=True)


if __name__ == "__main__":
    main()
