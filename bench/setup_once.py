"""One set-up in a fresh interpreter: import idrd and build a workload's inputs.

    python3 bench/setup_once.py solve_exact 1

Prints ``ready`` once the workload could take its first request, then exits.
run.py times this from the start of the process to that line.
"""

import sys

import workloads


def main(name, seed):
    workloads.WORKLOADS[name](int(seed), workloads.import_idrd())
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
