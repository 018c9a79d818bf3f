"""A fixed corpus of `idrd ... --json` calls and one SHA-256 over their output.

Run it on two revisions to check that the machine output of the six commands
did not change, or with --check to compare against json_corpus.sha256:

    PYTHONPATH=src python tests/json_corpus.py
    PYTHONPATH=src python tests/json_corpus.py --check

Every call goes through `cli.main` in this one process, with stdin, stdout
and stderr swapped for buffers.  The hash covers (argv, IDRD_SIZE_LIMIT,
exit code, stdout, stderr) of each call, each call once with the limit unset,
5 and -1.  The inputs are seeded `random_graph` and `random_tree` graphs,
malformed edge lists, family specs, realize pairs and fuzz arguments.
Argparse usage errors, file-system errors and codec errors are left out:
Python writes their text, and it differs between versions.  pytest does not
collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from idrd import random_graph, random_tree, serialize_edge_list
from idrd.cli import main

PINNED = Path(__file__).with_name("json_corpus.sha256")

LIMITS = (None, "5", "-1")

MALFORMED = (
    "",
    "# only a comment\n",
    "3\n",
    "3 1 4\n0 1\n",
    "x 2\n0 1\n1 2\n",
    "-1 0\n",
    "3 2\n0 1\n",
    "3 1\n0 1\n1 2\n",
    "3 1\n0 1 2\n",
    "3 1\n0 a\n",
    "3 1\n1 1\n",
    "3 1\n0 3\n",
    "0 0\n",
    "1 0\n",
    "3 0\n",
    "# a path\n4 3\n0 1\n\n1 2\n2 3\n",
    "3 3\n0 1\n1 2\n1 0\n",
    "5 2\n0 1\n2 3\n",
)

SOLVE_FLAGS = (
    (),
    ("--witness",),
    ("--invariants", "idn,packing,max_matching", "--witness"),
    ("--invariants", "order,max_degree,min_degree,min_edge_cover"),
    ("--invariants", "packing,packing"),
    ("--invariants", "girth"),
    ("--invariants", ""),
)

FAMILY_SPECS = (
    "path:7", "cycle:9", "complete:4", "kpartite:2,2,5", "kpartite:3,2", "star:6",
    "doublestar:2,3", "subdivstar:4", "subdivstar:3,2", "subdivdoublestar:2,2",
    "coronastar:3", "wheel:5", "path", "path:x", "path:-1", "cycle:2", "path:30",
    # one spec per message of the kind table: each kind's count and checks
    "path:0", "complete:0", "complete:1", "star:0", "doublestar:2,1", "doublestar:1",
    "subdivdoublestar:0,2", "coronastar:0", "coronastar:1,2", "kpartite:4", "kpartite:0,2",
    "kpartite:1,1,1,1", "path:3,4", "cycle:3,4", "complete:2,2", "star:1,2",
    "subdivdoublestar:1", "kpartite:2,0",
)

REALIZE_PAIRS = ((1, 3), (2, 5), (3, 8), (4, 12), (5, 16), (2, 7), (3, 6), (0, 0), (40, 100))

FUZZ_ARGS = (
    ("tree", "8", "5"), ("connected", "7", "4", "--seed", "3"),
    ("general", "6", "4", "--seed", "9", "--p-min", "0.1", "--p-max", "0.4"),
    ("connected", "6", "3", "--p-min", "0", "--p-max", "0"), ("tree", "0", "3"),
    ("general", "5", "6", "--seed", "2"), ("tree", "30", "3"), ("general", "5", "0"),
    ("general", "5", "2", "--p-min", "0.9", "--p-max", "0.1"),
)


def edge_lists() -> list:
    """Seeded graphs and trees, then the malformed and edge-case texts."""
    shapes = [(n, p) for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18)
              for p in (0.1, 0.2, 0.35, 0.5, 0.8)]
    graphs = [random_graph(n, p, seed) for seed, (n, p) in enumerate(shapes * 3)]
    graphs += [random_tree(n, seed) for seed, n in enumerate(list(range(1, 26)) * 2 + [40])]
    return [serialize_edge_list(g) for g in graphs] + list(MALFORMED)


def calls() -> list:
    """(argv, stdin text) of every call, in a fixed order."""
    out = []
    for text in edge_lists():
        out += [(["solve", "--input", "-", *flags, "--json"], text) for flags in SOLVE_FLAGS]
        out += [([command, "--input", "-", "--json"], text) for command in ("bounds", "classify")]
    out += [(["family", spec, mode, "--json"], "")
            for spec in FAMILY_SPECS for mode in ("formula", "solve", "both")]
    out += [(["realize", str(a), str(b), "--json"], "") for a, b in REALIZE_PAIRS]
    out += [(["fuzz", *args, "--json"], "") for args in FUZZ_ARGS]
    return out


def run(argv: list, text: str, limit) -> tuple:
    """(exit code, stdout, stderr) of one call with IDRD_SIZE_LIMIT = limit."""
    if limit is None:
        os.environ.pop("IDRD_SIZE_LIMIT", None)
    else:
        os.environ["IDRD_SIZE_LIMIT"] = limit
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def corpus_hash() -> str:
    """The SHA-256 over every call's record; leaves IDRD_SIZE_LIMIT set to -1."""
    digest = hashlib.sha256()
    for argv, text in calls():
        for limit in LIMITS:
            record = [argv, text, limit, *run(argv, text, limit)]
            digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    value = corpus_hash()
    print(value)
    if "--check" in sys.argv[1:]:
        pinned = PINNED.read_text(encoding="utf-8").split()[0]
        if value != pinned:
            sys.exit(f"JSON corpus hash {value} != pinned {pinned}")
