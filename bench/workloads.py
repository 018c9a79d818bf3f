"""The three benchmark workloads: seeded inputs, one request, one output check.

A workload is built by ``WORKLOADS[name](seed, mods)`` and exposes

* ``requests`` -- the seeded request stream, cycled when a run outlasts it;
* ``call(req)`` -- one request, exactly as a user would issue it;
* ``graphs(req)`` -- how many graphs one request processes;
* ``check(req, out, timed)`` -- ``None`` when the output is right, else a
  one-line reason.  ``timed(name, fn, *args)`` runs ``fn`` and lets the
  traced run account for checker time under ``name``.

Inputs come from ``random.Random`` seeded with the workload name and
``--seed``, never from the program's own generators, so a change to the
program cannot change what it is given.  ``mods`` carries the ``idrd``
modules of the checkout; requests look functions up on those modules at call
time so that the traced run sees them.
"""

import contextlib
import heapq
import importlib
import io
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("graph", "rng", "labelings", "solvers", "bounds", "families", "cli")

# solve_exact: (n, p) strata cycled in this order.  Sparse graphs make the
# plain branch-and-bounds explode and dense ones keep them cheap, so p50 and
# the tail sit on different layers.  Orders stop at 12: one request's cost
# varies about as much as its mean within a stratum, so a run is steady only
# when it sees many distinct graphs (1200 to 2000 in a 30 s run at these orders),
# and at n = 16-18 single sparse requests take seconds.  The pool is larger
# than any run, so no graph repeats.
SOLVE_ORDERS = (10, 11, 12)
SOLVE_DENSITIES = (0.15, 0.3, 0.5)
SOLVE_POOL = 3000

# bounds_fuzz: one fuzz() call per request, rotating over the graph classes.
FUZZ_CLASSES = ("connected", "general", "tree")
FUZZ_MAX_N = 18
FUZZ_TRIALS = 10
FUZZ_POOL = 4000

# trees_large: a fixed cycle of request kinds, so every run has the same mix.
# Mid-size and realize trees have orders near 300 so that classify_tree, which
# is quadratic on them, costs about the same per request and p50 sits on it;
# realize draws b from the upper half of [2a+1, 3a], where the trees are not
# in either family and classification scans every candidate center.
TREE_CYCLE = ("large", "mid", "realize", "mid", "realize", "mid")
LARGE_ORDERS = (2500, 3500)
MID_ORDERS = (280, 320)
REALIZE_A = (90, 110)
TREE_REQUESTS = 240


def import_idrd():
    """Import idrd afresh from the checkout's src/ and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "idrd" or m.startswith("idrd.")]:
        del sys.modules[name]
    mods = SimpleNamespace(idrd=importlib.import_module("idrd"))
    for name in MODULES:
        setattr(mods, name, importlib.import_module("idrd." + name))
    if Path(mods.idrd.__file__).resolve().parent != SRC / "idrd":
        raise ImportError(f"idrd was imported from {mods.idrd.__file__}, not from {SRC}")
    return mods


def edge_list_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def read_edge_list(text):
    """(n, edges) of an edge list written by edge_list_text.  Requests keep
    only the text; checks re-derive the edges, so the pool stays small."""
    rows = text.split("\n")
    n = int(rows[0].split()[0])
    return n, [tuple(map(int, row.split())) for row in rows[1:] if row]


def _seeded(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _capture(fn, argv, stdin):
    """Run a CLI entry point on the given standard input, returning
    (exit code, captured stdout)."""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = fn(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class SolveExact:
    """`idrd solve --input - --witness --json` on small random graphs, one per
    request: the command users run, and the only workload where the plain
    branch-and-bounds run.  The edge list arrives on standard input, so no
    file system time enters set-up or the requests."""

    def __init__(self, seed, mods):
        self.mods = mods
        rng = _seeded("solve_exact", seed)
        strata = [(n, p) for n in SOLVE_ORDERS for p in SOLVE_DENSITIES]
        self.requests = []
        for i in range(SOLVE_POOL):
            n, p = strata[i % len(strata)]
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            self.requests.append(edge_list_text(n, edges))

    def call(self, req):
        return _capture(self.mods.cli.main, ["solve", "--input", "-", "--witness", "--json"], req)

    def graphs(self, req):
        return 1

    def check(self, req, out, timed):
        n, edges = read_edge_list(req)
        code, text = out
        if code != 0:
            return f"exit code {code}"
        envelope = json.loads(text)
        if envelope.get("command") != "solve":
            return "envelope is not a solve result"
        inv = envelope["payload"]["invariants"]
        wit = envelope["payload"]["witnesses"]
        lab = self.mods.labelings
        g = self.mods.graph.build_graph(n, edges)
        edge_set = set(g.edges)
        closed = [set(g.adjacency(v)) | {v} for v in range(n)]
        degrees = [len(g.adjacency(v)) for v in range(n)]
        isolated = min(degrees) == 0
        expected = set(self.mods.solvers.INVARIANT_NAMES) - ({"min_edge_cover"} if isolated else set())
        if set(inv) != expected or set(wit) != expected - {"order", "max_degree", "min_degree"}:
            return f"invariant set {sorted(inv)}"
        if (inv["order"], inv["max_degree"], inv["min_degree"]) != (n, max(degrees), min(degrees)):
            return "order or degree wrong"
        labelings = (
            ("idrdn", lab.is_idrdf, lab.DRLabeling),
            ("gamma_dr", lab.is_drdf, lab.DRLabeling),
            ("ir2dn", lab.is_ir2df, lab.R2Labeling),
            ("gamma_r2", lab.is_r2df, lab.R2Labeling),
            ("i2rdn", lab.is_i2rdf, lab.RainbowLabeling),
        )
        for name, valid, shape in labelings:
            f = shape(wit[name])
            if not timed("labelings.validate", valid, g, f):
                return f"{name} witness invalid"
            if f.weight() != inv[name]:
                return f"{name} witness weight {f.weight()} != {inv[name]}"
        dom = set(wit["gamma"])
        if len(dom) != inv["gamma"] or not g.is_dominating(dom):
            return "gamma witness"
        ind = set(wit["idn"])
        if len(ind) != inv["idn"] or not (g.is_independent(ind) and g.is_dominating(ind)):
            return "idn witness"
        pack = sorted(wit["packing"])
        if len(pack) != inv["packing"] or any(
            closed[u] & closed[v] for i, u in enumerate(pack) for v in pack[i + 1:]
        ):
            return "packing witness"
        matching = [tuple(e) for e in wit["max_matching"]]
        ends = [v for e in matching for v in e]
        if len(matching) != inv["max_matching"] or len(set(ends)) != len(ends) or not set(matching) <= edge_set:
            return "matching witness"
        if not isolated:
            cover = [tuple(e) for e in wit["min_edge_cover"]]
            if (
                len(cover) != inv["min_edge_cover"]
                or not set(cover) <= edge_set
                or {v for e in cover for v in e} != set(range(n))
                or inv["max_matching"] + inv["min_edge_cover"] != n
            ):
                return "edge cover witness"
        for plain, independent in (("gamma", "idn"), ("gamma_r2", "ir2dn"), ("gamma_dr", "idrdn")):
            if inv[plain] > inv[independent]:
                return f"{plain} > {independent}"
        return None


class BoundsFuzz:
    """`bounds.fuzz` over the three graph classes: the bound-checking traffic
    of the paper's inequalities.  MIS enumeration, forced-set evaluation and
    rainbow completion do the work; no branch-and-bound runs."""

    def __init__(self, seed, mods):
        self.mods = mods
        rng = _seeded("bounds_fuzz", seed)
        self.requests = [
            (FUZZ_CLASSES[i % len(FUZZ_CLASSES)], rng.getrandbits(63)) for i in range(FUZZ_POOL)
        ]

    def call(self, req):
        return self.mods.bounds.fuzz(req[0], FUZZ_MAX_N, FUZZ_TRIALS, seed=req[1])

    def graphs(self, req):
        return FUZZ_TRIALS

    def check(self, req, report, timed):
        if report.violations:
            return f"violations {report.violations[:1]}"
        if (report.graph_class, report.seed, report.trials) != (req[0], req[1], FUZZ_TRIALS):
            return "report header"
        if set(report.tight_counts) != set(self.mods.bounds.BOUND_NAMES):
            return "tight counts"
        return None


def random_tree_edges(n, rng):
    """Uniform random labeled tree on n >= 2 vertices (Prüfer decoding)."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def tree_matching_size(n, edges):
    """Maximum matching of a tree: match leaves to parents bottom up."""
    adj = _adjacency(n, edges)
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for v in order:
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    matched = [False] * n
    size = 0
    for v in reversed(order[1:]):
        p = parent[v]
        if not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            size += 1
    return size


def tree_membership(n, edges):
    """Family of a tree by the definitions in idrd.families, checked directly.

    T_family: some vertex c leaves only 1- or 2-vertex components, i.e. every
    neighbor of c is a leaf or has one further neighbor, itself a leaf.
    F_family: a subdivided double star -- a degree-2 middle vertex between
    two centers whose other neighbors are degree-2 vertices ending in a leaf.
    """
    adj = _adjacency(n, edges)

    def short_branch(c, x):
        return len(adj[x]) == 1 or (
            len(adj[x]) == 2 and len(adj[adj[x][0] if adj[x][1] == c else adj[x][1]]) == 1
        )

    if any(all(short_branch(c, x) for x in adj[c]) for c in range(n)):
        return "T_family"
    if n >= 7 and n % 2 == 1:
        for mid in range(n):
            if len(adj[mid]) != 2:
                continue
            hubs = adj[mid]
            arms = [len(adj[h]) - 1 for h in hubs]
            if min(arms) >= 1 and n == 2 * sum(arms) + 3 and all(
                len(adj[x]) == 2 and short_branch(h, x) for h in hubs for x in adj[h] if x != mid
            ):
                return "F_family"
    return "neither"


class TreesLarge:
    """Sparse trees: large Prüfer trees through parsing, the tree DPs and the
    matching; mid-size random trees and realize(a, b) trees through
    classify_tree.  The only workload where parsing and Graph construction
    see large inputs, and where the quadratic polynomial routines show."""

    def __init__(self, seed, mods):
        self.mods = mods
        rng = _seeded("trees_large", seed)
        self.requests = []
        for i in range(TREE_REQUESTS):
            kind = TREE_CYCLE[i % len(TREE_CYCLE)]
            if kind == "realize":
                a = rng.randint(*REALIZE_A)
                self.requests.append((kind, a, rng.randint((5 * a + 1) // 2, 3 * a)))
                continue
            n = rng.randint(*(LARGE_ORDERS if kind == "large" else MID_ORDERS))
            self.requests.append((kind, edge_list_text(n, random_tree_edges(n, rng))))

    def call(self, req):
        graph, solvers, families = self.mods.graph, self.mods.solvers, self.mods.families
        if req[0] == "realize":
            t = families.realize(req[1], req[2])
            return t, families.classify_tree(t).membership
        g = graph.parse_edge_list(req[1])
        if req[0] == "mid":
            return g.n, families.classify_tree(g).membership
        return (
            g.n,
            solvers.tree_idrdn(g),
            solvers.tree_idn(g),
            solvers.max_matching(g),
            solvers.min_edge_cover(g),
        )

    def graphs(self, req):
        return 1

    def check(self, req, out, timed):
        if req[0] == "realize":
            _, a, b = req
            t, membership = out
            solvers = self.mods.solvers
            if not t.is_tree() or (solvers.tree_idn(t), solvers.tree_idrdn(t)) != (a, b):
                return f"realize({a}, {b}) missed its pair"
            expected = "T_family" if a == 1 or b <= 2 * a + 2 else "neither"
            if membership != expected:
                return f"realize({a}, {b}) classified {membership}"
            return None
        n, edges = read_edge_list(req[1])
        if req[0] == "mid":
            if out != (n, tree_membership(n, edges)):
                return f"classified {out}"
            return None
        order, idr, ind, matching, cover = out
        if order != n or matching != tree_matching_size(n, edges):
            return f"matching {matching}"
        if matching + cover != n:
            return "max_matching + min_edge_cover != order"
        if not 2 * ind + 1 <= idr <= 3 * ind:
            return f"tree DPs out of bounds: idn={ind} idrdn={idr}"
        return None


WORKLOADS = {
    "solve_exact": SolveExact,
    "bounds_fuzz": BoundsFuzz,
    "trees_large": TreesLarge,
}
