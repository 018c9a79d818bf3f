"""Exact solvers for domination-type invariants.

Every exponential-time number comes from one of two search cores.

One pass over the maximal independent sets
------------------------------------------
For the independent variants, the positive vertices of a valid labeling form
an independent set that must also dominate (every 0/∅ vertex needs a
positively labeled neighbor), i.e. a *maximal* independent set.  Conversely,
fix a maximal independent set S and ask for the cheapest valid labeling whose
positive set is exactly S.  A vertex v outside S whose only S-neighbor is u
forces u to carry the strong label (3 in the double Roman case, 2 in the
Roman {2} case, {1,2} in the rainbow case); if v has two or more S-neighbors
the weak labels already suffice for the double Roman and Roman {2} rules.
Writing forced(S) for the set of vertices of S that are the unique S-neighbor
of some outside vertex, the optimum over labelings with positive set S is

    weak·|S| + (strong − weak)·|forced(S)|

with (weak, strong) = (1, 1) for i, (1, 2) for i_R2 and (2, 3) for i_dR, and
the global optimum is the minimum over all maximal independent sets.  The
rainbow variant also pins {1,2} on forced(S), but outside vertices with
several S-neighbors additionally need both colors present, so the remaining
members are labeled by a small exact backtracking over {1},{2},{1,2}.
No vertex of S ever takes the value 1 in an optimal independent double Roman
labeling: a 1-vertex would need a neighbor labeled >= 2, contradicting
independence of the positive set.  `_mis_pass` enumerates the sets once and
computes forced(S) once per set for every requested number.

One threshold branch and bound
------------------------------
The plain (non-independent) numbers γ, γ_{R2}, γ_{dR} have no such
decomposition.  Each is a threshold labeling problem: labels from a set L,
and every 0-vertex needs the labels of its neighbors to sum to at least k,

    γ:      L = {0, 1},     k = 1
    γ_R2:   L = {0, 1, 2},  k = 2
    γ_dR:   L = {0, 2, 3},  k = 3

For γ_dR this rests on Beeler, Haynes & Hedetniemi, "Double Roman
domination", Discrete Appl. Math. 211 (2016): some minimum double Roman
dominating function assigns no vertex the value 1, and with labels in {2, 3}
"a 3-neighbor or two 2-neighbors" is exactly "neighbor sum >= 3".
`_threshold_search` assigns labels vertex by vertex in BFS order, pruned by
the per-vertex fractional domination bound (van Rooij & Bodlaender, "Exact
algorithms for dominating set", Discrete Appl. Math. 159 (2011)): each vertex
not yet defended adds its deficit divided by c(v) = 1 + the largest degree
in N[v].  A label x at u lowers each of the 1 + deg(u) deficits in N[u] by
at most x, and each of those vertices has c(v) >= 1 + deg(u), so the sum
drops by at most x.  The sum is kept exactly, as an integer, and updated as
labels are set.  The corresponding independent number provides the starting
incumbent.

Exact exponential solvers refuse graphs larger than 24 vertices unless the
IDRD_SIZE_LIMIT environment variable (or the `size_limit` argument) raises
the bar.  Witnesses from the enumeration-based solvers break ties toward the
lexicographically smallest positive set; the branch-and-bound witnesses are
the deterministic first optimum found.
"""

import math
import os
from collections import deque
from dataclasses import dataclass, field

from .graph import Graph
from .labelings import DRLabeling, R2Labeling, RainbowLabeling

DEFAULT_SIZE_LIMIT = 24

INVARIANT_NAMES = (
    "order",
    "max_degree",
    "min_degree",
    "gamma",
    "idn",
    "gamma_r2",
    "ir2dn",
    "i2rdn",
    "gamma_dr",
    "idrdn",
    "packing",
    "max_matching",
    "min_edge_cover",
)


class SizeLimitError(RuntimeError):
    """Raised when an exact solver is asked for a graph above the size guard."""


def _resolve_limit(size_limit: int | None) -> int:
    if size_limit is not None:
        return int(size_limit)
    env = os.environ.get("IDRD_SIZE_LIMIT")
    if env is None:
        return DEFAULT_SIZE_LIMIT
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"IDRD_SIZE_LIMIT must be an integer, got {env!r}") from None


def _guard(order: int, size_limit: int | None) -> None:
    limit = _resolve_limit(size_limit)
    if order > limit:
        raise SizeLimitError(
            f"graph order {order} exceeds the exact-solver limit {limit} "
            f"(set IDRD_SIZE_LIMIT to override)"
        )


def _require_vertices(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("solver needs at least one vertex")


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# ---------------------------------------------------------------------------
# maximal independent set enumeration
# ---------------------------------------------------------------------------


def maximal_independent_sets(g: Graph):
    """Yield every maximal independent set of g exactly once, deterministically.

    Pivoting backtracking (Bron–Kerbosch on the complement) over the vertex
    order sorted by descending degree (ties by ascending index).  Pivot rule:
    the member of P ∪ X maximizing |P ∩ nonneighbors|, ties to the earliest
    position in that order; candidates are scanned in ascending position.
    """
    n = g.n
    if n == 0:
        yield frozenset()
        return
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    nonadj = [0] * n
    for i, v in enumerate(order):
        nb = g.neighbor_mask(v)
        m = 0
        for j, u in enumerate(order):
            if j != i and not ((nb >> u) & 1):
                m |= 1 << j
        nonadj[i] = m

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield frozenset(order[i] for i in _bits(r))
            return
        best_i, best_c = -1, -1
        for i in _bits(p | x):
            c = (p & nonadj[i]).bit_count()
            if c > best_c:
                best_c, best_i = c, i
        cand = p & ~nonadj[best_i]
        for i in _bits(cand):
            b = 1 << i
            yield from expand(r | b, p & nonadj[i], x & nonadj[i])
            p &= ~b
            x |= b

    yield from expand(0, (1 << n) - 1, 0)


def _forced_positives(g: Graph, s: frozenset) -> set:
    """Members of s that are the unique s-neighbor of some outside vertex."""
    forced = set()
    for v in range(g.n):
        if v in s:
            continue
        inter = [u for u in g.adjacency(v) if u in s]
        if len(inter) == 1:
            forced.add(inter[0])
    return forced


def forced_threes(g: Graph, s) -> frozenset:
    """Vertices of the maximal independent set s pinned to the strong label.

    Raises ValueError when s is not a maximal independent set (equivalently:
    independent and dominating).
    """
    s = frozenset(s)
    if not (g.is_independent(s) and g.is_dominating(s)):
        raise ValueError("s is not a maximal independent set")
    return frozenset(_forced_positives(g, s))


# ---------------------------------------------------------------------------
# independent variants: one pass over the maximal independent sets
# ---------------------------------------------------------------------------

# (weak, strong) labels of the independent numbers with a closed form per set.
_MIS_WEIGHTS = {"idn": (1, 1), "ir2dn": (1, 2), "idrdn": (2, 3)}

_RAINBOW_CHOICES = (
    (1, 0, frozenset((1,))),
    (0, 1, frozenset((2,))),
    (1, 1, frozenset((1, 2))),
)


def _rainbow_completion(g: Graph, s: frozenset, forced: set, limit):
    """Cheapest 2-rainbow labels on the maximal independent set s.

    Forced members take {1,2}; the rest are assigned by exact backtracking
    over {1},{2},{1,2} against the both-colors-visible constraints of the
    outside vertices.  Returns (weight, {member: label set}), or None when
    no completion weighs at most `limit`.
    """
    base = len(s) + len(forced)
    constraints = []
    seen = set()
    for v in range(g.n):
        if v in s:
            continue
        pos_nb = tuple(u for u in g.adjacency(v) if u in s)
        if any(u in forced for u in pos_nb):
            continue
        if pos_nb not in seen:
            seen.add(pos_nb)
            constraints.append(pos_nb)
    labels = {u: frozenset((1, 2)) if u in forced else frozenset((1,)) for u in sorted(s)}
    if not constraints:
        return base, labels
    relevant = sorted({u for c in constraints for u in c})
    ridx = {u: k for k, u in enumerate(relevant)}
    member_of = [[] for _ in relevant]
    rem = []
    for ci, c in enumerate(constraints):
        rem.append(len(c))
        for u in c:
            member_of[ridx[u]].append(ci)
    c1 = [0] * len(constraints)
    c2 = [0] * len(constraints)
    chosen = [None] * len(relevant)
    found = [None]  # (total, labels tuple)

    def dfs(k: int, extra: int) -> None:
        if k == len(relevant):
            total = base + extra
            if found[0] is None or total < found[0][0]:
                found[0] = (total, tuple(chosen))
            return
        for d1, d2, lab in _RAINBOW_CHOICES:
            ex2 = extra + (len(lab) - 1)
            if base + ex2 > limit:
                continue
            if found[0] is not None and base + ex2 >= found[0][0]:
                continue
            ok = True
            for ci in member_of[k]:
                rem[ci] -= 1
                c1[ci] += d1
                c2[ci] += d2
                if rem[ci] == 0 and (c1[ci] == 0 or c2[ci] == 0):
                    ok = False
            if ok:
                chosen[k] = lab
                dfs(k + 1, ex2)
            for ci in member_of[k]:
                rem[ci] += 1
                c1[ci] -= d1
                c2[ci] -= d2

    dfs(0, 0)
    if found[0] is None:
        return None
    total, assignment = found[0]
    for k, u in enumerate(relevant):
        labels[u] = assignment[k]
    return total, labels


def _mis_pass(g: Graph, names) -> dict:
    """Optimal (weight, label per vertex) of each requested independent number.

    One scan of the maximal independent sets serves idn, ir2dn, idrdn and
    i2rdn alike.  Ties go to the lexicographically smallest sorted positive
    set.  The rainbow completion is skipped for a set whose forced weight
    |S| + |forced(S)| already exceeds the best rainbow weight so far.
    """
    weighted = [(name, *_MIS_WEIGHTS[name]) for name in _MIS_WEIGHTS if name in names]
    rainbow = "i2rdn" in names
    need_forced = rainbow or any(weak != strong for _, weak, strong in weighted)
    # name -> (weight, sorted positive set, {member: label})
    best = {
        name: (float("inf"), (), {})
        for name in ("idn", "ir2dn", "i2rdn", "idrdn")
        if name in names
    }
    for s in maximal_independent_sets(g):
        forced = _forced_positives(g, s) if need_forced else set()
        members = tuple(sorted(s))
        for name, weak, strong in weighted:
            key = (weak * len(s) + (strong - weak) * len(forced), members)
            if key < best[name][:2]:
                best[name] = (*key, {u: strong if u in forced else weak for u in members})
        if rainbow and len(s) + len(forced) <= best["i2rdn"][0]:
            found = _rainbow_completion(g, s, forced, best["i2rdn"][0])
            if found is not None and (found[0], members) < best["i2rdn"][:2]:
                best["i2rdn"] = (found[0], members, found[1])
    out = {}
    for name, (weight, _, labels) in best.items():
        vals = [frozenset() if name == "i2rdn" else 0] * g.n
        for u, x in labels.items():
            vals[u] = x
        out[name] = (weight, vals)
    return out


# ---------------------------------------------------------------------------
# plain domination numbers: one threshold branch and bound
# ---------------------------------------------------------------------------

# name -> (labels in branching order, threshold k, independent number whose
# optimum is the starting incumbent)
_THRESHOLD = {
    "gamma": ((0, 1), 1, "idn"),
    "gamma_r2": ((0, 2, 1), 2, "ir2dn"),
    "gamma_dr": ((0, 3, 2), 3, "idrdn"),
}


def _bfs_order(g: Graph) -> list:
    """BFS order starting from the max-degree vertex of each component."""
    n = g.n
    seen = [False] * n
    order = []
    for start in sorted(range(n), key=lambda v: (-g.degree(v), v)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in g.adjacency(v):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def _threshold_search(g: Graph, labels: tuple, k: int, incumbent: list) -> tuple[int, list]:
    """Minimum-weight labeling with values in `labels` in which the labels of
    every 0-vertex's neighbors sum to at least k, as (weight, label per vertex).

    Vertices are labeled in BFS order, trying `labels` in the given order; a
    vertex is checked as soon as its closed neighborhood is labeled.  Each
    vertex v not yet defended owes a deficit -- k minus what it receives for
    a 0-vertex, the smaller of that and the least positive label for an
    unlabeled one -- and the lower bound on the weight still to place is the
    sum of deficit(v) / c(v), with c(v) = 1 + the largest degree in N[v]
    (the fractional domination bound of van Rooij & Bodlaender, "Exact
    algorithms for dominating set", Discrete Appl. Math. 159 (2011)).  It is
    sound: a label x at u lowers each deficit in N[u] by at most x, and each
    of those 1 + deg(u) vertices has c(v) >= 1 + deg(u), so the sum drops by
    at most x.  The sum is kept as an integer scaled by the lcm of the c(v)
    and updated in O(deg v) per label.  `incumbent` is a valid labeling; the
    search only looks for strictly lighter ones.
    """
    n = g.n
    best = [sum(incumbent), list(incumbent)]
    order = _bfs_order(g)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    close_list = [[] for _ in range(n)]
    for u in range(n):
        cp = pos[u]
        for w in g.adjacency(u):
            cp = max(cp, pos[w])
        close_list[cp].append(u)
    adj = [g.adjacency(v) for v in range(n)]
    cap = [1 + max(len(adj[u]) for u in (v, *adj[v])) for v in range(n)]
    scale = math.lcm(*set(cap))
    unit = [scale // c for c in cap]
    least = min(x for x in labels if x)
    # deficit of a vertex that receives r, unlabeled or labeled 0 (0 from r = k on)
    pad = [0] * max(labels)
    open_deficit = [min(least, k - r) for r in range(k)] + pad
    zero_deficit = [k - r for r in range(k)] + pad
    vals = [-1] * n
    received = [0] * n

    def dfs(i: int, w: int, owed: int) -> None:
        if i == n:
            if w < best[0]:
                best[0], best[1] = w, vals.copy()
            return
        v = order[i]
        r = received[v]
        for val in labels:
            w2 = w + val
            if w2 >= best[0]:
                continue
            vals[v] = val
            owed2 = owed
            if r < k:
                owed2 -= (open_deficit[r] - (0 if val else zero_deficit[r])) * unit[v]
            if val:
                for u in adj[v]:
                    ru = received[u]
                    if ru < k and vals[u] <= 0:
                        d = zero_deficit if vals[u] == 0 else open_deficit
                        owed2 -= (d[ru] - d[ru + val]) * unit[u]
                    received[u] = ru + val
            ok = all(vals[u] or received[u] >= k for u in close_list[i])
            if ok and w2 + -(-owed2 // scale) < best[0]:
                dfs(i + 1, w2, owed2)
            if val:
                for u in adj[v]:
                    received[u] -= val
            vals[v] = -1

    dfs(0, 0, sum(open_deficit[0] * x for x in unit))
    return best[0], best[1]


# ---------------------------------------------------------------------------
# public exact solvers
# ---------------------------------------------------------------------------


def _solve(g: Graph, names) -> dict:
    """(weight, label per vertex) of each requested exact number: one MIS pass
    for the independent numbers and the incumbents, then one threshold
    search per plain number."""
    plain = [name for name in names if name in _THRESHOLD]
    found = _mis_pass(g, set(names) | {_THRESHOLD[name][2] for name in plain})
    for name in plain:
        labels, k, start = _THRESHOLD[name]
        found[name] = _threshold_search(g, labels, k, found[start][1])
    return found


def _positive_set(vals) -> frozenset:
    return frozenset(v for v, x in enumerate(vals) if x)


# name -> witness type built from the label per vertex
_WITNESS = {
    "gamma": _positive_set,
    "idn": _positive_set,
    "gamma_r2": R2Labeling,
    "ir2dn": R2Labeling,
    "i2rdn": RainbowLabeling,
    "gamma_dr": DRLabeling,
    "idrdn": DRLabeling,
}

# Names whose computation is exponential and therefore guarded by the size limit.
_EXPONENTIAL = frozenset(_WITNESS) | {"packing"}


def _exact(g: Graph, name: str, size_limit: int | None):
    _guard(g.n, size_limit)
    _require_vertices(g)
    weight, vals = _solve(g, (name,))[name]
    return weight, _WITNESS[name](vals)


def idrdn(g: Graph, size_limit: int | None = None) -> tuple[int, DRLabeling]:
    """Independent double Roman domination number with an optimal labeling."""
    return _exact(g, "idrdn", size_limit)


def idn(g: Graph, size_limit: int | None = None) -> tuple[int, frozenset]:
    """Independent domination number with a minimum maximal independent set."""
    return _exact(g, "idn", size_limit)


def ir2dn(g: Graph, size_limit: int | None = None) -> tuple[int, R2Labeling]:
    """Independent Roman {2} domination number with an optimal labeling."""
    return _exact(g, "ir2dn", size_limit)


def i2rdn(g: Graph, size_limit: int | None = None) -> tuple[int, RainbowLabeling]:
    """Independent 2-rainbow domination number with an optimal labeling."""
    return _exact(g, "i2rdn", size_limit)


def domination_number(g: Graph, size_limit: int | None = None) -> int:
    """Exact domination number γ(g)."""
    return _exact(g, "gamma", size_limit)[0]


def gamma_r2(g: Graph, size_limit: int | None = None) -> int:
    """Exact Roman {2} domination number γ_{R2}(g)."""
    return _exact(g, "gamma_r2", size_limit)[0]


def gamma_dr(g: Graph, size_limit: int | None = None) -> int:
    """Exact double Roman domination number γ_{dR}(g)."""
    return _exact(g, "gamma_dr", size_limit)[0]


# ---------------------------------------------------------------------------
# packing, matching, edge cover
# ---------------------------------------------------------------------------


def packing_number(g: Graph, size_limit: int | None = None) -> tuple[int, frozenset]:
    """Maximum 2-packing (pairwise disjoint closed neighborhoods) with witness.

    A set is a packing iff it is independent in the square graph (vertices at
    distance <= 2 adjacent), so the maximum is found among the square's
    maximal independent sets.
    """
    _guard(g.n, size_limit)
    _require_vertices(g)
    n = g.n
    closed = [g.neighbor_mask(v) | (1 << v) for v in range(n)]
    square_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if closed[u] & closed[v]
    ]
    square = Graph(n, square_edges)
    best = None
    for s in maximal_independent_sets(square):
        key = (-len(s), tuple(sorted(s)))
        if best is None or key < best:
            best = key
    return -best[0], frozenset(best[1])


def _matching_partners(g: Graph) -> list:
    """match[v] = partner of v in a maximum matching, -1 if unmatched.

    Augmenting-path search with blossom contraction (base array), O(V^3).
    Vertices without neighbors are never searched from: nothing can match
    them.  The search arrays are allocated once; each search records the
    vertices whose entries it sets and resets only those, so a search that
    contracts no blossom costs what it explores, not O(n).  A contraction
    likewise visits only the blossom: `members` holds the vertices of each
    base a search has contracted into (any other base is alone), and
    `stamp[b]` is +c while base b is on the lca path of contraction c and -c
    once b is in its blossom, so neither mark needs a reset.
    """
    n = g.n
    adj = [g.adjacency(v) for v in range(n)]
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    touched = []
    members = {}
    stamp = [0] * n
    contractions = 0

    def lca(a: int, b: int) -> int:
        while True:
            a = base[a]
            stamp[a] = contractions
            if match[a] == -1:
                break
            a = p[match[a]]
        while stamp[base[b]] != contractions:
            b = p[match[base[b]]]
        return base[b]

    def mark_path(v: int, b: int, child: int, blossom: list) -> None:
        while base[v] != b:
            blossom.append(base[v])
            blossom.append(base[match[v]])
            p[v] = child
            touched.append(v)
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        nonlocal contractions
        used[root] = True
        touched.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    contractions += 1
                    cur = lca(v, to)
                    blossom = []
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    inside = []
                    for b in blossom:
                        if stamp[b] != -contractions:
                            stamp[b] = -contractions
                            inside += members.pop(b, (b,))
                    inside.sort()
                    for i in inside:
                        base[i] = cur
                        touched.append(i)
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                    if stamp[cur] == -contractions:
                        members[cur] = inside
                    else:
                        members.setdefault(cur, [cur]).extend(inside)
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    touched.append(match[to])
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1 and adj[v]:
            find_path(v)
            for t in touched:
                used[t] = False
                p[t] = -1
                base[t] = t
            touched.clear()
            members.clear()
    return match


def max_matching(g: Graph) -> int:
    """Maximum matching size α'(g) (exact on general graphs)."""
    _require_vertices(g)
    match = _matching_partners(g)
    return sum(1 for x in match if x != -1) // 2


def min_edge_cover(g: Graph) -> int:
    """Minimum edge cover size β'(g) = n - α'(g); needs no isolated vertices."""
    _require_vertices(g)
    if g.has_isolated_vertex():
        raise ValueError("edge cover undefined: graph has an isolated vertex")
    return g.n - max_matching(g)


def _matched_edges(match: list) -> tuple:
    return tuple((v, u) for v, u in enumerate(match) if u > v)


def _edge_cover_edges(g: Graph, match: list) -> tuple:
    """The matching plus one edge at each unmatched vertex."""
    edges = list(_matched_edges(match))
    for v in range(g.n):
        if match[v] == -1:
            edges.append(tuple(sorted((v, g.adjacency(v)[0]))))
    return tuple(sorted(edges))


# ---------------------------------------------------------------------------
# linear-time tree solvers
# ---------------------------------------------------------------------------


def _rooted_order(t: Graph) -> tuple[list, list]:
    parent = [-1] * t.n
    order = [0]
    seen = [False] * t.n
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in t.adjacency(v):
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
                queue.append(u)
    return parent, order


def _tree_mis_number(t: Graph, weak: int, strong: int) -> int:
    """min over maximal independent S of weak·|S| + (strong − weak)·|forced(S)|
    on a tree, by dynamic programming in linear time.

    Equivalently: positive labels weak or strong on an independent set, and
    every 0-vertex needs one strong neighbor or two positive ones.  Per
    vertex, rooted at 0: the cheapest subtree labeling with the vertex weak
    or strong (its children are 0-vertices that need no strong parent, resp.
    any 0-vertex), and, with the vertex 0, three running minima over its
    children -- no positive child (needs a strong parent), exactly one weak
    child (needs a positive parent), already defended.
    """
    if not t.is_tree():
        raise ValueError("input is not a tree")
    n = t.n
    INF = float("inf")
    parent, order = _rooted_order(t)
    pos_weak = [0] * n
    pos_strong = [0] * n
    none = [0] * n
    one_weak = [0] * n
    defended = [0] * n
    for v in reversed(order):
        below_weak = below_strong = 0
        n0, n1, d = 0, INF, INF
        for c in t.adjacency(v):
            if c == parent[v]:
                continue
            zero = min(defended[c], one_weak[c])
            below_weak += zero
            below_strong += min(zero, none[c])
            w, s = pos_weak[c], pos_strong[c]
            n0, n1, d = (
                n0 + defended[c],
                min(n1 + defended[c], n0 + w),
                min(d + min(defended[c], w, s), n1 + min(w, s), n0 + s),
            )
        pos_weak[v] = weak + below_weak
        pos_strong[v] = strong + below_strong
        none[v], one_weak[v], defended[v] = n0, n1, d
    root = order[0]
    return int(min(pos_weak[root], pos_strong[root], defended[root]))


def tree_idn(t: Graph) -> int:
    """Independent domination number of a tree (linear-time DP)."""
    return _tree_mis_number(t, *_MIS_WEIGHTS["idn"])


def tree_ir2dn(t: Graph) -> int:
    """Independent Roman {2} domination number of a tree (linear-time DP)."""
    return _tree_mis_number(t, *_MIS_WEIGHTS["ir2dn"])


def tree_idrdn(t: Graph) -> int:
    """Independent double Roman domination number of a tree (linear-time DP)."""
    return _tree_mis_number(t, *_MIS_WEIGHTS["idrdn"])


# ---------------------------------------------------------------------------
# invariant table
# ---------------------------------------------------------------------------


@dataclass
class InvariantTable:
    """Computed invariant values, optional witnesses, and skip markers."""

    entries: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    not_applicable: dict = field(default_factory=dict)


def _invariant_names(which) -> list:
    """The requested names (all known ones for None); unknown names raise
    ValueError."""
    if which is None:
        return list(INVARIANT_NAMES)
    names = list(which)
    for name in names:
        if name not in INVARIANT_NAMES:
            raise ValueError(f"unknown invariant {name!r}")
    return names


def compute_invariants(g: Graph, which=None, size_limit: int | None = None) -> InvariantTable:
    """Compute the requested invariants (all known ones by default).

    The exact numbers share one MIS pass, and the matching and edge cover
    share one matching.  min_edge_cover is skipped with a not-applicable
    marker when the graph has an isolated vertex.  Unknown names raise
    ValueError.
    """
    names = _invariant_names(which)
    table = InvariantTable()
    exact = None
    match = None
    for name in INVARIANT_NAMES:
        if name not in names:
            continue
        if name == "order":
            table.entries[name] = g.n
        elif name == "max_degree":
            table.entries[name] = g.max_degree()
        elif name == "min_degree":
            table.entries[name] = g.min_degree()
        elif name in _WITNESS:
            if exact is None:
                _guard(g.n, size_limit)
                _require_vertices(g)
                exact = _solve(g, [x for x in names if x in _WITNESS])
            value, vals = exact[name]
            witness = _WITNESS[name](vals)
            table.entries[name] = value
            table.witnesses[name] = (
                tuple(sorted(witness)) if isinstance(witness, frozenset) else witness
            )
        elif name == "packing":
            value, witness = packing_number(g, size_limit)
            table.entries[name] = value
            table.witnesses[name] = tuple(sorted(witness))
        elif name == "min_edge_cover" and g.n > 0 and g.has_isolated_vertex():
            table.not_applicable[name] = "graph has an isolated vertex"
        else:
            _require_vertices(g)
            if match is None:
                match = _matching_partners(g)
            matched = _matched_edges(match)
            if name == "max_matching":
                table.entries[name] = len(matched)
                table.witnesses[name] = matched
            else:
                table.entries[name] = g.n - len(matched)
                table.witnesses[name] = _edge_cover_edges(g, match)
    return table
