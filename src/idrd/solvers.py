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
members are labeled in ascending order by a small exact backtracking over
{1},{2},{1,2} that checks a vertex's both-colors constraint when its highest
S-neighbor is labeled.  No vertex of S ever takes the value 1 in an optimal
independent double Roman labeling: a 1-vertex would need a neighbor labeled
>= 2, contradicting independence of the positive set.  `_mis_pass`
enumerates the sets once and computes forced(S) once per set for every
requested number.  Every set is an int bitmask over the vertices.  Both
searches pop tuples from an explicit stack, not Python's recursion, as
`_threshold` does.  A rainbow completion that could at best tie with a set
earlier in lexicographic order is not searched: the tie would lose.

The packing number needs no search of its own.  A 2-packing is an independent
set of the square graph (vertices adjacent when within distance 2), so a
maximum one is its largest maximal independent set: `_packing` runs the same
enumeration on the square's masks and breaks ties by `_sorts_before`.

Three stages per threshold number
---------------------------------
The plain numbers γ, γ_{R2}, γ_{dR} have no such decomposition.  Each is a
threshold labeling problem: labels from L, and the labels of every 0-vertex's
neighbors sum to at least k, with (L, k) = ({0, 1}, 1) for γ, ({0, 1, 2}, 2)
for γ_R2 and ({0, 2, 3}, 3) for γ_dR.  The last rests on Beeler, Haynes &
Hedetniemi, "Double Roman domination", Discrete Appl. Math. 211 (2016): some
minimum double Roman dominating function has no 1, and with labels in {2, 3}
"a 3-neighbor or two 2-neighbors" is "neighbor sum >= 3".  A vertex is
defended when positive or receiving at least k.  The incumbent is the
independent optimum, and stages 1 and 2 end once it is proven optimal:

1. A floor: γ_dR >= γ_R2 + γ when the call computed both.  Take a minimum
   double Roman dominating function with no 1s, V2 and V3 its 2- and
   3-vertices.  V2 → 1, V3 → 2 is Roman {2} dominating and V2 ∪ V3
   dominates, so γ_dR = (|V2| + 2|V3|) + |V2 ∪ V3| >= γ_R2 + γ.
2. The exact value, by `_threshold` on bitmasks.  It branches as Fomin,
   Grandoni & Kratsch ("A measure and conquer approach for the analysis of
   exact algorithms", J. ACM 56 (2009)) on the undecided u_1 < ... < u_m in
   N[v] of the undefended v with the fewest of them: child (u_t, x) labels
   u_t with x > 0 and u_1..u_{t-1} with 0.  Only labels in N[v] defend v, so
   the children partition the completions, and the all-0 one is dead.
   The bound (van Rooij & Bodlaender, "Exact algorithms for dominating set",
   Discrete Appl. Math. 159 (2011)) sums (k − r(v)) / c'(v) over the
   undefended v, r(v) what v receives, c'(v) = k/least + the largest degree
   in N[v], least the least positive label.  A label x at u lowers u's term
   by at most k/c'(u) <= (k/least)·x/c'(u) and each neighbor w's by at most
   x/c'(w) <= x/(k/least + deg u), so the sum, 0 on a valid labeling, drops
   by at most x: the labels to come weigh at least its ceiling.  It is an
   integer, scaled by the lcm of the c'(v).  Dominance: a vertex with no
   undefended neighbor takes only the least label, since a larger one
   defends nothing more.  A node with no undefended vertex is a leaf: the
   undecided vertices take 0.
3. The witness, when witnesses are requested and the value beats the
   incumbent: the first optimum over (a BFS order from each component's
   max-degree vertex, `_THRESHOLD` label order), by self-reduction (Schnorr,
   "Optimal algorithms for self-reducible problems", ICALP 1976).  Start
   with F, stage 2's labeling.  Each u in BFS order takes the first label x
   before F's label at u for which stage 2's search from the prefix plus x
   at u, from value + 1 with the value as floor, reaches the value, and F
   becomes its labeling; else u keeps F's label.  The bound and the
   dominance rule, which relabels only undecided vertices, hold at any node,
   so each test is exact.

Trees
-----
A value-only request (`witnesses` false) on a tree runs none of these
searches.  The tree test is n − 1 edges, then the walk from vertex 0 that
`Graph.is_connected` keeps on the graph.  Every exponential number is then
one linear-time min-plus DP over that walk (Telle & Proskurowski,
"Algorithms for vertex partitioning problems on partial k-trees", SIAM J.
Discrete Math. 10 (1997)), `_tree_mis_number`: labels 0, weak and strong,
every 0-vertex with one strong neighbor or two positive ones.  With
independence, (weak, strong) = (1, 1), (1, 2), (2, 3) give i, i_R2, i_dR as
above; without it, they give γ, γ_R2, γ_dR, the threshold rules of (L, k).
Two more numbers equal one of these on a tree:

- packing = γ (Meir & Moon, "Relations between packing and covering numbers
  of a tree", Pacific J. Math. 61 (1975)).
- i_2R = i_R2.  On any graph, {1,2} → 2 and {1}, {2} → 1 turns an
  independent 2-rainbow labeling into an independent Roman {2} one of the
  same weight.  Conversely, give each 2 of an optimal independent Roman {2}
  labeling {1,2}, and each 1 one color.  A 0-vertex with no 2-neighbor has
  two or more 1-neighbors, which must not all get the same color.  These
  neighbor sets, edges of size >= 2 on the 1-vertices, form a Berge-acyclic
  hypergraph, since a cycle in it would be a cycle in the tree.  So some edge
  meets the others in at most one vertex and has a private vertex: color
  the others first, then its private vertices so that it sees both colors.

`_exact` runs the DP once per distinct (weak, strong, independent) row of
`_TREE_ROWS`.  Witnesses still come from the searches, and the size limit is
the same for trees.

Exact exponential solvers refuse graphs larger than 24 vertices unless the
IDRD_SIZE_LIMIT environment variable (a non-negative integer) raises the bar.
Witnesses from the enumeration-based solvers break ties toward the
lexicographically smallest positive set, and the packing witness is the
lexicographically smallest maximum packing.
"""

import math
import os
from collections import deque, namedtuple
from dataclasses import dataclass, field

from .graph import Graph, bfs
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


def resolve_limit() -> int:
    """The size guard's limit: IDRD_SIZE_LIMIT, else DEFAULT_SIZE_LIMIT; a
    non-integer or negative IDRD_SIZE_LIMIT raises ValueError."""
    env = os.environ.get("IDRD_SIZE_LIMIT")
    if env is None:
        return DEFAULT_SIZE_LIMIT
    try:
        limit = int(env)
    except ValueError:
        raise ValueError(f"IDRD_SIZE_LIMIT must be an integer, got {env!r}") from None
    if limit < 0:
        raise ValueError(f"IDRD_SIZE_LIMIT must be non-negative, got {env!r}")
    return limit


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


def _neighbor_masks(g: Graph) -> list:
    return [sum(1 << u for u in nb) for nb in g.adj]


def _mis_masks(nbr: list):
    """Yield each maximal independent set of the graph with neighbor masks
    `nbr` (its `_neighbor_masks`) once, as a vertex bitmask: pivoting
    Bron–Kerbosch on the complement (Tomita, Tanaka & Takahashi, Theor.
    Comput. Sci. 363 (2006)) on a stack of (R, P, X) vertex masks.  The pivot
    is the member of P ∪ X with most nonneighbors in P, ties to the least
    vertex.  Each candidate gets one child, built with the candidates before
    it moved from P to X; the children are pushed from the last candidate
    down, so they pop in ascending vertex order.  Isolated vertices are in
    every set: R starts with them."""
    full = (1 << len(nbr)) - 1
    nonadj = [full ^ (1 << v) ^ nb for v, nb in enumerate(nbr)]
    lone = sum(1 << v for v, nb in enumerate(nbr) if not nb)
    stack = [(lone, full ^ lone, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            yield r
            continue
        m, best, best_c = p | x, 0, -1
        while m:
            b = m & -m
            c = (p & nonadj[b.bit_length() - 1]).bit_count()
            if c > best_c:
                best_c, best = c, b
            m ^= b
        cand = p & ~nonadj[best.bit_length() - 1]
        while cand:  # the last candidate first; cand keeps those before it
            v = cand.bit_length() - 1
            cand ^= 1 << v
            stack.append((r | 1 << v, p & ~cand & nonadj[v], (x | cand) & nonadj[v]))


def maximal_independent_sets(g: Graph):
    """Yield every maximal independent set of g exactly once, deterministically,
    as frozensets in the order of `_mis_masks`."""
    for s in _mis_masks(_neighbor_masks(g)):
        yield frozenset(_bits(s))


def _forced_mask(nbr: list, s: int) -> int:
    """Members of the maximal independent set s (a vertex bitmask) that are
    the unique s-neighbor of some outside vertex.  A member has no s-neighbor,
    so it adds nothing."""
    forced = 0
    for nb in nbr:
        y = nb & s
        if not y & (y - 1):
            forced |= y
    return forced


# ---------------------------------------------------------------------------
# independent variants: one pass over the maximal independent sets
# ---------------------------------------------------------------------------

# (weak, strong) labels of the independent numbers with a closed form per set.
_MIS_WEIGHTS = {"idn": (1, 1), "ir2dn": (1, 2), "idrdn": (2, 3)}

# (color 1, color 2) of the labels {1}, {2}, {1,2}, in backtracking order.
_RAINBOW_CHOICES = ((1, 0), (0, 1), (1, 1))

# Label of a vertex by (bit in the low mask) + 2·(bit in the high mask): the
# low and high masks are S and forced(S), or the color-1 and color-2 members.
_LABELS = {name: (0, weak, 0, strong) for name, (weak, strong) in _MIS_WEIGHTS.items()}
_LABELS["i2rdn"] = (frozenset(), frozenset((1,)), frozenset((2,)), frozenset((1, 2)))


def _rainbow_completion(nbr: list, s: int, forced: int, limit):
    """Cheapest 2-rainbow labels on the maximal independent set s.

    Forced members take {1,2}; the rest are assigned by exact backtracking
    over {1},{2},{1,2}, members in ascending order, against the
    both-colors-visible constraints of the outside vertices.  A stack holds
    (members labeled, weight, ones, twos) tuples, the children pushed in
    reverse `_RAINBOW_CHOICES` order.  Each constraint is filed under its
    highest member and checked by two `&` tests when that member is labeled,
    so nothing is undone on backtrack.  A node heavier than `limit` is cut
    when popped, and a leaf lowers `limit` below its weight, so the first
    strict minimum in this order is kept.  Returns (weight, ones, twos) with
    the members carrying color 1 and color 2 as bitmasks, or None when no
    completion weighs at most `limit`.
    """
    checks, relevant = {}, 0  # highest member -> the constraints filed under it
    for c in {nb & s for nb in nbr}:
        # c is 0 at members; an outside vertex with a forced neighbor sees both colors
        if c and not c & forced:
            checks.setdefault(c.bit_length() - 1, []).append(c)
            relevant |= c
    members = [(u, checks.get(u, ())) for u in _bits(relevant)]
    found = None
    stack = [(0, s.bit_count() + forced.bit_count(), s & ~relevant, forced)]
    while stack:
        i, weight, ones, twos = stack.pop()
        if weight > limit:
            continue
        if i == len(members):
            found, limit = (weight, ones, twos), weight - 1
            continue
        u, cs = members[i]
        for d1, d2 in reversed(_RAINBOW_CHOICES):
            o, t = ones | d1 << u, twos | d2 << u
            for c in cs:
                if not (c & o and c & t):
                    break
            else:
                stack.append((i + 1, weight + d1 + d2 - 1, o, t))
    return found


def _sorts_before(s: int, t: int) -> int:
    """Nonzero when the set s sorts before the set t, as sorted member
    tuples, for sets that never nest (maximal independent sets): the lowest
    vertex in exactly one of them is in s."""
    d = s ^ t
    return s & d & -d


def _mis_pass(g: Graph, names, nbr: list, witnesses: bool) -> dict:
    """Optimal (weight, label per vertex) of each requested independent number.

    One scan of the maximal independent sets serves idn, ir2dn, idrdn and
    i2rdn alike, with `nbr` the graph's `_neighbor_masks`.  Ties go to the
    lexicographically smallest sorted positive set, compared as masks by
    `_sorts_before`.  The rainbow completion only looks for weights that
    could win: at most the best rainbow weight so far when S sorts before the
    best set, one less when S sorts after it.  It is skipped when
    |S| + |forced(S)| already exceeds that limit.  Without `witnesses` no tie
    is broken, the rainbow limit is always one less than the best weight, and
    the labels are None.
    """
    weighted = [(name, *_MIS_WEIGHTS[name]) for name in _MIS_WEIGHTS if name in names]
    rainbow = "i2rdn" in names
    need_forced = rainbow or any(weak != strong for _, weak, strong in weighted)
    # name -> (weight, low mask, high mask); the positive set is low | high
    best = {
        name: (float("inf"), 0, 0)
        for name in ("idn", "ir2dn", "i2rdn", "idrdn")
        if name in names
    }
    for s in _mis_masks(nbr):
        forced = _forced_mask(nbr, s) if need_forced else 0
        size, strong_count = s.bit_count(), forced.bit_count()
        scores = [
            (name, weak * size + (strong - weak) * strong_count, s, forced)
            for name, weak, strong in weighted
        ]
        if rainbow:
            limit, ones, twos = best["i2rdn"]
            if not (witnesses and _sorts_before(s, ones | twos)):  # a tie would lose
                limit -= 1
            if size + strong_count <= limit:
                completion = _rainbow_completion(nbr, s, forced, limit)
                if completion:
                    scores.append(("i2rdn", *completion))
        for name, weight, low, high in scores:
            least, low0, high0 = best[name]
            if weight < least or witnesses and weight == least and _sorts_before(s, low0 | high0):
                best[name] = (weight, low, high)
    if not witnesses:
        return {name: (weight, None) for name, (weight, _, _) in best.items()}
    return {
        name: (weight, [_LABELS[name][(low >> v & 1) + 2 * (high >> v & 1)] for v in range(g.n)])
        for name, (weight, low, high) in best.items()
    }


# ---------------------------------------------------------------------------
# plain domination numbers: one threshold branch and bound
# ---------------------------------------------------------------------------

# name -> (labels in branching order, threshold k, independent number whose optimum
# is the starting incumbent, plain numbers whose sum is a floor), in search order.
_THRESHOLD = {
    "gamma": ((0, 1), 1, "idn", ()),
    "gamma_r2": ((0, 2, 1), 2, "ir2dn", ()),
    "gamma_dr": ((0, 3, 2), 3, "idrdn", ("gamma", "gamma_r2")),
}


def _bfs_order(g: Graph) -> list:
    """The vertex order that defines the threshold witnesses: BFS from the
    max-degree vertex of each component, ties to the least index."""
    return bfs(g, sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v)))[1]


_Context = namedtuple("_Context",
                      "nbr labels backward least n full ones groups scale spread low top")


def _context(nbr: list, labels: tuple, k: int) -> _Context:
    """What every search of one label set on one graph shares."""
    backward = [x for x in labels[::-1] if x]
    least = min(backward)
    n = len(nbr)
    full = (1 << n) - 1
    ones = sum(1 << j * n for j in range(k))  # mask * ones: mask in every field
    reach = {}  # d -> the vertices v with a vertex of degree d in N[v]
    for v, nb in enumerate(nbr):
        reach[nb.bit_count()] = reach.get(nb.bit_count(), 0) | nb | 1 << v
    groups, left = [], full  # (vertices, least·c'(v)) by the largest degree in N[v]
    for d in sorted(reach, reverse=True):
        groups.append((reach[d] & left, k + least * d))
        left &= ~reach[d]
    scale = math.lcm(*(c for _, c in groups))
    groups = [(mask * ones, least * scale // c) for mask, c in groups if mask]
    spread = [nb * ones for nb in nbr]
    low = [(1 << x * n) - 1 for x in range(max(backward) + 1)]  # the fields below x
    return _Context(nbr, labels, backward, least, n, full, ones, groups, scale, spread, low,
                    (k - 1) * n)


_ROOT = (0, 0, 0, 0, 0)  # (weight, positive, 0 and received vertices, labels, 2 bits each)


def _fix(ctx: _Context, state: tuple, u: int, x: int) -> tuple:
    """The search node `state` with the undecided vertex u labeled x."""
    w, pos, zero, recv, lab = state
    if not x:
        return w, pos, zero | 1 << u, recv, lab
    recv |= (recv << x * ctx.n | ctx.low[x]) & ctx.spread[u]
    return w + x, pos | 1 << u, zero, recv, lab | x << 2 * u


def _threshold(ctx: _Context, best: int, floor: int, start: tuple = _ROOT) -> tuple:
    """(least weight below `best`, label per vertex) of a valid completion of
    the node `start`, else (`best`, None), ended at the first that weighs at
    most the proven lower bound `floor`.  What the vertices receive is k fields
    of n bits in one int, field j holding those that receive more than j: a
    label updates all fields in one shift, and the deficits are the undefended
    vertices in every field minus the received fields."""
    nbr, _, backward, least, n, full, ones, groups, scale, spread, low, top = ctx
    found = None
    stack = [start]
    while stack:
        w, pos, zero, recv, lab = stack.pop()
        undefended = full & ~(pos | recv >> top)
        owing = undefended * ones & ~recv
        owed = 0
        for mask, unit in groups:
            owed += unit * (owing & mask).bit_count()
        if w + -(-owed // scale) >= best:
            continue
        if not undefended:
            best, found = w, lab
            if best <= floor:
                break
            continue
        undecided = full & ~(pos | zero)
        fewest, m = n + 1, undefended  # the undefended vertex with the fewest candidates
        while m:
            b = m & -m
            c = (nbr[b.bit_length() - 1] | b) & undecided
            if c.bit_count() < fewest:
                fewest, cand = c.bit_count(), c
                if fewest <= 1:
                    break
            m ^= b
        for u in _bits(cand):  # u positive, the candidates before it 0
            b = 1 << u
            for x in backward if nbr[u] & undefended else (least,):
                recv2 = recv | (recv << x * n | low[x]) & spread[u]
                stack.append((w + x, pos | b, zero, recv2, lab | x << 2 * u))
            zero |= b
    return best, None if found is None else [found >> 2 * v & 3 for v in range(n)]


def _first_optimum(ctx: _Context, g: Graph, value: int, vals: list) -> list:
    """Stage 3: the first labeling of weight `value`, the optimum, from `vals`, one of them."""
    state = _ROOT
    for u in _bfs_order(g):
        for x in ctx.labels[:ctx.labels.index(vals[u])]:
            found = _threshold(ctx, value + 1, value, _fix(ctx, state, u, x))[1]
            if found is not None:
                vals = found
                break
        state = _fix(ctx, state, u, vals[u])
    return vals


# ---------------------------------------------------------------------------
# public exact solvers
# ---------------------------------------------------------------------------


# name -> witness built from the label per vertex (the positive vertices, or a
# labeling), or from the packing's member bitmask
_WITNESS = {
    "gamma": lambda vals: tuple(v for v, x in enumerate(vals) if x),
    "idn": lambda vals: tuple(v for v, x in enumerate(vals) if x),
    "gamma_r2": R2Labeling,
    "ir2dn": R2Labeling,
    "i2rdn": RainbowLabeling,
    "gamma_dr": DRLabeling,
    "idrdn": DRLabeling,
    "packing": lambda members: tuple(_bits(members)),
}

# Names whose computation is exponential and therefore guarded by the size limit.
_EXPONENTIAL = frozenset(_WITNESS)


# Each public number below is `compute_invariants` for its one name, which
# owns the guard, the checks and the witness; the value-only ones search no
# witness.


def idrdn(g: Graph) -> tuple[int, DRLabeling]:
    """Independent double Roman domination number with an optimal labeling."""
    table = compute_invariants(g, ["idrdn"])
    return table.entries["idrdn"], table.witnesses["idrdn"]


def idn(g: Graph) -> tuple[int, frozenset]:
    """Independent domination number with a minimum maximal independent set."""
    table = compute_invariants(g, ["idn"])
    return table.entries["idn"], frozenset(table.witnesses["idn"])


def ir2dn(g: Graph) -> tuple[int, R2Labeling]:
    """Independent Roman {2} domination number with an optimal labeling."""
    table = compute_invariants(g, ["ir2dn"])
    return table.entries["ir2dn"], table.witnesses["ir2dn"]


def i2rdn(g: Graph) -> tuple[int, RainbowLabeling]:
    """Independent 2-rainbow domination number with an optimal labeling."""
    table = compute_invariants(g, ["i2rdn"])
    return table.entries["i2rdn"], table.witnesses["i2rdn"]


def domination_number(g: Graph) -> int:
    """Exact domination number γ(g)."""
    return compute_invariants(g, ["gamma"], witnesses=False).entries["gamma"]


def gamma_r2(g: Graph) -> int:
    """Exact Roman {2} domination number γ_{R2}(g)."""
    return compute_invariants(g, ["gamma_r2"], witnesses=False).entries["gamma_r2"]


def gamma_dr(g: Graph) -> int:
    """Exact double Roman domination number γ_{dR}(g)."""
    return compute_invariants(g, ["gamma_dr"], witnesses=False).entries["gamma_dr"]


# ---------------------------------------------------------------------------
# packing, matching, edge cover
# ---------------------------------------------------------------------------


def packing_number(g: Graph) -> tuple[int, frozenset]:
    """Maximum 2-packing (pairwise disjoint closed neighborhoods) with the
    lexicographically smallest maximum packing as witness, by `_packing`."""
    table = compute_invariants(g, ["packing"])
    return table.entries["packing"], frozenset(table.witnesses["packing"])


def _packing(g: Graph, nbr: list) -> tuple[int, int]:
    """(size, member bitmask) of a maximum 2-packing, with `nbr` the graph's
    `_neighbor_masks`: the largest maximal independent set of the square graph
    (no two members within distance 2), ties to the set that `_sorts_before`
    the others, so the lexicographically smallest maximum packing."""
    square = []  # square[v]: the vertices within distance 2 of v, v excluded
    for v, nb in enumerate(g.adj):
        within_two = nbr[v]
        for u in nb:
            within_two |= nbr[u]
        square.append(within_two & ~(1 << v))
    best_size, best = 0, 0
    for s in _mis_masks(square):
        size = s.bit_count()
        if size > best_size or size == best_size and _sorts_before(s, best):
            best_size, best = size, s
    return best_size, best


def _matching_partners(g: Graph) -> tuple:
    """match[v] = partner of v in a maximum matching, -1 if unmatched.

    Computed once per graph and kept on it, so the matching number, the edge
    cover and the invariant table share one search.  Augmenting-path search
    with blossom contraction (base array), O(V^3).  Vertices without
    neighbors are never searched from: nothing can match them.  The search
    arrays are allocated once; each search records the vertices whose
    entries it sets and resets only those, so a search that contracts no
    blossom costs what it explores, not O(n).  A contraction likewise visits
    only the blossom: `members` holds the vertices of each base a search has
    contracted into (any other base is alone), and `stamp[b]` is +c while
    base b is on the lca path of contraction c and -c once b is in its
    blossom, so neither mark needs a reset.
    """
    if g._match is not None:
        return g._match
    n = g.n
    adj = g.adj
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
                    # cur is outer (matched to its parent, or the root), so no
                    # mark_path lists it and it keeps its own members
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
    g._match = tuple(match)
    return g._match


def max_matching(g: Graph) -> int:
    """Maximum matching size α'(g) (exact on general graphs)."""
    return compute_invariants(g, ["max_matching"], witnesses=False).entries["max_matching"]


def min_edge_cover(g: Graph) -> int:
    """Minimum edge cover size β'(g) = n - α'(g); needs no isolated vertices."""
    table = compute_invariants(g, ["min_edge_cover"], witnesses=False)
    if table.not_applicable:
        raise ValueError(f"edge cover undefined: {table.not_applicable['min_edge_cover']}")
    return table.entries["min_edge_cover"]


def _matched_edges(g: Graph) -> tuple:
    return tuple((v, u) for v, u in enumerate(_matching_partners(g)) if u > v)


def _edge_cover_edges(g: Graph, matched: tuple) -> tuple:
    """The matching `matched` (`_matched_edges`) plus one edge at each
    unmatched vertex."""
    edges = list(matched)
    for v, u in enumerate(_matching_partners(g)):
        if u == -1:
            edges.append(tuple(sorted((v, g.adj[v][0]))))
    return tuple(sorted(edges))


# ---------------------------------------------------------------------------
# linear-time tree solvers
# ---------------------------------------------------------------------------


def _tree_mis_number(t: Graph, weak: int, strong: int, independent: bool) -> int:
    """Least weight of a labeling of a tree with labels 0, weak and strong in
    which every 0-vertex has one strong neighbor or two positive ones, and,
    when `independent`, no two positive vertices are adjacent, by dynamic
    programming in linear time.  Independent, it is the min over maximal
    independent S of weak·|S| + (strong − weak)·|forced(S)|.

    Per vertex, rooted at 0: the cheapest subtree labeling with the vertex
    weak or strong (a 0-child then needs no strong parent, resp. nothing, and
    a positive child, allowed when not `independent`, needs nothing), and,
    with the vertex 0, three running minima over its children -- no positive
    child (needs a strong parent), exactly one weak child (needs a positive
    parent), already defended.  Impossible states start at 3n + 3, above the
    weight of any labeling, and stay above it.  The walk is the one that
    `Graph.is_connected` keeps.  ValueError for an empty graph (from
    `Graph.is_tree`) or a non-tree.
    """
    if not t.is_tree():
        raise ValueError("input is not a tree")
    parent, order = t._rooted
    adj = t.adj
    inf = 3 * t.n + 3
    state = [None] * t.n  # weak, strong, none, one weak, defended; freed once read
    for v in reversed(order):
        up = parent[v]
        below_weak = below_strong = n0 = 0
        n1 = d = inf
        for c in adj[v]:
            if c == up:
                continue
            w, s, none, zero, dc = state[c]
            state[c] = None
            ws = s if s < w else w
            if dc < zero:
                zero = dc
            if not independent and ws < zero:
                zero = ws
            below_weak += zero
            below_strong += zero if zero < none else none
            # d = min(d + min(dc, w, s), n1 + min(w, s), n0 + s); n1 = min(n1 + dc, n0 + w)
            a, b, e = d + (dc if dc < ws else ws), n1 + ws, n0 + s
            d = (a if a < e else e) if a < b else (b if b < e else e)
            a, b = n1 + dc, n0 + w
            n1 = a if a < b else b
            n0 += dc
        state[v] = (weak + below_weak, strong + below_strong, n0, n1, d)
    w, s, _, _, d = state[0]
    return (w if w < d else d) if w < s else (s if s < d else d)


# name -> (weak, strong, independent) of its `_tree_mis_number` on a tree.  The
# plain numbers are their independent numbers' rows without independence; on
# a tree, packing is γ and i2rdn is ir2dn (module docstring).
_TREE_ROWS = {
    "gamma": (1, 1, False),
    "idn": (1, 1, True),
    "gamma_r2": (1, 2, False),
    "ir2dn": (1, 2, True),
    "i2rdn": (1, 2, True),
    "gamma_dr": (2, 3, False),
    "idrdn": (2, 3, True),
    "packing": (1, 1, False),
}


def _tree_value(t: Graph, name: str) -> int:
    """The exponential number `name` of the tree t, by its linear-time DP."""
    return _tree_mis_number(t, *_TREE_ROWS[name])


def tree_idn(t: Graph) -> int:
    """Independent domination number of a tree (linear-time DP)."""
    return _tree_value(t, "idn")


def tree_ir2dn(t: Graph) -> int:
    """Independent Roman {2} domination number of a tree (linear-time DP)."""
    return _tree_value(t, "ir2dn")


def tree_idrdn(t: Graph) -> int:
    """Independent double Roman domination number of a tree (linear-time DP)."""
    return _tree_value(t, "idrdn")


# ---------------------------------------------------------------------------
# invariant table
# ---------------------------------------------------------------------------


@dataclass
class InvariantTable:
    """Computed invariant values, optional witnesses, and skip markers."""

    entries: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    not_applicable: dict = field(default_factory=dict)


def admit(order: int, which=None) -> list:
    """The requested invariant names (all for None), checked before a graph
    of `order` vertices is built: unknown names raise ValueError, and an
    exponential name on a graph above the limit raises SizeLimitError.  The
    limit is read only for an exponential name."""
    names = list(INVARIANT_NAMES if which is None else which)
    for name in names:
        if name not in INVARIANT_NAMES:
            raise ValueError(f"unknown invariant {name!r}")
    if _EXPONENTIAL.intersection(names):
        limit = resolve_limit()
        if order > limit:
            raise SizeLimitError(
                f"graph order {order} exceeds the exact-solver limit {limit} "
                f"(set IDRD_SIZE_LIMIT to override)"
            )
    return names


def _exact(g: Graph, names, witnesses: bool) -> dict:
    """(value, witness data) of each requested exponential number: the label
    per vertex, the packing's member bitmask, or None without `witnesses`.
    A value-only request on a tree runs the tree DP once per distinct
    `_TREE_ROWS` row over its one walk.  Any other request builds the
    neighbor masks once for every search: one MIS pass for the independent
    numbers and the incumbents (which the result also holds), the stages of
    the module docstring per plain number on one `_context` (stage 3 only
    with `witnesses`, the floor only when this call computed all its terms),
    then the packing."""
    _require_vertices(g)
    if not witnesses and g.is_tree():
        rows = {name: _TREE_ROWS[name] for name in names if name in _EXPONENTIAL}
        values = {row: _tree_mis_number(g, *row) for row in set(rows.values())}
        return {name: (values[row], None) for name, row in rows.items()}
    nbr = _neighbor_masks(g)
    plain = [name for name in _THRESHOLD if name in names]
    mis = _EXPONENTIAL.intersection(names) - {"packing"} | {_THRESHOLD[name][2] for name in plain}
    found = _mis_pass(g, mis, nbr, witnesses) if mis else {}
    for name in plain:
        labels, k, start, terms = _THRESHOLD[name]
        floor = sum(found[t][0] for t in terms) if all(t in found for t in terms) else 0
        weight, _ = found[name] = found[start]
        if weight > floor:
            ctx = _context(nbr, labels, k)
            value, vals = _threshold(ctx, weight, floor)
            if value < weight:
                found[name] = (value, _first_optimum(ctx, g, value, vals) if witnesses else None)
    if "packing" in names:
        found["packing"] = _packing(g, nbr)
    return found


def compute_invariants(g: Graph, which=None, *, witnesses: bool = True) -> InvariantTable:
    """Compute the requested invariants (all known ones by default).

    The exact numbers share one MIS pass, or on a tree without witnesses one
    walk (see `_exact`), and the matching and edge cover share the graph's
    one matching.  min_edge_cover is skipped with a not-applicable marker
    when the graph has an isolated vertex.  The names are checked by `admit`
    first.  With `witnesses` false the table has the same entries and markers
    but no witnesses, and no search is spent on them: no tie-breaks in the
    MIS pass, no witness search for the plain numbers, and the packing,
    matching and cover are counted, not listed.
    """
    names = admit(g.n, which)
    table = InvariantTable()
    exact = matched = None
    for name in INVARIANT_NAMES:
        if name not in names:
            continue
        if name == "order":
            table.entries[name] = g.n
        elif name == "max_degree":
            table.entries[name] = g.max_degree()
        elif name == "min_degree":
            table.entries[name] = g.min_degree()
        elif name in _EXPONENTIAL:
            if exact is None:
                exact = _exact(g, names, witnesses)
            table.entries[name], found = exact[name]
            if witnesses:
                table.witnesses[name] = _WITNESS[name](found)
        elif name == "min_edge_cover" and g.n > 0 and g.has_isolated_vertex():
            table.not_applicable[name] = "graph has an isolated vertex"
        else:
            _require_vertices(g)
            # the cover adds one edge per unmatched vertex: n - |matching| edges
            matching = (g.n - _matching_partners(g).count(-1)) // 2
            table.entries[name] = matching if name == "max_matching" else g.n - matching
            if witnesses:
                if matched is None:
                    matched = _matched_edges(g)
                table.witnesses[name] = (
                    matched if name == "max_matching" else _edge_cover_edges(g, matched)
                )
    return table
