"""Definition-level reference implementations used to check the fast solvers.

Everything here enumerates directly from the definitions over (n, edges)
pairs and deliberately shares no code with the package under test: separate
adjacency construction, separate validity checks, exhaustive search only.
"""

from functools import lru_cache
from itertools import product


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def positive_independent(adj, positive):
    for u, pos in enumerate(positive):
        if pos and any(positive[w] for w in adj[u]):
            return False
    return True


def dr_valid(adj, vals):
    for v, x in enumerate(vals):
        if x == 0:
            if any(vals[u] == 3 for u in adj[v]):
                continue
            if sum(1 for u in adj[v] if vals[u] >= 2) >= 2:
                continue
            return False
        if x == 1 and not any(vals[u] >= 2 for u in adj[v]):
            return False
    return True


def r2_valid(adj, vals):
    return all(
        x != 0 or sum(vals[u] for u in adj[v]) >= 2 for v, x in enumerate(vals)
    )


def rainbow_valid(adj, sets):
    for v, s in enumerate(sets):
        if not s:
            union = set()
            for u in adj[v]:
                union |= sets[u]
            if union != {1, 2}:
                return False
    return True


def brute_gamma_dr(n, edges, allowed=(0, 1, 2, 3)):
    adj = adjacency(n, edges)
    return min(
        sum(vals) for vals in product(allowed, repeat=n) if dr_valid(adj, vals)
    )


def brute_idrdn(n, edges, allowed=(0, 1, 2, 3)):
    adj = adjacency(n, edges)
    best = None
    for vals in product(allowed, repeat=n):
        if not dr_valid(adj, vals):
            continue
        if not positive_independent(adj, [x > 0 for x in vals]):
            continue
        w = sum(vals)
        if best is None or w < best:
            best = w
    return best


def brute_gamma_r2(n, edges):
    adj = adjacency(n, edges)
    return min(
        sum(vals) for vals in product((0, 1, 2), repeat=n) if r2_valid(adj, vals)
    )


def brute_ir2dn(n, edges):
    adj = adjacency(n, edges)
    best = None
    for vals in product((0, 1, 2), repeat=n):
        if r2_valid(adj, vals) and positive_independent(adj, [x > 0 for x in vals]):
            w = sum(vals)
            if best is None or w < best:
                best = w
    return best


_RAINBOW_SETS = (frozenset(), frozenset((1,)), frozenset((2,)), frozenset((1, 2)))


def brute_i2rdn(n, edges):
    """(weight, positive set) of the optimal independent 2-rainbow labelings:
    the least weight, and the lexicographically smallest sorted positive set
    among the labelings of that weight."""
    adj = adjacency(n, edges)
    best = None
    for sets in product(_RAINBOW_SETS, repeat=n):
        if rainbow_valid(adj, sets) and positive_independent(
            adj, [bool(s) for s in sets]
        ):
            key = (sum(len(s) for s in sets), tuple(v for v, s in enumerate(sets) if s))
            if best is None or key < best:
                best = key
    return best


def first_rainbow_completion(n, edges, s):
    """(weight, label per vertex) of the first 2-rainbow labeling of least
    weight whose positive set is the maximal independent set s, first in the
    enumeration that gives the members of s, in ascending order, each of {1},
    {2}, {1,2} in turn (the last member changing fastest)."""
    adj = adjacency(n, edges)
    members = sorted(s)
    best = None
    for choice in product(_RAINBOW_SETS[1:], repeat=len(members)):
        sets = [frozenset()] * n
        for v, c in zip(members, choice):
            sets[v] = c
        weight = sum(len(c) for c in choice)
        if (best is None or weight < best[0]) and rainbow_valid(adj, sets):
            best = (weight, sets)
    return best


def _dominating(adj, n, mask):
    for v in range(n):
        if (mask >> v) & 1:
            continue
        if not any((mask >> u) & 1 for u in adj[v]):
            return False
    return True


def _independent_mask(edges, mask):
    return all(not ((mask >> u) & 1 and (mask >> v) & 1) for u, v in edges)


def brute_gamma(n, edges):
    adj = adjacency(n, edges)
    return min(
        bin(mask).count("1")
        for mask in range(1 << n)
        if _dominating(adj, n, mask)
    )


def brute_idn(n, edges):
    adj = adjacency(n, edges)
    return min(
        bin(mask).count("1")
        for mask in range(1 << n)
        if _independent_mask(edges, mask) and _dominating(adj, n, mask)
    )


def brute_maximal_independent_sets(n, edges):
    adj = adjacency(n, edges)
    out = []
    for mask in range(1 << n):
        if not _independent_mask(edges, mask):
            continue
        maximal = True
        for v in range(n):
            if (mask >> v) & 1:
                continue
            if all(not ((mask >> u) & 1) for u in adj[v]):
                maximal = False
                break
        if maximal:
            out.append(frozenset(v for v in range(n) if (mask >> v) & 1))
    return out


def reference_maximal_independent_sets(n, edges):
    """The maximal independent sets in the order the solver must yield them,
    by the recursion the solver's explicit-stack loop replaced.

    Pivoting Bron–Kerbosch on the complement (Tomita, Tanaka & Takahashi,
    Theor. Comput. Sci. 363 (2006)) over the vertices in index order.  The
    pivot is the member of P ∪ X with the most nonneighbors in P, ties to the
    least vertex; the candidates (P minus the pivot's nonneighbors, fixed
    before the loop) go in ascending vertex order.
    """
    if n == 0:
        return [frozenset()]
    adj = adjacency(n, edges)
    nonadj = [sum(1 << u for u in range(n) if u != v and u not in adj[v]) for v in range(n)]
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(frozenset(v for v in range(n) if (r >> v) & 1))
            return
        best_i, best_c = -1, -1
        for i in range(n):
            if ((p | x) >> i) & 1:
                c = bin(p & nonadj[i]).count("1")
                if c > best_c:
                    best_c, best_i = c, i
        cand = p & ~nonadj[best_i]
        for i in range(n):
            if (cand >> i) & 1:
                expand(r | (1 << i), p & nonadj[i], x & nonadj[i])
                p &= ~(1 << i)
                x |= 1 << i

    expand(0, (1 << n) - 1, 0)
    return out


def brute_packing(n, edges):
    """(size, members) of the lexicographically smallest maximum packing,
    members as a sorted tuple."""
    adj = adjacency(n, edges)
    closed = [adj[v] | {v} for v in range(n)]
    best = ()
    for mask in range(1 << n):
        members = tuple(v for v in range(n) if (mask >> v) & 1)
        if all(
            not (closed[u] & closed[v])
            for i, u in enumerate(members)
            for v in members[i + 1 :]
        ) and (-len(members), members) < (-len(best), best):
            best = members
    return len(best), best


def brute_max_matching(n, edges):
    adjmask = [0] * n
    for u, v in edges:
        adjmask[u] |= 1 << v
        adjmask[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(mask):
        if mask == 0:
            return 0
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        out = best(rest)
        m = adjmask[v] & rest
        while m:
            b = m & -m
            out = max(out, 1 + best(rest ^ b))
            m ^= b
        return out

    result = best((1 << n) - 1)
    best.cache_clear()
    return result


def tree_certificate(n, edges):
    """Canonical string for a free tree, equal iff the trees are isomorphic
    (root at the 1- or 2-vertex center, sort child encodings)."""
    if n == 1:
        return "()"
    adj = adjacency(n, edges)
    degree = [len(adj[v]) for v in range(n)]
    alive = set(range(n))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in adj[v]:
                if u in alive:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt

    def encode(v, parent):
        subs = sorted(encode(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    return min(encode(c, -1) for c in alive)


def tree_labeling(n, edges, labels, k, independent, rainbow=False):
    """Least weight of a labeling of the tree (n, edges) with values in
    `labels` in which the labels of every 0-vertex's neighbors sum to at least
    k, and, when `independent`, no two adjacent vertices are both positive.
    With `rainbow` a label is a set of colors as a bit mask (1 = {1}, 2 = {2},
    3 = {1, 2}) that weighs its size, a vertex receives the union of its
    neighbors' colors, and k = 3 asks an empty vertex for both colors.

    Dynamic programming over the tree rooted at 0 (Telle & Proskurowski, SIAM
    J. Discrete Math. 10 (1997)): a vertex's state is its own label and what
    its children send it, capped at k, and its children combine by a min-plus
    step over that amount.
    """
    if rainbow:
        add, size = (lambda r, y: r | y), int.bit_count
    else:
        add, size = (lambda r, y: min(k, r + y)), (lambda x: x)
    adj = adjacency(n, edges)
    parent = {0: None}
    order = [0]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(order) != n or len(edges) != n - 1:
        raise ValueError("not a tree")
    inf = float("inf")
    table = {}  # v -> {(label, received): least weight of v's subtree}
    for v in reversed(order):
        children = [table.pop(c) for c in adj[v] if c != parent[v]]
        table[v] = {}
        for x in labels:
            got = [0] + [inf] * k  # received amount -> least weight of the children's subtrees
            for child in children:
                # least weight of the child's subtree per child label, with v labeled x
                send = {}
                for (y, r), w in child.items():
                    if (y or add(r, x) >= k) and not (independent and x and y) and w < send.get(y, inf):
                        send[y] = w
                step = [inf] * (k + 1)
                for r, w in enumerate(got):
                    for y, wc in send.items():
                        j = add(r, y)
                        step[j] = min(step[j], w + wc)
                got = step
            for r, w in enumerate(got):
                table[v][x, r] = size(x) + w
    return min(w for (x, r), w in table[0].items() if x or r >= k)


def threshold_labelings(n, edges, labels, k):
    """Every labeling with values in `labels` in which the labels of every
    0-vertex's neighbors sum to at least k, as lists."""
    adj = adjacency(n, edges)
    for vals in product(labels, repeat=n):
        if all(x or sum(vals[u] for u in adj[v]) >= k for v, x in enumerate(vals)):
            yield list(vals)


def first_threshold_labeling(n, edges, labels, k, order):
    """(weight, label per vertex) of the first labeling of least weight in
    which the labels of every 0-vertex's neighbors sum to at least k, first
    in the enumeration that gives order[0], order[1], ... each value of
    `labels` in turn (the last vertex changing fastest)."""
    adj = adjacency(n, edges)
    best = None
    for choice in product(labels, repeat=n):
        vals = [0] * n
        for v, x in zip(order, choice):
            vals[v] = x
        if best is not None and sum(vals) >= best[0]:
            continue
        if all(x or sum(vals[u] for u in adj[v]) >= k for v, x in enumerate(vals)):
            best = (sum(vals), vals)
    return best


def _component_orders(adj, n, gone):
    """Orders of the components of the graph minus vertex `gone`."""
    seen = {gone}
    orders = []
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            v = stack.pop()
            size += 1
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        orders.append(size)
    return orders


def tree_family(n, edges):
    """(membership, parameters) of a tree of order >= 2 against the two
    families, read straight from their definitions.

    T_family: some vertex whose deletion leaves only components of order 1
    or 2; the vertices are tried by descending degree, ties by index, and the
    first that qualifies gives (n, number of 2-vertex components).
    F_family: isomorphic to the subdivided double star S(r, s), r <= s, of
    order 2(r + s) + 3, built here and compared by `tree_certificate`.
    """
    adj = adjacency(n, edges)
    for c in sorted(range(n), key=lambda v: (-len(adj[v]), v)):
        orders = _component_orders(adj, n, c)
        if all(size <= 2 for size in orders):
            return ("T_family", (n, orders.count(2)))
    if n >= 7 and n % 2 == 1:
        cert = tree_certificate(n, edges)
        total = (n - 3) // 2
        for r in range(1, total // 2 + 1):
            s = total - r
            # centers 0 and 1 joined through 2; each branch is hub - x - leaf
            sub = [(0, 2), (1, 2)]
            nxt = 3
            for hub, count in ((0, r), (1, s)):
                for _ in range(count):
                    sub += [(hub, nxt), (nxt, nxt + 1)]
                    nxt += 2
            if tree_certificate(n, sub) == cert:
                return ("F_family", (r, s))
    return ("neither", None)
