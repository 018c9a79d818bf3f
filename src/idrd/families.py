"""Graph family generators, closed-form values, tree classification, and
construction of trees realizing admissible invariant pairs.

Canonical vertex numbering (fixed so generated graphs are stable):

* path/cycle/complete: vertices 0..n-1, path and cycle edges consecutive.
* complete_multipartite: parts occupy consecutive blocks in the given
  (ascending) order; edges join all pairs from different blocks.
* star s: center 0, leaves 1..s.
* double_star r,s: centers 0 and 1 joined by an edge; leaves 2..r+1 on
  center 0, leaves r+2..r+s+1 on center 1.
* subdivided_star k,j: center 0; subdivided branch i < j is the pair
  (1+2i, 2+2i) with edges (0,1+2i),(1+2i,2+2i); the remaining k-1-2j
  leaves 2j+1..k-1 hang directly off the center.  Final order k.
* subdivided_double_star r,s: centers 0 and 1, middle vertex 2 with edges
  (0,2),(1,2); branch i < r of center 0 is the pair (3+2i, 4+2i); branch
  i < s of center 1 is the pair (3+2r+2i, 4+2r+2i).  Final order 2(r+s)+3.
* corona_of_star t: star center 0 with leaves 1..t, plus one pendant
  t+1+v attached to each star vertex v.  Final order 2t+2.

A well-formed request outside a routine's domain (no closed form, a graph
that is not a tree, an inadmissible pair) raises DomainError, a ValueError.
"""

from dataclasses import dataclass

from .graph import Graph, build_graph

_SHORT_NAMES = {
    "path": "path",
    "cycle": "cycle",
    "complete": "complete",
    "kpartite": "complete_multipartite",
    "star": "star",
    "doublestar": "double_star",
    "subdivstar": "subdivided_star",
    "subdivdoublestar": "subdivided_double_star",
    "coronastar": "corona_of_star",
}

_ALIAS_OF = {kind: alias for alias, kind in _SHORT_NAMES.items()}

KINDS = tuple(_SHORT_NAMES.values())


class DomainError(ValueError):
    """A well-formed request that lies outside the routine's domain."""


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance; parameters are validated on creation."""

    kind: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(int(x) for x in self.params))
        kind, params = self.kind, self.params
        if kind not in KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        if any(x < 0 for x in params):
            raise ValueError("family parameters must be non-negative integers")

        if kind == "complete_multipartite":
            if len(params) < 2:
                raise ValueError("complete_multipartite takes at least 2 part sizes")
            if any(x < 1 for x in params):
                raise ValueError("part sizes must be >= 1")
            if list(params) != sorted(params):
                raise ValueError("part sizes must be sorted ascending")
            return
        # the count comes first: the conditions below read the parameters
        count = 2 if kind in ("double_star", "subdivided_star", "subdivided_double_star") else 1
        if len(params) != count:
            raise ValueError(f"{kind} takes {count} parameter(s)")

        def need(cond, msg):
            if not cond:
                raise ValueError(f"invalid {kind} parameters {params}: {msg}")

        if kind in ("path", "complete"):
            need(params[0] >= 1, "order must be >= 1")
        elif kind == "cycle":
            need(params[0] >= 3, "order must be >= 3")
        elif kind == "star":
            need(params[0] >= 1, "leaf count must be >= 1")
        elif kind in ("double_star", "subdivided_double_star"):
            need(1 <= params[0] <= params[1], "needs 1 <= r <= s")
        elif kind == "subdivided_star":
            need(params[0] >= 2 and params[0] >= 2 * params[1] + 1, "needs k >= 2 and k >= 2j+1")
        elif kind == "corona_of_star":
            need(params[0] >= 1, "star size must be >= 1")

    @property
    def order(self) -> int:
        """Vertex count of generate(self), without building the graph."""
        p = self.params
        return {
            "complete_multipartite": sum(p),
            "star": p[0] + 1,
            "double_star": sum(p) + 2,
            "subdivided_double_star": 2 * sum(p) + 3,
            "corona_of_star": 2 * p[0] + 2,
        }.get(self.kind, p[0])

    def text(self) -> str:
        """Canonical short textual form, e.g. 'kpartite:2,2,5'."""
        return f"{_ALIAS_OF[self.kind]}:{','.join(str(x) for x in self.params)}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse 'kind:p1,p2,...' (short or long kind names) into a FamilySpec."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"family spec {text!r} must look like 'kind:p1,p2,...'")
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    kind = _SHORT_NAMES.get(head, head)
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {head!r}")
    try:
        params = tuple(int(x.strip()) for x in tail.split(","))
    except ValueError:
        raise ValueError(f"family parameters in {text!r} must be integers") from None
    return FamilySpec(kind, params)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph for spec under the module's canonical numbering."""
    kind, params, n = spec.kind, spec.params, spec.order
    if kind == "path":
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "complete_multipartite":
        block = []
        start = 0
        for m in params:
            block.append(range(start, start + m))
            start += m
        edges = []
        for a in range(len(params)):
            for b in range(a + 1, len(params)):
                edges.extend((u, v) for u in block[a] for v in block[b])
        return build_graph(n, edges)
    if kind == "star":
        return build_graph(n, [(0, i) for i in range(1, n)])
    if kind == "double_star":
        r, s = params
        edges = [(0, 1)]
        edges += [(0, 2 + i) for i in range(r)]
        edges += [(1, r + 2 + i) for i in range(s)]
        return build_graph(n, edges)
    if kind == "subdivided_star":
        j = params[1]
        edges = []
        for i in range(j):
            edges += [(0, 1 + 2 * i), (1 + 2 * i, 2 + 2 * i)]
        edges += [(0, v) for v in range(2 * j + 1, n)]
        return build_graph(n, edges)
    if kind == "subdivided_double_star":
        r, s = params
        edges = [(0, 2), (1, 2)]
        for i in range(r):
            edges += [(0, 3 + 2 * i), (3 + 2 * i, 4 + 2 * i)]
        base = 3 + 2 * r
        for i in range(s):
            edges += [(1, base + 2 * i), (base + 2 * i, base + 1 + 2 * i)]
        return build_graph(n, edges)
    # corona_of_star: the star on t + 1 vertices, one pendant per star vertex
    t = params[0]
    edges = [(0, i) for i in range(1, t + 1)]
    edges += [(v, t + 1 + v) for v in range(t + 1)]
    return build_graph(n, edges)


def formula_idrdn(spec: FamilySpec) -> int:
    """Closed-form independent double Roman domination number.

    Available for paths (any n >= 1), cycles (n >= 3), complete graphs with
    n >= 2, and complete multipartite graphs; other kinds raise DomainError.
    """
    kind, params = spec.kind, spec.params
    if kind == "path":
        n = params[0]
        return n if n % 3 == 0 else n + 1
    if kind == "cycle":
        n = params[0]
        return n if n % 6 in (0, 2, 3, 4) else n + 1
    if kind == "complete":
        n = params[0]
        if n < 2:
            raise DomainError("no closed form for a one-vertex complete graph")
        return 3
    if kind == "complete_multipartite":
        m1 = params[0]
        return 3 if m1 == 1 else 2 * m1
    raise DomainError(f"no closed form for kind {kind!r}")


@dataclass(frozen=True)
class TreeClass:
    """Classification outcome: membership label plus recovered parameters."""

    membership: str  # "T_family" | "F_family" | "neither"
    parameters: tuple | None


def _arm(adj: tuple, hub: int, x: int) -> int:
    """Order of the component of t - hub that holds the hub's neighbor x, t
    given by its neighbor tuples, when it is 1 or 2 (x a leaf, or x of
    degree 2 with a leaf beyond it); else 0."""
    nb = adj[x]
    if len(nb) == 1:
        return 1
    if len(nb) == 2 and len(adj[nb[1] if nb[0] == hub else nb[0]]) == 1:
        return 2
    return 0


def _recognize_center_tree(t: Graph) -> tuple | None:
    """Parameters (k, j) when some vertex c leaves only 1- or 2-vertex
    components behind; candidates are scanned by descending degree (a stable
    sort, so ties stay ascending) so the parameters describe the most
    star-like center.

    Such a c leaves deg(c) components of order at most 2, so n - 1 <= 2 deg(c).
    The degrees sum to 2(n - 1), so at most four vertices meet that bound, and
    only they are sorted and tested: O(n) in all."""
    adj, low = t.adj, t.n - 1
    wide = [c for c, nb in enumerate(adj) if 2 * len(nb) >= low]
    for c in sorted(wide, key=lambda c: len(adj[c]), reverse=True):
        arms = [_arm(adj, c, x) for x in adj[c]]
        if all(arms):
            return (t.n, arms.count(2))
    return None


def _recognize_subdivided_double_star(t: Graph) -> tuple | None:
    """Parameters (r, s), r <= s, when t is a double star with every edge
    subdivided: a degree-2 middle vertex between two centers whose other
    neighbors are all degree-2 vertices followed by a leaf."""
    n, adj = t.n, t.adj
    if n < 7 or n % 2 == 0:
        return None
    for mid in range(n):
        if len(adj[mid]) != 2:
            continue
        c1, c2 = adj[mid]
        r, s = len(adj[c1]) - 1, len(adj[c2]) - 1
        if r < 1 or s < 1 or n != 2 * (r + s) + 3:
            continue
        if all(_arm(adj, hub, x) == 2 for hub in (c1, c2) for x in adj[hub] if x != mid):
            return (min(r, s), max(r, s))
    return None


def classify_tree(t: Graph) -> TreeClass:
    """Classify a tree of order >= 2 against the two named tree families.

    The families are disjoint: every subdivided double star has order >= 7
    and both centers keep a 3-vertex component after any single deletion,
    so no vertex qualifies as a star-like center.  T_family parameters win
    on (impossible) overlaps by construction order.
    """
    try:
        tree = t.is_tree()  # the tree test, on the walk the tree DPs share
    except ValueError as error:  # the empty graph
        raise DomainError(str(error)) from None
    if not tree:
        raise DomainError("input is not a tree")
    if t.n < 2:
        raise DomainError("classification needs order >= 2")
    t_params = _recognize_center_tree(t)
    if t_params is not None:
        return TreeClass("T_family", t_params)
    f_params = _recognize_subdivided_double_star(t)
    if f_params is not None:
        return TreeClass("F_family", f_params)
    return TreeClass("neither", None)


def admissible_interval(a: int) -> tuple[int, int]:
    """Closed interval of b values the pair constructor accepts for a."""
    return (2 * a + 1, 3 * a)


def realize(a: int, b: int) -> Graph:
    """A tree with independent domination number a and independent double
    Roman domination number b, for any a >= 1 and 2a+1 <= b <= 3a.

    Constructions: a=1 gives the single-edge star; b=2a+1 gives the corona
    of the star on a vertices; otherwise the star with a subdivided
    branches where b-(2a+2) branches get one extra leaf behind the leaf.
    """
    lo, hi = admissible_interval(a)
    if a < 1 or not (lo <= b <= hi):
        raise DomainError(
            f"inadmissible pair ({a}, {b}): for a={a} the admissible"
            f" interval is [{lo}, {hi}]"
        )
    if a == 1:
        return generate(FamilySpec("star", (1,)))
    if b == 2 * a + 1:
        return generate(FamilySpec("corona_of_star", (a - 1,)))
    q = b - (2 * a + 2)
    edges = []
    for i in range(a):
        edges += [(0, 1 + 2 * i), (1 + 2 * i, 2 + 2 * i)]
    for i in range(q):
        edges.append((2 + 2 * i, 2 * a + 1 + i))
    return build_graph(2 * a + 1 + q, edges)
