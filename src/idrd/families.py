"""Graph family generators, closed-form values, tree classification, and
construction of trees realizing admissible invariant pairs.

Canonical vertex numbering (fixed so generated graphs are stable):

* path/cycle/complete: vertices 0..n-1, path and cycle edges consecutive.
* complete_multipartite: parts occupy consecutive blocks in the given
  (ascending) order; every pair of vertices in different parts is an edge.
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

`_KINDS` holds what each kind's spec needs: its alias, parameter count,
checks and order; a new family is one row there plus its `generate` branch.

A well-formed request outside a routine's domain (no closed form, a graph
that is not a tree, an inadmissible pair) raises DomainError, a ValueError.
"""

import operator
from dataclasses import dataclass

from .graph import Graph, build_graph

_BAD = "invalid {kind} parameters {params}: "

# One row per kind, in KINDS order: CLI alias, kind, parameter count (None: as
# many as the checks accept), the (condition, message) checks the parameters
# must pass in turn, and the order of the generated graph.
_KINDS = (
    ("path", "path", 1, [(lambda n: n >= 1, _BAD + "order must be >= 1")], lambda n: n),
    ("cycle", "cycle", 1, [(lambda n: n >= 3, _BAD + "order must be >= 3")], lambda n: n),
    ("complete", "complete", 1, [(lambda n: n >= 1, _BAD + "order must be >= 1")], lambda n: n),
    ("kpartite", "complete_multipartite", None, [
        (lambda *m: len(m) >= 2, "{kind} takes at least 2 part sizes"),
        (lambda *m: min(m) >= 1, "part sizes must be >= 1"),
        (lambda *m: list(m) == sorted(m), "part sizes must be sorted ascending"),
    ], lambda *m: sum(m)),
    ("star", "star", 1, [(lambda s: s >= 1, _BAD + "leaf count must be >= 1")], lambda s: s + 1),
    ("doublestar", "double_star", 2,
     [(lambda r, s: 1 <= r <= s, _BAD + "needs 1 <= r <= s")], lambda r, s: r + s + 2),
    ("subdivstar", "subdivided_star", 2,
     [(lambda k, j: k >= 2 and k >= 2 * j + 1, _BAD + "needs k >= 2 and k >= 2j+1")],
     lambda k, j: k),
    ("subdivdoublestar", "subdivided_double_star", 2,
     [(lambda r, s: 1 <= r <= s, _BAD + "needs 1 <= r <= s")], lambda r, s: 2 * (r + s) + 3),
    ("coronastar", "corona_of_star", 1,
     [(lambda t: t >= 1, _BAD + "star size must be >= 1")], lambda t: 2 * t + 2),
)

_ROW = {name: row for row in _KINDS for name in row[:2]}  # by alias and by kind

KINDS = tuple(row[1] for row in _KINDS)


class DomainError(ValueError):
    """A well-formed request that lies outside the routine's domain."""


def _integers(values, what: str) -> tuple:
    """values as ints, read as `Graph` reads them: a float or a string is a ValueError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} {values!r} must be integers") from None


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance; parameters are validated on creation."""

    kind: str
    params: tuple

    def __post_init__(self):
        kind, params = self.kind, _integers(self.params, "family parameters")
        object.__setattr__(self, "params", params)
        if kind not in KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        if any(x < 0 for x in params):
            raise ValueError("family parameters must be non-negative integers")
        count, checks = _ROW[kind][2:4]
        # the count comes first: the checks read the parameters
        if count is not None and len(params) != count:
            raise ValueError(f"{kind} takes {count} parameter(s)")
        for holds, message in checks:
            if not holds(*params):
                raise ValueError(message.format(kind=kind, params=params))

    @property
    def order(self) -> int:
        """Vertex count of generate(self), without building the graph."""
        return _ROW[self.kind][4](*self.params)

    def text(self) -> str:
        """Canonical short textual form, e.g. 'kpartite:2,2,5'."""
        return f"{_ROW[self.kind][0]}:{','.join(str(x) for x in self.params)}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse 'kind:p1,p2,...' (short or long kind names) into a FamilySpec."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"family spec {text!r} must look like 'kind:p1,p2,...'")
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head not in _ROW:
        raise ValueError(f"unknown family kind {head!r}")
    try:
        params = tuple(int(x.strip()) for x in tail.split(","))
    except ValueError:
        raise ValueError(f"family parameters in {text!r} must be integers") from None
    return FamilySpec(_ROW[head][1], params)


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
        part = [i for i, m in enumerate(params) for _ in range(m)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
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
    a, b = _integers((a, b), "realize arguments")
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
