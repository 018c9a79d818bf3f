"""Simple-graph core: immutable graphs, edge-list I/O, seeded generators.

Vertices are always 0..n-1.  The on-disk edge-list format is line oriented:
lines starting with '#' and blank lines are ignored, the first data line is
"n m", and exactly m data lines "u v" follow.  `serialize_edge_list` emits a
canonical form (edges sorted, u < v, trailing newline) so that
parse(serialize(g)) == g and byte-identical output is reproducible.
Text is validated once, by `parse_edges`, which emits (min, max) pairs that
the graph is built from unchecked; `Graph(n, edges)` validates Python pairs.
"""

import operator

from .rng import SplitMix64


class EdgeListParseError(ValueError):
    """Raised when edge-list text does not conform to the format."""


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Construct through :func:`build_graph` (or the parser / generators); the
    constructor validates endpoints, rejects self-loops, and deduplicates.
    ``n``, the edge count ``m`` and ``adj`` are stored: ``adj[v]`` is the
    sorted tuple of v's neighbors, for reading only, and :meth:`adjacency`
    is the same with a range check on v.  ``edges``, the sorted (u, v)
    pairs with u < v, is built from ``adj`` on first read.
    """

    __slots__ = ("n", "m", "adj", "_edges", "_match", "_rooted")

    def __init__(self, n: int, edges):
        index = operator.index  # ints only: no float, str or other int() conversion
        try:
            n = index(n)
        except TypeError:
            raise ValueError(f"vertex count {n!r} is not an integer") from None
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair")
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise ValueError(f"edge {e!r} has a non-integer endpoint") from None
            lo, hi = (u, v) if u < v else (v, u)
            if not 0 <= lo < hi < n:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((lo, hi))
        self._build(n, canon)

    def _build(self, n: int, canon: set) -> None:
        """Store n and the adjacency of the distinct (lo, hi) pairs `canon`."""
        adj = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        for nb in adj:
            nb.sort()
        self.n, self.m = n, len(canon)
        self.adj = tuple(map(tuple, adj))
        # edges, the walk from vertex 0, and the matching partners kept by the solvers
        self._edges = self._match = self._rooted = None

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple:
        """The sorted (u, v) pairs, u < v, built from adj on first read."""
        if self._edges is None:
            self._edges = tuple([(u, v) for u, nb in enumerate(self.adj) for v in nb if u < v])
        return self._edges

    def adjacency(self, v: int) -> tuple:
        """Neighbors of v as a sorted tuple (deterministic iteration order)."""
        self._check_vertex(v)
        return self.adj[v]

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree of an empty graph is undefined")
        return max(len(nb) for nb in self.adj)

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree of an empty graph is undefined")
        return min(len(nb) for nb in self.adj)

    def has_isolated_vertex(self) -> bool:
        return not all(self.adj)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def _check_subset(self, s) -> frozenset:
        s = frozenset(s)
        for v in s:
            self._check_vertex(v)
        return s

    # -- set predicates ---------------------------------------------------

    def is_independent(self, s) -> bool:
        """True iff no edge joins two members of s."""
        s = self._check_subset(s)
        return all(s.isdisjoint(self.adj[v]) for v in s)

    def is_dominating(self, s) -> bool:
        """True iff every vertex outside s has a neighbor in s."""
        s = self._check_subset(s)
        return all(v in s or not s.isdisjoint(nb) for v, nb in enumerate(self.adj))

    # -- global predicates ------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the breadth-first walk from vertex 0 reaches every vertex.
        The walk, `bfs(self)`, is made once and kept, for the tree test and
        the tree DPs to share; fewer than n - 1 edges need no walk."""
        if self.n == 0:
            raise ValueError("connectivity of an empty graph is undefined")
        if self.m < self.n - 1:
            return False
        if self._rooted is None:
            self._rooted = bfs(self)
        return len(self._rooted[1]) == self.n

    def is_tree(self) -> bool:
        if self.n == 0:
            raise ValueError("tree test of an empty graph is undefined")
        return self.m == self.n - 1 and self.is_connected()

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj  # adj has n entries

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def bfs(g: Graph, starts=(0,)) -> tuple[list, list]:
    """(parent, order) of a breadth-first search from each start not yet
    reached, in turn, over the sorted neighbor tuples.  A start's parent is
    n; a vertex no start reaches keeps parent -1 and is not in the order."""
    n, adj = g.n, g.adj
    parent = [-1] * n
    order = []
    for start in starts:
        if parent[start] >= 0:
            continue
        parent[start] = n
        component = [start]
        for v in component:
            for u in adj[v]:
                if parent[u] < 0:
                    parent[u] = v
                    component.append(u)
        order += component
    return parent, order


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an order/edge-list pair into a Graph."""
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" + m x "u v" edge-list format (see module docstring)."""
    return _from_parsed(*parse_edges(text))


def _from_parsed(n: int, pairs) -> Graph:
    """The graph of `parse_edges` output, checked and (min, max): only deduplicated."""
    g = Graph.__new__(Graph)
    g._build(n, set(pairs))
    return g


def parse_edges(text: str) -> tuple[int, list]:
    """Validate edge-list text into (n, edges), each edge as (min, max),
    without building the graph, so callers can check n before paying for it."""
    lines = map(str.strip, text.splitlines())
    data_lines = [line for line in lines if line and line[0] != "#"]
    if not data_lines:
        raise EdgeListParseError("missing header line 'n m'")
    header = data_lines[0].split()
    if len(header) != 2:
        raise EdgeListParseError(f"malformed header {data_lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError(f"non-integer header {data_lines[0]!r}")
    if n < 0 or m < 0:
        raise EdgeListParseError("header counts must be non-negative")
    body = data_lines[1:]
    if len(body) != m:
        raise EdgeListParseError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer edge line {line!r}")
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v) if u < v else (v, u))
    return n, edges


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text for g (sorted edges, u < v, trailing newline)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p), deterministic for a given seed.

    A SplitMix64 stream seeded with `seed` is consumed pair by pair in
    ascending (i, j) order, i < j; the pair becomes an edge iff unit() < p.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.unit() < p:
                edges.append((i, j))
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices via a Prüfer sequence.

    The sequence of length n-2 is drawn from SplitMix64(seed) with
    `below(n)`; decoding attaches each sequence element to the smallest
    remaining leaf, then joins the last two leaves.
    """
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    rng = SplitMix64(seed)
    prufer = [rng.below(n) for _ in range(n - 2)]
    return prufer_decode(n, prufer)


def prufer_decode(n: int, prufer) -> Graph:
    """Tree on n vertices encoded by a Prüfer sequence of length n-2."""
    prufer = list(prufer)
    if n < 2 or len(prufer) != n - 2:
        raise ValueError("sequence length must be n-2 with n >= 2")
    if any(not (0 <= x < n) for x in prufer):
        raise ValueError("sequence entries out of range")
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    # `ptr` sweeps for the smallest leaf; `leaf` may drop below ptr when a
    # removal re-exposes an earlier vertex.
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in prufer:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # vertex n-1 is never consumed inside the loop, so it is the final partner
    edges.append((leaf, n - 1))
    return Graph(n, edges)
