"""Vertex labelings and validity checks for the Roman-domination variants.

Three labeling shapes are supported:

* `DRLabeling` — values in {0,1,2,3} (double Roman).  Valid when every
  0-vertex has two neighbors labeled 2 or one labeled 3, and every 1-vertex
  has a neighbor labeled at least 2.
* `R2Labeling` — values in {0,1,2} (Roman {2}).  Valid when the labels on the
  neighborhood of every 0-vertex sum to at least 2.
* `RainbowLabeling` — values are subsets of {1,2} (2-rainbow).  Valid when
  the union of the neighbor sets of every ∅-vertex is exactly {1,2}.

The independent variants additionally require the positively labeled
(non-empty) vertices to form an independent set.  Validators return a
`ValidationResult`: truthy on success, and on failure carrying the first
violating vertex (smallest index) and a short clause tag.
"""

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    vertex: int | None = None
    clause: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class _Labeling:
    """Labels on vertices 0..n-1, compared by type and values."""

    __slots__ = ("values",)

    @property
    def order(self) -> int:
        return len(self.values)

    def positive_vertices(self) -> frozenset:
        return frozenset(v for v, x in enumerate(self.values) if x)

    def __eq__(self, other):
        return type(self) is type(other) and self.values == other.values

    def __hash__(self):
        return hash((type(self).__name__, self.values))


class DRLabeling(_Labeling):
    """Assignment of {0,1,2,3} to vertices 0..n-1; weight is the value sum."""

    __slots__ = ()
    allowed = (0, 1, 2, 3)

    def __init__(self, values):
        vals = tuple(int(x) for x in values)
        for v, x in enumerate(vals):
            if x not in self.allowed:
                raise ValueError(f"value {x} at vertex {v} not in {self.allowed}")
        self.values = vals

    def weight(self) -> int:
        return sum(self.values)

    def witness_text(self) -> str:
        """One 'v value' line per vertex."""
        return "\n".join(f"{v} {x}" for v, x in enumerate(self.values)) + "\n"

    def __repr__(self):
        return f"{type(self).__name__}({list(self.values)})"


class R2Labeling(DRLabeling):
    """Assignment of {0,1,2} to vertices 0..n-1."""

    __slots__ = ()
    allowed = (0, 1, 2)


class RainbowLabeling(_Labeling):
    """Assignment of subsets of {1,2} to vertices 0..n-1; weight sums set sizes."""

    __slots__ = ()

    def __init__(self, values):
        vals = []
        for v, s in enumerate(values):
            fs = frozenset(int(c) for c in s)
            if not fs <= frozenset((1, 2)):
                raise ValueError(f"label {set(s)} at vertex {v} not a subset of {{1, 2}}")
            vals.append(fs)
        self.values = tuple(vals)

    def weight(self) -> int:
        return sum(len(s) for s in self.values)

    def witness_text(self) -> str:
        """One 'v {..}' line per vertex, set literals with sorted elements."""
        lines = []
        for v, s in enumerate(self.values):
            lines.append(f"{v} {{{','.join(str(c) for c in sorted(s))}}}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RainbowLabeling({[set(s) for s in self.values]})"


# shape -> {label a rule applies to: (test on the neighbors' labels, clause)}
_RULES = {
    "drdf": {
        0: (lambda nb: 3 in nb or nb.count(2) >= 2, "undefended-zero"),
        1: (lambda nb: max(nb, default=0) >= 2, "undefended-one"),
    },
    "r2df": {0: (lambda nb: sum(nb) >= 2, "zero-sum-below-two")},
    "2rdf": {
        frozenset(): (lambda nb: frozenset().union(*nb) == {1, 2}, "rainbow-union-incomplete"),
    },
}


def _check(g: Graph, f, shape: str, independent: bool) -> ValidationResult:
    """First violation: a size mismatch, then (if `independent`) the first
    edge u < v with both ends positive, then the smallest vertex that breaks
    the rule of `shape` for its label."""
    if f.order != g.n:
        return ValidationResult(False, None, "size-mismatch")
    vals = f.values
    if independent:
        for u, v in g.edges:
            if vals[u] and vals[v]:
                return ValidationResult(False, u, "positive-set-not-independent")
    rules = _RULES[shape]
    for v, x in enumerate(vals):
        if x in rules:
            test, clause = rules[x]
            if not test([vals[u] for u in g.adjacency(v)]):
                return ValidationResult(False, v, clause)
    return ValidationResult(True)


def is_drdf(g: Graph, f: DRLabeling) -> ValidationResult:
    """Double Roman validity: 0 needs two 2s or a 3; 1 needs a neighbor >= 2."""
    return _check(g, f, "drdf", independent=False)


def is_idrdf(g: Graph, f: DRLabeling) -> ValidationResult:
    """is_drdf plus independence of the positive vertices."""
    return _check(g, f, "drdf", independent=True)


def is_r2df(g: Graph, f: R2Labeling) -> ValidationResult:
    """Roman {2} validity: labels on N(v) of every 0-vertex sum to >= 2."""
    return _check(g, f, "r2df", independent=False)


def is_ir2df(g: Graph, f: R2Labeling) -> ValidationResult:
    """is_r2df plus independence of the positive vertices."""
    return _check(g, f, "r2df", independent=True)


def is_2rdf(g: Graph, f: RainbowLabeling) -> ValidationResult:
    """2-rainbow validity: neighbor sets of every ∅-vertex union to {1,2}."""
    return _check(g, f, "2rdf", independent=False)


def is_i2rdf(g: Graph, f: RainbowLabeling) -> ValidationResult:
    """is_2rdf plus independence of the non-empty vertices."""
    return _check(g, f, "2rdf", independent=True)
