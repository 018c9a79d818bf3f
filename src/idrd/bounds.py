"""Inequality and identity records over the computed invariants, plus a
deterministic fuzzer that samples random graphs and checks every record.

Each record is named (B1-lower .. B12) and carries its inequality as an
anchor string written in invariant names; the anchor is also the formula
`check_bounds` evaluates.  Records inapplicable to the input (disconnected
for the connected-only ones, isolated vertices for the matching-based ones,
non-trees for the tree-only ones) are emitted with a skip marker instead of
being dropped, so reports always have one row per known bound.  `tight` is
reported only for "<=" rows, as lhs == rhs.
"""

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import Graph, random_graph, random_tree, serialize_edge_list
from .rng import SplitMix64
from .solvers import compute_invariants, resolve_limit

# Every bound record in report order: (name, anchor, applicability, relation).
_RECORDS = (
    ("B1-lower", "3*ir2dn <= 2*idrdn", "any", "<="),
    ("B1-upper", "idrdn <= 2*ir2dn", "any", "<="),
    ("B2", "ir2dn < idrdn", "any", "<"),
    ("B3", "idrdn <= 2*i2rdn", "any", "<="),
    ("B4", "ir2dn + idn <= idrdn", "connected", "<="),
    ("B5", "idrdn <= ir2dn + min_edge_cover", "no isolated vertices", "<="),
    ("B6-lower", "2*idn <= idrdn", "any", "<="),
    ("B6-upper", "idrdn <= 3*idn", "any", "<="),
    ("B7", "idrdn + (2*min_degree - 1)*packing <= 2*order", "connected", "<="),
    ("B8", "2*order + (max_degree - 2)*idn <= max_degree*idrdn", "max degree >= 1", "<="),
    ("B9", "idn + 1 <= ir2dn", "tree of order >= 2", "<="),
    ("B10-lower", "2*idn + 1 <= idrdn", "tree of order >= 2", "<="),
    ("B10-upper", "idrdn <= 3*idn", "tree of order >= 2", "<="),
    ("B11", "max_matching + min_edge_cover = order", "no isolated vertices", "="),
    ("B12", "(idrdn == 3) = (max_degree == order - 1)", "order >= 2", "="),
)

BOUND_NAMES = tuple(record[0] for record in _RECORDS)

# name -> (lhs, rhs) code of its anchor: the anchor is the only statement of
# a bound, split on its relation (B12's "==" has no single "=" between spaces).
_SIDES = {
    name: tuple(compile(side, anchor, "eval") for side in anchor.split(f" {relation} "))
    for name, anchor, _, relation in _RECORDS
}

# Globals of an anchor's evaluation: its names resolve in the invariant table.
_NO_BUILTINS = {"__builtins__": {}}

# The invariants the anchors are written in.
_BOUND_INVARIANTS = tuple(
    dict.fromkeys(name for sides in _SIDES.values() for code in sides for name in code.co_names)
)

GRAPH_CLASSES = ("general", "connected", "tree")

# Inequality records that small random graphs attain with equality often
# enough that a reasonable fuzzing run is expected to report a positive
# tight count for every name listed here.
TIGHTNESS_WITNESSED = (
    "B1-lower",
    "B1-upper",
    "B3",
    "B4",
    "B5",
    "B6-lower",
    "B6-upper",
    "B7",
    "B8",
    "B10-lower",
    "B10-upper",
)


class BoundCheck(NamedTuple):
    """One evaluated (or skipped) inequality record."""

    name: str
    anchor: str
    applicability: str
    relation: str  # "<=", "<", or "="
    lhs: int | None
    rhs: int | None
    holds: bool
    tight: bool
    skipped: bool = False
    skip_reason: str | None = None

    def to_dict(self) -> dict:
        return self._asdict()


# relation -> whether lhs and rhs satisfy it
_HOLDS = {"<=": operator.le, "<": operator.lt, "=": operator.eq}


def check_bounds(g: Graph) -> list:
    """Evaluate every known bound record on g (order >= 1).  The anchors
    read values only, so no witness is computed."""
    if g.n == 0:
        raise ValueError("bound checks need at least one vertex")
    table = compute_invariants(g, _BOUND_INVARIANTS, witnesses=False)
    # one walk, kept on g, answers both (and the tree route of the table)
    connected, tree = g.is_connected(), g.is_tree()
    tree_reason = None
    if not tree:
        tree_reason = "not a tree"
    elif g.n < 2:
        tree_reason = "single-vertex tree"
    skip_reasons = {
        "any": None,
        "connected": None if connected else "graph is disconnected",
        "no isolated vertices": table.not_applicable.get("min_edge_cover"),
        "max degree >= 1": None if g.m else "graph has no edges",
        "tree of order >= 2": tree_reason,
        "order >= 2": None if g.n >= 2 else "single-vertex graph",
    }
    out = []
    for record in _RECORDS:
        name, _, applicability, relation = record
        reason = skip_reasons[applicability]
        if reason is not None:
            out.append(BoundCheck(*record, None, None, True, False, True, reason))
            continue
        # the anchors are module constants; B12's sides are comparisons
        lhs, rhs = [int(eval(code, _NO_BUILTINS, table.entries)) for code in _SIDES[name]]
        tight = relation == "<=" and lhs == rhs
        out.append(BoundCheck(*record, lhs, rhs, _HOLDS[relation](lhs, rhs), tight))
    return out


@dataclass
class FuzzReport:
    """Outcome of a deterministic fuzzing run over one graph class."""

    graph_class: str
    seed: int
    trials: int
    violations: list = field(default_factory=list)  # (edge_list text, bound name)
    tight_counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "class": self.graph_class,
            "seed": self.seed,
            "trials": self.trials,
            "violations": [
                {"edge_list": edge_list, "bound": bound}
                for edge_list, bound in self.violations
            ],
            "tight_counts": dict(self.tight_counts),
        }


_CONNECT_ATTEMPTS = 1000


def fuzz(
    graph_class: str,
    max_n: int,
    trials: int,
    p_range: tuple = (0.2, 0.8),
    seed: int = 0,
) -> FuzzReport:
    """Sample `trials` graphs of the given class and check every bound.

    Deterministic for a fixed (class, max_n, trials, p_range, seed): vertex
    counts are uniform on [1, max_n], edge probabilities uniform on p_range,
    and each instance is built from a seed derived from the master stream.
    The connected class redraws until a connected sample appears, and
    raises ValueError after a large cap of draws; the tree class ignores
    p_range.
    """
    if graph_class not in GRAPH_CLASSES:
        raise ValueError(f"unknown graph class {graph_class!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    limit = resolve_limit()
    if not 1 <= max_n <= limit:
        raise ValueError(f"max_n must be in [1, {limit}] (exact-solver guard)")
    p_lo, p_hi = float(p_range[0]), float(p_range[1])
    if not (0.0 <= p_lo <= p_hi <= 1.0):
        raise ValueError("p_range must satisfy 0 <= p_lo <= p_hi <= 1")
    master = SplitMix64(seed)
    report = FuzzReport(graph_class, seed, trials)
    report.tight_counts = {name: 0 for name in BOUND_NAMES}
    for _ in range(trials):
        n = master.below(max_n) + 1
        if graph_class == "tree":
            g = random_tree(n, master.next_u64())
        else:
            p = p_lo + master.unit() * (p_hi - p_lo)
            for _attempt in range(_CONNECT_ATTEMPTS):
                g = random_graph(n, p, master.next_u64())
                if graph_class == "general" or g.is_connected():
                    break
            else:
                raise ValueError(
                    f"no connected sample on {n} vertices at p={p:.3f} "
                    f"after {_CONNECT_ATTEMPTS} attempts"
                )
        for rec in check_bounds(g):
            if rec.skipped:
                continue
            if not rec.holds:
                report.violations.append((serialize_edge_list(g), rec.name))
            if rec.tight:
                report.tight_counts[rec.name] += 1
    return report
