"""Inequality and identity records over the computed invariants, plus a
deterministic fuzzer that samples random graphs and checks every record.

Each record is named (B1-lower .. B12) and carries its inequality as an
anchor string written in invariant names.  Records inapplicable to the
input (disconnected for the connected-only ones, isolated vertices for the
matching-based ones, non-trees for the tree-only ones) are emitted with a
skip marker instead of being dropped, so reports always have one row per
known bound.  `tight` is reported only for "<=" rows, as lhs == rhs.
"""

import operator
from dataclasses import asdict, dataclass, field

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

# The invariants the records are written in.
_BOUND_INVARIANTS = (
    "order",
    "max_degree",
    "min_degree",
    "idn",
    "ir2dn",
    "i2rdn",
    "idrdn",
    "packing",
    "max_matching",
    "min_edge_cover",
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


@dataclass(frozen=True)
class BoundCheck:
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
        return asdict(self)


# relation -> whether lhs and rhs satisfy it
_HOLDS = {"<=": operator.le, "<": operator.lt, "=": operator.eq}


def check_bounds(g: Graph, size_limit: int | None = None) -> list:
    """Evaluate every known bound record on g (order >= 1)."""
    if g.n == 0:
        raise ValueError("bound checks need at least one vertex")
    table = compute_invariants(g, _BOUND_INVARIANTS, size_limit=size_limit)
    e = table.entries
    n, delta, big_delta = e["order"], e["min_degree"], e["max_degree"]
    i_val, ir2, i2r, idr = e["idn"], e["ir2dn"], e["i2rdn"], e["idrdn"]
    rho, alpha_p = e["packing"], e["max_matching"]
    isolated = "min_edge_cover" in table.not_applicable
    # Only read by the "no isolated vertices" records, which are skipped then.
    beta_p = e.get("min_edge_cover", 0)
    tree_reason = None
    if not g.is_tree():
        tree_reason = "not a tree"
    elif n < 2:
        tree_reason = "single-vertex tree"
    skip_reasons = {
        "any": None,
        "connected": None if g.is_connected() else "graph is disconnected",
        "no isolated vertices": "graph has an isolated vertex" if isolated else None,
        "max degree >= 1": None if big_delta >= 1 else "graph has no edges",
        "tree of order >= 2": tree_reason,
        "order >= 2": None if n >= 2 else "single-vertex graph",
    }
    sides = {
        "B1-lower": (3 * ir2, 2 * idr),
        "B1-upper": (idr, 2 * ir2),
        "B2": (ir2, idr),
        "B3": (idr, 2 * i2r),
        "B4": (ir2 + i_val, idr),
        "B5": (idr, ir2 + beta_p),
        "B6-lower": (2 * i_val, idr),
        "B6-upper": (idr, 3 * i_val),
        "B7": (idr + (2 * delta - 1) * rho, 2 * n),
        "B8": (2 * n + (big_delta - 2) * i_val, big_delta * idr),
        "B9": (i_val + 1, ir2),
        "B10-lower": (2 * i_val + 1, idr),
        "B10-upper": (idr, 3 * i_val),
        "B11": (alpha_p + beta_p, n),
        "B12": (int(idr == 3), int(big_delta == n - 1)),
    }
    out = []
    for record in _RECORDS:
        name, _, applicability, relation = record
        reason = skip_reasons[applicability]
        if reason is not None:
            out.append(BoundCheck(*record, None, None, True, False, True, reason))
            continue
        lhs, rhs = sides[name]
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
    size_limit: int | None = None,
) -> FuzzReport:
    """Sample `trials` graphs of the given class and check every bound.

    Deterministic for a fixed (class, max_n, trials, p_range, seed): vertex
    counts are uniform on [1, max_n], edge probabilities uniform on p_range,
    and each instance is built from a seed derived from the master stream.
    The connected class redraws (up to a large cap) until a connected
    sample appears; the tree class ignores p_range.
    """
    if graph_class not in GRAPH_CLASSES:
        raise ValueError(f"unknown graph class {graph_class!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    limit = resolve_limit(size_limit)
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
        elif graph_class == "general":
            p = p_lo + master.unit() * (p_hi - p_lo)
            g = random_graph(n, p, master.next_u64())
        else:
            p = p_lo + master.unit() * (p_hi - p_lo)
            g = None
            for _attempt in range(_CONNECT_ATTEMPTS):
                cand = random_graph(n, p, master.next_u64())
                if cand.is_connected():
                    g = cand
                    break
            if g is None:
                raise RuntimeError(
                    f"no connected sample on {n} vertices at p={p:.3f} "
                    f"after {_CONNECT_ATTEMPTS} attempts"
                )
        for rec in check_bounds(g, size_limit):
            if rec.skipped:
                continue
            if not rec.holds:
                report.violations.append((serialize_edge_list(g), rec.name))
            if rec.tight:
                report.tight_counts[rec.name] += 1
    return report
