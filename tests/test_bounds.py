"""Bound records on single graphs and the deterministic fuzzer."""

from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings

from idrd import (
    DEFAULT_SIZE_LIMIT,
    INVARIANT_NAMES,
    SizeLimitError,
    bounds,
    build_graph,
    graph,
    idn,
    idrdn,
    ir2dn,
    random_tree,
    solvers,
)
from idrd.bounds import (
    _BOUND_INVARIANTS,
    BOUND_NAMES,
    GRAPH_CLASSES,
    TIGHTNESS_WITNESSED,
    BoundCheck,
    FuzzReport,
    check_bounds,
    fuzz,
)
from idrd.families import FamilySpec, generate

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    graphs,
    path_graph,
    star_graph,
)


def by_name(records):
    assert [r.name for r in records] == list(BOUND_NAMES)
    return {r.name: r for r in records}


def test_every_record_is_emitted_in_fixed_order():
    records = check_bounds(path_graph(5))
    assert len(records) == 15
    table = by_name(records)
    assert all(isinstance(r, BoundCheck) for r in records)
    assert table["B2"].relation == "<"
    assert table["B11"].relation == "="
    assert table["B12"].relation == "="
    d = records[0].to_dict()
    assert set(d) == {
        "name", "anchor", "applicability", "relation", "lhs", "rhs",
        "holds", "tight", "skipped", "skip_reason",
    }


def test_anchor_strings_are_stable():
    table = by_name(check_bounds(path_graph(4)))
    assert table["B1-lower"].anchor == "3*ir2dn <= 2*idrdn"
    assert table["B1-upper"].anchor == "idrdn <= 2*ir2dn"
    assert table["B2"].anchor == "ir2dn < idrdn"
    assert table["B3"].anchor == "idrdn <= 2*i2rdn"
    assert table["B4"].anchor == "ir2dn + idn <= idrdn"
    assert table["B5"].anchor == "idrdn <= ir2dn + min_edge_cover"
    assert table["B6-lower"].anchor == "2*idn <= idrdn"
    assert table["B6-upper"].anchor == "idrdn <= 3*idn"
    assert table["B7"].anchor == "idrdn + (2*min_degree - 1)*packing <= 2*order"
    assert table["B8"].anchor == "2*order + (max_degree - 2)*idn <= max_degree*idrdn"
    assert table["B9"].anchor == "idn + 1 <= ir2dn"
    assert table["B10-lower"].anchor == "2*idn + 1 <= idrdn"
    assert table["B10-upper"].anchor == "idrdn <= 3*idn"
    assert table["B11"].anchor == "max_matching + min_edge_cover = order"
    assert table["B12"].anchor == "(idrdn == 3) = (max_degree == order - 1)"


def test_anchors_name_only_table_invariants():
    assert set(_BOUND_INVARIANTS) == {
        "order", "max_degree", "min_degree", "idn", "ir2dn", "i2rdn", "idrdn",
        "packing", "max_matching", "min_edge_cover",
    }
    assert set(_BOUND_INVARIANTS) <= set(INVARIANT_NAMES)


def test_readme_bounds_table_is_the_record_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Bounds", 1)[1].split("\n#", 1)[0]
    rows = [
        tuple(cell.strip().strip("`").replace("≥", ">=") for cell in line.split("|")[1:-1])
        for line in section.splitlines()
        if line.startswith("| B")
    ]
    assert rows == [(r.name, r.anchor, r.applicability) for r in check_bounds(path_graph(4))]


def test_known_sharp_instances():
    table = by_name(check_bounds(generate(FamilySpec("complete_multipartite", (3, 3)))))
    assert table["B5"].lhs == table["B5"].rhs == 6
    assert table["B5"].tight

    table = by_name(check_bounds(complete_graph(5)))
    assert table["B7"].lhs == table["B7"].rhs == 10
    assert table["B7"].tight

    table = by_name(check_bounds(cycle_graph(6)))
    assert table["B8"].lhs == table["B8"].rhs == 12
    assert table["B8"].tight

    table = by_name(check_bounds(generate(FamilySpec("complete_multipartite", (2, 2, 4)))))
    assert table["B6-lower"].lhs == table["B6-lower"].rhs == 4
    assert table["B6-lower"].tight


def _members(kind, count, keep=lambda params: True):
    """Every member of a family kind with `count` parameters up to the guard's
    default order, optionally filtered on its parameters."""
    for params in product(range(DEFAULT_SIZE_LIMIT + 1), repeat=count):
        try:
            spec = FamilySpec(kind, params)
        except ValueError:
            continue
        if spec.order <= DEFAULT_SIZE_LIMIT and keep(spec.params):
            yield spec


def _multipartite(keep=lambda parts: True):
    return [spec for count in (2, 3) for spec in _members("complete_multipartite", count, keep)]


def test_records_are_sharp_on_whole_families():
    # equality at every member of each family, at every order the guard allows
    # (the README's "sharp on" paragraph); 2- and 3-part multipartite graphs
    stars = list(_members("star", 1))
    complete = list(_members("complete", 1, lambda p: p[0] >= 2))
    double_stars = list(_members("double_star", 2))
    subdivided_stars = list(_members("subdivided_star", 2))
    subdivided_double_stars = list(_members("subdivided_double_star", 2))
    coronas = list(_members("corona_of_star", 1))
    one_part = _multipartite(lambda p: p[0] == 1)
    wide_parts = _multipartite(lambda p: p[0] >= 2)
    balanced = list(_members("complete_multipartite", 2, lambda p: p[0] == p[1]))
    sharp_on = {
        "B1-lower": stars + one_part,
        "B1-upper": subdivided_double_stars + wide_parts,
        "B3": subdivided_double_stars + wide_parts,
        "B4": [FamilySpec("complete", (1,))] + complete + stars + double_stars + coronas
        + one_part + wide_parts,
        "B5": subdivided_double_stars + coronas + balanced,
        "B6-lower": wide_parts,
        "B6-upper": stars + one_part,
        "B7": complete,
        "B8": complete + stars + one_part,
        "B9": stars + double_stars + subdivided_stars + subdivided_double_stars + coronas,
        "B10-lower": stars + double_stars + coronas,
        "B10-upper": stars,
    }
    tight = {}
    for specs in sharp_on.values():
        for spec in specs:
            if spec not in tight:
                tight[spec] = {r.name for r in check_bounds(generate(spec)) if r.tight}
    for name, specs in sharp_on.items():
        assert specs and [spec.text() for spec in specs if name not in tight[spec]] == [], name
    assert len(tight) == 909


# (evaluated, tight) of each record over every labeled graph with 1 <= n <= 5
_SMALL_GRAPH_COUNTS = {
    "B1-lower": (1099, 339), "B1-upper": (1099, 123), "B2": (1099, 0),
    "B3": (1099, 123), "B4": (772, 712), "B5": (814, 79), "B6-lower": (1099, 63),
    "B6-upper": (1099, 399), "B7": (772, 4), "B8": (1094, 330), "B9": (145, 145),
    "B10-lower": (145, 85), "B10-upper": (145, 73), "B11": (814, 0), "B12": (1098, 0),
}


def test_every_bound_on_every_small_graph():
    # all 1099 labeled graphs with 1 <= n <= 5; B12 holds in both directions:
    # idrdn = 3 exactly on the 284 graphs with a dominating vertex
    counts = {name: [0, 0] for name in BOUND_NAMES}
    b12 = [0, 0]
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for rec in check_bounds(g):
                assert rec.holds, (rec.name, n, g.edges)
                if not rec.skipped:
                    counts[rec.name][0] += 1
                    counts[rec.name][1] += rec.tight
                    if rec.name == "B12":
                        b12[rec.lhs] += 1
    assert {name: tuple(c) for name, c in counts.items()} == _SMALL_GRAPH_COUNTS
    assert b12 == [814, 284]


def test_skip_reasons_for_an_edgeless_graph():
    table = by_name(check_bounds(empty_graph(3)))
    assert table["B4"].skipped and table["B4"].skip_reason == "graph is disconnected"
    assert table["B7"].skipped and table["B7"].skip_reason == "graph is disconnected"
    assert table["B5"].skipped and table["B5"].skip_reason == "graph has an isolated vertex"
    assert table["B11"].skipped and table["B11"].skip_reason == "graph has an isolated vertex"
    assert table["B8"].skipped and table["B8"].skip_reason == "graph has no edges"
    assert table["B9"].skipped and table["B9"].skip_reason == "not a tree"
    assert not table["B12"].skipped
    assert table["B12"].holds
    for rec in table.values():
        if rec.skipped:
            assert rec.holds and rec.lhs is None and rec.rhs is None


def test_skip_reasons_for_a_single_vertex():
    table = by_name(check_bounds(path_graph(1)))
    assert not table["B4"].skipped
    assert table["B4"].tight
    assert table["B9"].skipped and table["B9"].skip_reason == "single-vertex tree"
    assert table["B10-lower"].skip_reason == "single-vertex tree"
    assert table["B12"].skipped and table["B12"].skip_reason == "single-vertex graph"
    assert table["B5"].skip_reason == "graph has an isolated vertex"
    assert table["B8"].skip_reason == "graph has no edges"


def test_tree_rows_skip_non_trees():
    table = by_name(check_bounds(cycle_graph(5)))
    for name in ("B9", "B10-lower", "B10-upper"):
        assert table[name].skipped and table[name].skip_reason == "not a tree"
    table = by_name(check_bounds(path_graph(6)))
    for name in ("B9", "B10-lower", "B10-upper"):
        assert not table[name].skipped
        assert table[name].holds


def _count_walks(monkeypatch):
    """Count the breadth-first walks of the connectivity test and the tree DPs."""
    walks = []
    for module in (graph, solvers):
        def counted(*args, original=module.bfs):
            walks.append(args)
            return original(*args)
        monkeypatch.setattr(module, "bfs", counted)
    return walks


def test_check_bounds_walks_each_tree_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    for seed in range(1, 4):
        walks.clear()
        records = by_name(check_bounds(random_tree(18, seed)))
        assert len(walks) == 1
        assert not records["B4"].skipped and not records["B9"].skipped
    # n - 1 edges but disconnected: the one walk also answers connectivity
    walks.clear()
    records = by_name(check_bounds(build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])))
    assert len(walks) == 1
    assert records["B4"].skip_reason == "graph is disconnected"
    assert records["B9"].skip_reason == "not a tree"
    walks.clear()
    report = fuzz("tree", 18, 25, seed=3)
    assert len(walks) == report.trials == 25 and not report.violations
    # a connected draw is walked once, by the draw loop and check_bounds together
    walks.clear()
    report = fuzz("connected", 18, 20, seed=5)
    assert len(walks) == report.trials == 20 and not report.violations


def test_equality_records_hold_without_tightness():
    table = by_name(check_bounds(path_graph(2)))
    assert table["B11"].lhs == table["B11"].rhs == 2
    assert table["B11"].holds
    assert not table["B11"].tight
    assert table["B12"].lhs == table["B12"].rhs == 1
    assert not table["B12"].tight
    assert table["B2"].holds
    assert not table["B2"].tight


def test_check_bounds_rejects_the_empty_graph():
    with pytest.raises(ValueError, match="at least one vertex"):
        check_bounds(empty_graph(0))


def test_check_bounds_respects_the_size_guard(monkeypatch):
    with pytest.raises(SizeLimitError):
        check_bounds(path_graph(25))
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "30")
    assert len(check_bounds(path_graph(25))) == 15


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_every_bound_holds_on_random_graphs(g):
    for rec in check_bounds(g):
        assert rec.holds, (rec.name, g.edges)
        if rec.skipped:
            assert rec.skip_reason
        elif rec.relation == "<=":
            assert rec.tight == (rec.lhs == rec.rhs)
        else:
            assert not rec.tight


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_strict_gap_between_ir2dn_and_idrdn(g):
    assert ir2dn(g)[0] + 1 <= idrdn(g)[0]


def test_fuzz_is_deterministic():
    a = fuzz("general", 7, 40, seed=5)
    b = fuzz("general", 7, 40, seed=5)
    assert a.to_dict() == b.to_dict()
    c = fuzz("general", 7, 40, seed=6)
    assert c.to_dict() != a.to_dict()


def test_fuzz_finds_no_violations_on_each_class():
    for graph_class, max_n, trials, seed in (
        ("general", 7, 60, 1),
        ("connected", 8, 60, 42),
        ("tree", 10, 60, 7),
    ):
        report = fuzz(graph_class, max_n, trials, seed=seed)
        assert report.violations == []
        assert report.graph_class == graph_class
        assert report.trials == trials
        assert set(report.tight_counts) == set(BOUND_NAMES)
        assert any(v > 0 for v in report.tight_counts.values())


# Tight counts of a seeded run per class.  A change to any invariant value
# on these 600 graphs moves them.
@pytest.mark.parametrize("graph_class, counts", [
    ("connected", {
        "B1-lower": 107, "B1-upper": 22, "B2": 0, "B3": 18, "B4": 188, "B5": 28,
        "B6-lower": 13, "B6-upper": 117, "B7": 20, "B8": 81, "B9": 47,
        "B10-lower": 46, "B10-upper": 35, "B11": 0, "B12": 0,
    }),
    ("general", {
        "B1-lower": 73, "B1-upper": 36, "B2": 0, "B3": 34, "B4": 151, "B5": 14,
        "B6-lower": 28, "B6-upper": 83, "B7": 14, "B8": 56, "B9": 20,
        "B10-lower": 20, "B10-upper": 14, "B11": 0, "B12": 0,
    }),
    ("tree", {
        "B1-lower": 49, "B1-upper": 32, "B2": 0, "B3": 32, "B4": 160, "B5": 49,
        "B6-lower": 14, "B6-upper": 76, "B7": 5, "B8": 34, "B9": 71,
        "B10-lower": 54, "B10-upper": 76, "B11": 0, "B12": 0,
    }),
])
def test_fuzz_tight_counts_are_pinned(graph_class, counts):
    assert fuzz(graph_class, 12, 200, seed=7).tight_counts == counts


def test_fuzz_checks_each_trial_through_the_module_global(monkeypatch):
    # the benchmark tracer wraps `bounds.check_bounds` and counts its calls
    calls = []
    original = bounds.check_bounds

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(bounds, "check_bounds", counting)
    for graph_class in GRAPH_CLASSES:
        calls.clear()
        report = fuzz(graph_class, 9, 23, seed=4)
        assert len(calls) == report.trials == 23


def test_bound_check_shape():
    rec = check_bounds(path_graph(4))[0]
    assert isinstance(rec, BoundCheck)
    assert list(rec.to_dict()) == [
        "name", "anchor", "applicability", "relation", "lhs", "rhs",
        "holds", "tight", "skipped", "skip_reason",
    ]
    with pytest.raises(AttributeError):
        rec.holds = False
    bare = BoundCheck("B2", "ir2dn < idrdn", "any", "<", 3, 4, True, False)
    assert (bare.skipped, bare.skip_reason) == (False, None)
    assert bare == BoundCheck(*bare.to_dict().values())


def test_fuzz_report_shape():
    report = fuzz("tree", 6, 10, seed=3)
    d = report.to_dict()
    assert set(d) == {"class", "seed", "trials", "violations", "tight_counts"}
    assert d["class"] == "tree"
    assert d["seed"] == 3
    assert d["trials"] == 10
    assert d["violations"] == []
    assert isinstance(report, FuzzReport)


def test_fuzz_without_a_connected_sample_raises():
    message = "no connected sample on 2 vertices at p=0.000 after 1000 attempts"
    with pytest.raises(ValueError, match=f"^{message}$"):
        fuzz("connected", 6, 3, p_range=(0.0, 0.0))
    # the general class takes the same draws without the connectivity test
    assert fuzz("general", 6, 3, p_range=(0.0, 0.0)).violations == []


def test_fuzz_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown graph class"):
        fuzz("bipartite", 6, 5)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        fuzz("general", 6, 0)
    with pytest.raises(ValueError, match=r"max_n must be in \[1, 24\]"):
        fuzz("general", 25, 5)
    with pytest.raises(ValueError, match=r"max_n must be in \[1, 24\]"):
        fuzz("general", 0, 5)
    with pytest.raises(ValueError, match="p_range"):
        fuzz("general", 6, 5, p_range=(0.8, 0.2))
    with pytest.raises(ValueError, match="p_range"):
        fuzz("general", 6, 5, p_range=(-0.1, 0.5))


def test_graph_classes_constant():
    assert GRAPH_CLASSES == ("general", "connected", "tree")
    assert len(BOUND_NAMES) == 15


def test_tightness_witness_list_names_attainable_rows():
    assert len(TIGHTNESS_WITNESSED) == 11
    assert set(TIGHTNESS_WITNESSED) <= set(BOUND_NAMES)
    table = {r.name: r for r in check_bounds(path_graph(4))}
    for name in TIGHTNESS_WITNESSED:
        assert table[name].relation == "<="
