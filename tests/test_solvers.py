"""Exact solvers against definition-level brute force, plus guard behavior."""

import time

import pytest
from hypothesis import given, settings

from idrd import (
    INVARIANT_NAMES,
    SizeLimitError,
    DRLabeling,
    R2Labeling,
    RainbowLabeling,
    build_graph,
    compute_invariants,
    domination_number,
    forced_threes,
    gamma_dr,
    gamma_r2,
    i2rdn,
    idn,
    idrdn,
    ir2dn,
    is_2rdf,
    is_drdf,
    is_i2rdf,
    is_idrdf,
    is_ir2df,
    is_r2df,
    max_matching,
    maximal_independent_sets,
    min_edge_cover,
    packing_number,
    random_graph,
    random_tree,
    tree_idn,
    tree_idrdn,
    tree_ir2dn,
)
from idrd.solvers import _THRESHOLD, _threshold_search

from conftest import (
    complete_graph,
    cycle_graph,
    double_star,
    empty_graph,
    graphs,
    path_graph,
    star_graph,
    trees,
)

import oracles


# ---------------------------------------------------------------------------
# maximal independent sets
# ---------------------------------------------------------------------------


@given(graphs(min_n=0, max_n=7))
def test_mis_enumeration_matches_brute(g):
    got = list(maximal_independent_sets(g))
    assert len(got) == len(set(got))
    assert set(got) == set(oracles.brute_maximal_independent_sets(g.n, g.edges))


def test_mis_enumeration_is_deterministic():
    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    assert list(maximal_independent_sets(g)) == list(maximal_independent_sets(g))
    assert list(maximal_independent_sets(empty_graph(0))) == [frozenset()]
    assert list(maximal_independent_sets(empty_graph(3))) == [frozenset({0, 1, 2})]


def test_forced_threes_on_a_double_star():
    g = double_star(2, 2)
    assert forced_threes(g, {0, 4, 5}) == frozenset({0})
    assert forced_threes(g, {2, 3, 4, 5}) == frozenset()
    with pytest.raises(ValueError, match="maximal independent set"):
        forced_threes(g, {0, 1})
    with pytest.raises(ValueError, match="maximal independent set"):
        forced_threes(g, {0})


# ---------------------------------------------------------------------------
# independent invariants vs brute force
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_idrdn_matches_brute(g):
    value, witness = idrdn(g)
    assert value == oracles.brute_idrdn(g.n, g.edges)
    assert is_idrdf(g, witness)
    assert witness.weight() == value


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_idn_matches_brute(g):
    value, witness = idn(g)
    assert value == oracles.brute_idn(g.n, g.edges)
    assert g.is_independent(witness)
    assert g.is_dominating(witness)
    assert len(witness) == value


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_ir2dn_matches_brute(g):
    value, witness = ir2dn(g)
    assert value == oracles.brute_ir2dn(g.n, g.edges)
    assert is_ir2df(g, witness)
    assert witness.weight() == value


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_i2rdn_matches_brute(g):
    value, witness = i2rdn(g)
    assert value == oracles.brute_i2rdn(g.n, g.edges)
    assert is_i2rdf(g, witness)
    assert witness.weight() == value


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_gamma_solvers_match_brute(g):
    assert domination_number(g) == oracles.brute_gamma(g.n, g.edges)
    assert gamma_r2(g) == oracles.brute_gamma_r2(g.n, g.edges)
    assert gamma_dr(g) == oracles.brute_gamma_dr(g.n, g.edges)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_packing_matches_brute(g):
    value, witness = packing_number(g)
    assert value == oracles.brute_packing(g.n, g.edges)
    assert len(witness) == value


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_matching_matches_brute(g):
    assert max_matching(g) == oracles.brute_max_matching(g.n, g.edges)


def test_solvers_need_a_vertex():
    g = empty_graph(0)
    for solver in (idrdn, idn, ir2dn, i2rdn, domination_number, gamma_r2,
                   gamma_dr, packing_number):
        with pytest.raises(ValueError, match="at least one vertex"):
            solver(g)


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


def test_idrdn_on_paths_cycles_and_cliques():
    assert [idrdn(path_graph(n))[0] for n in range(1, 11)] == [
        2, 3, 3, 5, 6, 6, 8, 9, 9, 11]
    assert [idrdn(cycle_graph(n))[0] for n in range(3, 11)] == [
        3, 4, 6, 6, 8, 8, 9, 10]
    assert [idrdn(complete_graph(n))[0] for n in range(1, 6)] == [2, 3, 3, 3, 3]
    assert [idrdn(star_graph(l))[0] for l in range(1, 5)] == [3, 3, 3, 3]


def test_invariant_profile_of_small_named_graphs():
    table = {
        "P4": (path_graph(4), 2, 2, 3, 3, 3, 5, 5, 2, 2),
        "P5": (path_graph(5), 2, 2, 3, 3, 3, 6, 6, 2, 2),
        "P7": (path_graph(7), 3, 3, 4, 4, 4, 8, 8, 3, 3),
        "C4": (cycle_graph(4), 2, 2, 2, 2, 2, 4, 4, 1, 2),
        "C5": (cycle_graph(5), 2, 2, 3, 4, 4, 6, 6, 1, 2),
        "C6": (cycle_graph(6), 2, 2, 3, 3, 4, 6, 6, 2, 3),
        "C7": (cycle_graph(7), 3, 3, 4, 5, 5, 8, 8, 2, 3),
    }
    for name, (g, gam, i, gr2, ir2, i2r, gdr, idr, rho, mm) in table.items():
        assert domination_number(g) == gam, name
        assert idn(g)[0] == i, name
        assert gamma_r2(g) == gr2, name
        assert ir2dn(g)[0] == ir2, name
        assert i2rdn(g)[0] == i2r, name
        assert gamma_dr(g) == gdr, name
        assert idrdn(g)[0] == idr, name
        assert packing_number(g)[0] == rho, name
        assert max_matching(g) == mm, name


def test_double_star_profile():
    g = double_star(2, 2)
    assert idn(g)[0] == 3
    assert ir2dn(g)[0] == 4
    assert idrdn(g)[0] == 7
    assert i2rdn(g)[0] == 4


def test_edgeless_graphs():
    g = empty_graph(5)
    assert idn(g)[0] == 5
    assert idrdn(g)[0] == 10
    assert ir2dn(g)[0] == 5
    assert i2rdn(g)[0] == 5
    assert packing_number(g)[0] == 5
    assert domination_number(g) == 5
    assert max_matching(g) == 0


def test_single_vertex_and_edge():
    k1 = path_graph(1)
    assert idrdn(k1)[0] == 2
    assert gamma_dr(k1) == 2
    assert idn(k1)[0] == 1
    assert domination_number(k1) == 1
    k2 = path_graph(2)
    assert idrdn(k2)[0] == 3
    assert gamma_dr(k2) == 3
    assert gamma_r2(k2) == 2
    assert ir2dn(k2)[0] == 2


# ---------------------------------------------------------------------------
# witnesses and tie-breaking
# ---------------------------------------------------------------------------


def test_witnesses_break_ties_to_the_smallest_positive_set():
    c4 = cycle_graph(4)
    assert idrdn(c4)[1] == DRLabeling([2, 0, 2, 0])
    assert idn(c4)[1] == frozenset({0, 2})
    assert ir2dn(c4)[1] == R2Labeling([1, 0, 1, 0])
    assert i2rdn(c4)[1] == RainbowLabeling([{1}, set(), {2}, set()])
    assert packing_number(path_graph(7))[1] == frozenset({0, 3, 6})


def test_forced_vertices_carry_the_strong_label():
    g = star_graph(3)
    value, witness = idrdn(g)
    assert value == 3
    assert witness == DRLabeling([3, 0, 0, 0])
    value, witness = ir2dn(g)
    assert value == 2
    assert witness == R2Labeling([2, 0, 0, 0])


def test_branch_and_bound_witnesses_are_valid():
    for g in (path_graph(6), cycle_graph(7), double_star(2, 3)):
        table = compute_invariants(g)
        e = table.entries
        w = table.witnesses
        assert g.is_dominating(set(w["gamma"])) and len(w["gamma"]) == e["gamma"]
        assert is_r2df(g, w["gamma_r2"]) and w["gamma_r2"].weight() == e["gamma_r2"]
        assert is_drdf(g, w["gamma_dr"]) and w["gamma_dr"].weight() == e["gamma_dr"]


# Branch-and-bound witnesses pinned.  The lower bound may cut only subtrees
# that cannot beat the incumbent, so a sharper bound must leave the sequence
# of incumbent updates, and with it these witnesses, unchanged.
# random_graph(12, 0.15, 2) has components of 5, 2 and five times 1 vertices.
@pytest.mark.parametrize("g, gamma, r2, dr", [
    (
        build_graph(10, [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        ]),
        (0, 2, 6),
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
        [2, 0, 2, 0, 0, 0, 0, 0, 2, 2],
    ),
    (
        random_graph(12, 0.15, 2),
        (0, 2, 4, 5, 6, 7, 8, 11),
        [1, 0, 2, 0, 1, 1, 1, 1, 1, 0, 0, 2],
        [2, 0, 3, 0, 2, 2, 2, 2, 2, 0, 0, 3],
    ),
    (
        random_graph(16, 0.2, 3),
        (7, 11, 12, 14),
        [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 2, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 3, 0, 3, 0],
    ),
    (
        random_graph(20, 0.15, 5),
        (1, 6, 8, 12, 13, 17),
        [1, 1, 1, 0, 0, 0, 2, 0, 2, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0],
        [0, 2, 2, 0, 0, 0, 3, 0, 3, 0, 0, 0, 3, 2, 0, 0, 0, 0, 2, 0],
    ),
    (
        random_graph(24, 0.1, 1258),
        (0, 1, 4, 8, 9, 13, 14, 15, 18, 23),
        [0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1],
        [3, 0, 0, 3, 0, 0, 3, 0, 0, 2, 2, 3, 0, 2, 0, 3, 0, 0, 2, 0, 0, 0, 0, 2],
    ),
])
def test_threshold_witnesses_are_pinned(g, gamma, r2, dr):
    witnesses = compute_invariants(g, ["gamma", "gamma_r2", "gamma_dr"]).witnesses
    assert witnesses["gamma"] == gamma
    assert witnesses["gamma_r2"] == R2Labeling(r2)
    assert witnesses["gamma_dr"] == DRLabeling(dr)


# Each oracle over the search's own label set: {0, 2, 3} for gamma_dr, whose
# equality with {0, 1, 2, 3} is tested on its own below.
_BRUTE_THRESHOLD = {
    "gamma": oracles.brute_gamma,
    "gamma_r2": oracles.brute_gamma_r2,
    "gamma_dr": lambda n, edges: oracles.brute_gamma_dr(n, edges, allowed=(0, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(_THRESHOLD))
@settings(max_examples=40, deadline=None)
@given(g=graphs(max_n=8))
def test_threshold_bound_alone_is_sound(name, g):
    # Every vertex on the largest label is valid but far from optimal, so the
    # lower bound, not the incumbent, does the pruning.
    labels, k, _ = _THRESHOLD[name]
    value, vals = _threshold_search(g, labels, k, [max(labels)] * g.n)
    assert value == _BRUTE_THRESHOLD[name](g.n, g.edges)
    assert sum(vals) == value
    adj = oracles.adjacency(g.n, g.edges)
    assert all(x or sum(vals[u] for u in adj[v]) >= k for v, x in enumerate(vals))


def test_plain_numbers_at_order_24_are_fast():
    g = random_graph(24, 0.1, 1258)
    start = time.perf_counter()
    entries = compute_invariants(g, ["gamma", "gamma_r2", "gamma_dr"]).entries
    assert time.perf_counter() - start < 5.0
    assert (entries["gamma"], entries["gamma_r2"], entries["gamma_dr"]) == (10, 14, 25)


# ---------------------------------------------------------------------------
# matchings and edge covers
# ---------------------------------------------------------------------------


def test_petersen_graph_matching():
    petersen = build_graph(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ])
    assert max_matching(petersen) == 5
    assert min_edge_cover(petersen) == 5


def test_min_edge_cover_values_and_errors():
    assert min_edge_cover(path_graph(2)) == 1
    assert min_edge_cover(path_graph(5)) == 3
    assert min_edge_cover(star_graph(4)) == 4
    assert min_edge_cover(complete_graph(4)) == 2
    with pytest.raises(ValueError, match="isolated"):
        min_edge_cover(empty_graph(3))
    with pytest.raises(ValueError, match="isolated"):
        min_edge_cover(build_graph(3, [(0, 1)]))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_edge_cover_complements_matching(g):
    if g.has_isolated_vertex():
        with pytest.raises(ValueError, match="isolated"):
            min_edge_cover(g)
    else:
        assert min_edge_cover(g) == g.n - max_matching(g)


def test_edge_cover_witness_covers_every_vertex():
    for g in (path_graph(5), cycle_graph(7), star_graph(4), complete_graph(5)):
        table = compute_invariants(g, which=["min_edge_cover"])
        cover = table.witnesses["min_edge_cover"]
        assert len(cover) == table.entries["min_edge_cover"]
        assert set(cover) <= set(g.edges)
        touched = {v for e in cover for v in e}
        assert touched == set(range(g.n))


def test_matching_witness_is_a_matching():
    for g in (path_graph(6), cycle_graph(5), complete_graph(6)):
        table = compute_invariants(g, which=["max_matching"])
        edges = table.witnesses["max_matching"]
        assert len(edges) == table.entries["max_matching"]
        seen = [v for e in edges for v in e]
        assert len(seen) == len(set(seen))
        assert set(edges) <= set(g.edges)


def test_matching_skips_isolated_vertices():
    # Searching from each isolated vertex would cost O(n^2): seconds here.
    g = empty_graph(16000)
    start = time.perf_counter()
    assert max_matching(g) == 0
    table = compute_invariants(g, ["max_matching"])
    assert time.perf_counter() - start < 1.0
    assert table.entries == {"max_matching": 0}
    assert table.witnesses == {"max_matching": ()}


def test_matching_is_fast_on_large_trees():
    # A search that reset length-n arrays would cost O(n^2): seconds here.
    t = random_tree(40000, 11)
    parent = [-1] * t.n
    order = [0]
    for v in order:
        for u in t.adjacency(v):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    matched = [False] * t.n
    greedy = 0
    for v in reversed(order[1:]):
        if not matched[v] and not matched[parent[v]]:
            matched[v] = matched[parent[v]] = True
            greedy += 1
    start = time.perf_counter()
    assert max_matching(t) == greedy
    table = compute_invariants(t, ["max_matching", "min_edge_cover"])
    assert time.perf_counter() - start < 1.0
    assert table.entries == {"max_matching": greedy, "min_edge_cover": t.n - greedy}


# Matching and edge-cover witnesses pinned on graphs with odd cycles.  Every
# graph but the Petersen graph makes the search contract a blossom (the
# Petersen graph is matched by the greedy start alone).
@pytest.mark.parametrize("g, matching, cover", [
    (
        build_graph(10, [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        ]),
        ((0, 1), (2, 3), (4, 9), (5, 7), (6, 8)),
        ((0, 1), (2, 3), (4, 9), (5, 7), (6, 8)),
    ),
    (
        # two triangles joined by the path 2-3-4
        build_graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]),
        ((0, 1), (2, 3), (4, 5)),
        ((0, 1), (2, 3), (4, 5), (4, 6)),
    ),
    (
        random_graph(16, 0.2, 3),
        ((0, 4), (1, 14), (2, 6), (3, 9), (5, 12), (7, 10), (8, 11)),
        ((0, 4), (1, 14), (2, 6), (3, 9), (5, 12), (7, 10), (7, 13), (8, 11),
         (11, 15)),
    ),
    (
        random_graph(20, 0.2, 5),
        ((0, 19), (1, 5), (2, 17), (3, 13), (4, 10), (6, 16), (7, 8), (9, 18),
         (11, 15), (12, 14)),
        ((0, 19), (1, 5), (2, 17), (3, 13), (4, 10), (6, 16), (7, 8), (9, 18),
         (11, 15), (12, 14)),
    ),
    (
        random_graph(24, 0.1, 4),
        ((0, 22), (1, 10), (2, 21), (3, 23), (4, 18), (5, 19), (6, 9), (7, 16),
         (8, 12), (11, 13), (15, 17)),
        ((0, 22), (1, 10), (2, 21), (3, 23), (4, 18), (5, 19), (6, 9), (7, 16),
         (8, 12), (8, 20), (11, 13), (14, 22), (15, 17)),
    ),
    (
        random_graph(30, 0.1, 4),
        ((0, 22), (1, 15), (2, 9), (3, 25), (4, 20), (5, 19), (6, 14), (7, 29),
         (8, 23), (10, 27), (11, 18), (12, 28), (13, 24), (17, 21)),
        None,
    ),
])
def test_matching_witnesses_are_pinned(g, matching, cover):
    table = compute_invariants(g, ["max_matching", "min_edge_cover"])
    assert table.witnesses["max_matching"] == matching
    if cover is None:
        assert table.not_applicable == {"min_edge_cover": "graph has an isolated vertex"}
    else:
        assert table.witnesses["min_edge_cover"] == cover


# ---------------------------------------------------------------------------
# tree dynamic programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree_dp, exact", [
    (tree_idn, idn),
    (tree_ir2dn, ir2dn),
    (tree_idrdn, idrdn),
])
@settings(max_examples=80, deadline=None)
@given(t=trees(min_n=1, max_n=12))
def test_tree_dp_matches_exact_solver(tree_dp, exact, t):
    assert tree_dp(t) == exact(t)[0]


def test_tree_dp_small_cases_and_errors():
    assert tree_idrdn(path_graph(1)) == 2
    assert tree_idrdn(path_graph(2)) == 3
    assert tree_idrdn(path_graph(3)) == 3
    assert tree_idn(path_graph(3)) == 1
    assert tree_ir2dn(path_graph(1)) == 1
    assert tree_ir2dn(path_graph(2)) == 2
    assert tree_ir2dn(path_graph(3)) == 2
    with pytest.raises(ValueError, match="not a tree"):
        tree_idrdn(cycle_graph(5))
    with pytest.raises(ValueError, match="not a tree"):
        tree_idn(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="not a tree"):
        tree_ir2dn(cycle_graph(4))


def test_tree_dp_handles_large_instances():
    assert tree_idrdn(path_graph(120)) == 120
    assert tree_idrdn(path_graph(121)) == 122
    assert tree_idn(path_graph(120)) == 40
    assert tree_ir2dn(path_graph(120)) == 61
    assert tree_ir2dn(path_graph(121)) == 61
    assert tree_idrdn(star_graph(99)) == 3
    assert tree_ir2dn(star_graph(99)) == 2


# ---------------------------------------------------------------------------
# size guard
# ---------------------------------------------------------------------------

_GUARDED = (idrdn, idn, ir2dn, i2rdn, domination_number, gamma_r2, gamma_dr,
            packing_number)


def test_guard_rejects_graphs_above_the_default_limit():
    big = path_graph(25)
    for solver in _GUARDED:
        with pytest.raises(SizeLimitError, match="exceeds the exact-solver limit 24"):
            solver(big)


def test_guard_respects_the_environment_override(monkeypatch):
    big = path_graph(25)
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "30")
    assert idrdn(big)[0] == 26
    assert idn(big)[0] == 9
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "10")
    with pytest.raises(SizeLimitError, match="limit 10"):
        idn(path_graph(12))


def test_guard_respects_the_argument_override():
    big = path_graph(25)
    assert idrdn(big, size_limit=30)[0] == 26
    with pytest.raises(SizeLimitError, match="limit 5"):
        idn(path_graph(7), size_limit=5)


def test_polynomial_solvers_are_not_guarded():
    long_path = path_graph(60)
    assert max_matching(long_path) == 30
    assert min_edge_cover(long_path) == 30
    assert tree_idrdn(long_path) == 60
    assert tree_ir2dn(long_path) == 31


# ---------------------------------------------------------------------------
# invariant table
# ---------------------------------------------------------------------------


def test_invariant_table_full_profile():
    table = compute_invariants(path_graph(4))
    assert set(table.entries) == set(INVARIANT_NAMES)
    e = table.entries
    assert e["order"] == 4
    assert e["max_degree"] == 2
    assert e["min_degree"] == 1
    assert e["gamma"] == 2
    assert e["idn"] == 2
    assert e["gamma_r2"] == 3
    assert e["ir2dn"] == 3
    assert e["i2rdn"] == 3
    assert e["gamma_dr"] == 5
    assert e["idrdn"] == 5
    assert e["packing"] == 2
    assert e["max_matching"] == 2
    assert e["min_edge_cover"] == 2
    assert table.not_applicable == {}
    assert table.witnesses["idn"] == (0, 2)
    assert isinstance(table.witnesses["idrdn"], DRLabeling)


def test_invariant_table_subset_and_errors():
    table = compute_invariants(cycle_graph(5), which=["idn", "idrdn"])
    assert set(table.entries) == {"idn", "idrdn"}
    with pytest.raises(ValueError, match="unknown invariant"):
        compute_invariants(cycle_graph(5), which=["idn", "girth"])


def test_invariant_table_marks_edge_cover_not_applicable():
    table = compute_invariants(empty_graph(2))
    assert "min_edge_cover" not in table.entries
    assert table.not_applicable["min_edge_cover"] == "graph has an isolated vertex"


# ---------------------------------------------------------------------------
# labels {0,1,2,3} never beat {0,2,3}
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5))
def test_plain_double_roman_needs_no_value_one(g):
    # Beeler, Haynes & Hedetniemi (2016); the gamma_dr search relies on it.
    assert oracles.brute_gamma_dr(g.n, g.edges) == \
        oracles.brute_gamma_dr(g.n, g.edges, allowed=(0, 2, 3))


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5))
def test_value_one_is_never_needed(g):
    assert oracles.brute_idrdn(g.n, g.edges, allowed=(0, 1, 2, 3)) == \
        oracles.brute_idrdn(g.n, g.edges, allowed=(0, 2, 3))


# ---------------------------------------------------------------------------
# one shared computation per table
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_invariant_table_matches_the_standalone_functions(g):
    table = compute_invariants(g)
    standalone = {
        "order": g.n,
        "max_degree": g.max_degree(),
        "min_degree": g.min_degree(),
        "gamma": domination_number(g),
        "idn": idn(g)[0],
        "gamma_r2": gamma_r2(g),
        "ir2dn": ir2dn(g)[0],
        "i2rdn": i2rdn(g)[0],
        "gamma_dr": gamma_dr(g),
        "idrdn": idrdn(g)[0],
        "packing": packing_number(g)[0],
        "max_matching": max_matching(g),
    }
    if g.has_isolated_vertex():
        assert table.not_applicable == {"min_edge_cover": "graph has an isolated vertex"}
    else:
        standalone["min_edge_cover"] = min_edge_cover(g)
    assert table.entries == standalone
    assert table.witnesses["idn"] == tuple(sorted(idn(g)[1]))
    for name, solver in (("ir2dn", ir2dn), ("i2rdn", i2rdn), ("idrdn", idrdn)):
        assert table.witnesses[name] == solver(g)[1]
