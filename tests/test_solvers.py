"""Exact solvers against definition-level brute force, plus guard behavior."""

import hashlib
import json
import time
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from idrd import (
    INVARIANT_NAMES,
    SizeLimitError,
    DRLabeling,
    R2Labeling,
    RainbowLabeling,
    build_graph,
    compute_invariants,
    domination_number,
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
    prufer_decode,
    random_graph,
    random_tree,
    tree_idn,
    tree_idrdn,
    tree_ir2dn,
)
from idrd import graph, solvers
from idrd.graph import bfs
from idrd.solvers import (
    _ROOT,
    _THRESHOLD,
    _bfs_order,
    _context,
    _exact,
    _first_optimum,
    _fix,
    _forced_mask,
    _matching_partners,
    _neighbor_masks,
    _rainbow_completion,
    _threshold,
    _tree_mis_number,
    _tree_value,
)

from conftest import (
    complete_graph,
    cycle_graph,
    double_star,
    empty_graph,
    graphs,
    path_graph,
    petersen_graph,
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


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=0, max_n=10))
def test_mis_enumeration_follows_the_reference_order(g):
    # The order, not only the set, is pinned, though witnesses tie-break on the sets.
    got = list(maximal_independent_sets(g))
    assert got == oracles.reference_maximal_independent_sets(g.n, g.edges)


# MIS-pass witnesses pinned.  random_graph(12, 0.15, 2) is disconnected.
@pytest.mark.parametrize("g, i, r2, dr, rainbow, packing", [
    (
        petersen_graph(),
        (0, 2, 6),
        [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
        [2, 0, 2, 0, 0, 0, 0, 0, 2, 2],
        ["12", "", "12", "", "", "", "12", "", "", ""],
        (0,),
    ),
    (
        random_graph(12, 0.15, 2),
        (0, 2, 4, 5, 6, 7, 8, 11),
        [1, 0, 2, 0, 1, 1, 1, 1, 1, 0, 0, 2],
        [2, 0, 3, 0, 2, 2, 2, 2, 2, 0, 0, 3],
        ["1", "", "12", "", "1", "1", "1", "1", "1", "", "", "12"],
        (0, 1, 2, 4, 5, 6, 7, 8),
    ),
    (
        random_graph(16, 0.2, 3),
        (7, 11, 12, 14),
        [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 2, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 3, 0, 3, 0],
        ["1", "", "", "", "", "", "1", "", "", "", "", "12", "12", "2", "2", ""],
        (0, 2, 8, 9),
    ),
    (
        random_graph(18, 0.5, 7),
        (1, 13, 15),
        [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 3, 0, 3, 0, 0, 0, 0, 0],
        ["1", "", "", "", "1", "", "", "", "", "", "", "", "12", "", "", "2", "", ""],
        (4, 10),
    ),
])
def test_mis_witnesses_are_pinned(g, i, r2, dr, rainbow, packing):
    names = ["idn", "ir2dn", "idrdn", "i2rdn", "packing"]
    witnesses = compute_invariants(g, names).witnesses
    assert witnesses["idn"] == i
    assert witnesses["ir2dn"] == R2Labeling(r2)
    assert witnesses["idrdn"] == DRLabeling(dr)
    assert witnesses["i2rdn"] == RainbowLabeling(rainbow)
    assert witnesses["packing"] == packing


def test_mis_pass_handles_deep_enumerations(monkeypatch):
    # Each set of an edgeless graph's enumeration is one n-deep branch.
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "5000")
    names = ["idn", "ir2dn", "idrdn", "i2rdn", "packing"]
    start = time.perf_counter()
    entries = compute_invariants(empty_graph(1200), names).entries
    assert time.perf_counter() - start < 5.0
    assert [entries[name] for name in names] == [1200, 1200, 2400, 1200, 1200]


def test_isolated_vertices_join_every_set_up_front():
    # A path 0-1-2-3-4 plus 3000 isolated vertices has the path's four sets,
    # in ascending vertex order; isolated vertices once cost a pivot frame each.
    g = build_graph(3005, [(0, 1), (1, 2), (2, 3), (3, 4)])
    start = time.perf_counter()
    got = list(maximal_independent_sets(g))
    assert time.perf_counter() - start < 1.0
    lone = frozenset(range(5, 3005))
    assert got == [lone | s for s in ({0, 2, 4}, {0, 3}, {1, 3}, {1, 4})]


def test_rainbow_completion_handles_deep_searches():
    # S holds one opposite pair of each 4-cycle: 1200 members, none forced,
    # so the search path is 1200 members deep.
    cycles = 600
    g = build_graph(4 * cycles, [
        (4 * c + i, 4 * c + (i + 1) % 4) for c in range(cycles) for i in range(4)])
    s = sum(1 << 4 * c | 1 << 4 * c + 2 for c in range(cycles))
    weight, ones, twos = _rainbow_completion(_neighbor_masks(g), s, 0, float("inf"))
    assert weight == 2 * cycles
    assert ones == sum(1 << 4 * c for c in range(cycles))
    assert twos == sum(1 << 4 * c + 2 for c in range(cycles))


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1, max_n=8), st.data())
def test_rainbow_completion_matches_the_product_oracle(g, data):
    s = data.draw(st.sampled_from(oracles.brute_maximal_independent_sets(g.n, g.edges)))
    nbr = _neighbor_masks(g)
    mask = sum(1 << v for v in s)
    forced = _forced_mask(nbr, mask)
    weight, sets = oracles.first_rainbow_completion(g.n, g.edges, s)
    for limit in (float("inf"), weight):
        got, ones, twos = _rainbow_completion(nbr, mask, forced, limit)
        assert got == weight
        assert [
            frozenset(c for c, m in ((1, ones), (2, twos)) if m >> v & 1) for v in range(g.n)
        ] == sets
    assert _rainbow_completion(nbr, mask, forced, weight - 1) is None


def test_forced_threes_on_a_double_star():
    nbr = _neighbor_masks(double_star(2, 2))
    assert _forced_mask(nbr, 1 << 0 | 1 << 4 | 1 << 5) == 1 << 0
    assert _forced_mask(nbr, 1 << 2 | 1 << 3 | 1 << 4 | 1 << 5) == 0


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
    # ties go to the lexicographically smallest positive set
    positive = tuple(v for v, s in enumerate(witness.values) if s)
    assert (value, positive) == oracles.brute_i2rdn(g.n, g.edges)
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
# the path 4-0-2-1-3, where the maximum packings (0, 3), (1, 4) and (3, 4) tie
@example(g=build_graph(5, [(0, 2), (0, 4), (1, 2), (1, 3)]))
def test_packing_matches_brute(g):
    value, witness = packing_number(g)
    # the witness is the lexicographically smallest maximum packing
    assert (value, tuple(sorted(witness))) == oracles.brute_packing(g.n, g.edges)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_matching_matches_brute(g):
    assert max_matching(g) == oracles.brute_max_matching(g.n, g.edges)


def test_solvers_need_a_vertex():
    g = empty_graph(0)
    for solver in (idrdn, idn, ir2dn, i2rdn, domination_number, gamma_r2,
                   gamma_dr, packing_number, max_matching, min_edge_cover):
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
        petersen_graph(),
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
    # The stage-3 loop then starts from the labeling that search found.
    labels, k = _THRESHOLD[name][:2]
    ctx = _context(_neighbor_masks(g), labels, k)
    value, found = _threshold(ctx, max(labels) * g.n + 1, 0)
    assert value == _BRUTE_THRESHOLD[name](g.n, g.edges)
    adj = oracles.adjacency(g.n, g.edges)
    for vals in (found, _first_optimum(ctx, g, value, found)):
        assert sum(vals) == value
        assert all(x or sum(vals[u] for u in adj[v]) >= k for v, x in enumerate(vals))


def test_threshold_search_handles_deep_searches(monkeypatch):
    # S(2,2) and 1500 isolated vertices: every search path is 1506 labels deep.
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "5000")
    g = build_graph(1506, double_star(2, 2).edges)
    names = ["gamma", "gamma_r2", "gamma_dr"]
    entries = compute_invariants(g, names).entries
    assert entries == {"gamma": 1502, "gamma_r2": 1504, "gamma_dr": 3006}
    # there the floor 1502 + 1504 ends the γ_dR search at once; with none it
    # runs 1506 labels deep from above an incumbent of 3 on every vertex, and
    # the stage-3 loop walks all 1506 vertices
    labels, k = _THRESHOLD["gamma_dr"][:2]
    ctx = _context(_neighbor_masks(g), labels, k)
    value, vals = _threshold(ctx, 3 * g.n + 1, 0)
    vals = _first_optimum(ctx, g, value, vals)
    assert value == 3006 and sum(vals) == 3006


@pytest.mark.parametrize("name", sorted(_THRESHOLD))
@settings(max_examples=40, deadline=None)
@given(g=graphs(max_n=8))
def test_threshold_value_matches_brute_force(name, g):
    # started just above the all-max labeling, so the search finds every weight itself
    labels, k = _THRESHOLD[name][:2]
    value = _threshold(_context(_neighbor_masks(g), labels, k), max(labels) * g.n + 1, 0)[0]
    assert value == _BRUTE_THRESHOLD[name](g.n, g.edges)


def _prefixes(ctx, vertices, vals):
    """The search nodes that fix `vals` on `vertices[:i]`, for i = 0, 1, ..."""
    state = _ROOT
    yield state
    for u in vertices:
        state = _fix(ctx, state, u, vals[u])
        yield state


def test_threshold_value_matches_the_witness_search():
    for seed in range(90):
        g = random_graph(6 + seed % 11, (0.1, 0.2, 0.35)[seed // 11 % 3], seed)
        nbr = _neighbor_masks(g)
        found, order = _exact(g, ["idn", "ir2dn", "idrdn"], True), _bfs_order(g)
        for name, (labels, k, start, _) in _THRESHOLD.items():
            ctx = _context(nbr, labels, k)
            weight = found[start][0]
            # the witness of the stage-3 loop, from the search above the all-max labeling
            witness = _first_optimum(ctx, g, *_threshold(ctx, max(labels) * g.n + 1, 0))
            expected = sum(witness)
            assert _threshold(ctx, weight, 0)[0] == expected, (seed, name)
            # from one above the optimum it finds the optimum; from the optimum it
            # proves it: from the root and from every prefix of the witness
            for state in _prefixes(ctx, order, witness):
                assert _threshold(ctx, expected + 1, 0, state)[0] == expected, (seed, name)
                assert _threshold(ctx, expected, 0, state) == (expected, None), (seed, name)


def test_threshold_value_handles_deep_searches():
    # S(2,2) and 1500 isolated vertices, as in the witness search test above
    g = build_graph(1506, double_star(2, 2).edges)
    nbr, order = _neighbor_masks(g), _bfs_order(g)
    for name, value in (("gamma", 1502), ("gamma_r2", 1504), ("gamma_dr", 3006)):
        labels, k = _THRESHOLD[name][:2]
        ctx = _context(nbr, labels, k)
        witness = _first_optimum(ctx, g, *_threshold(ctx, max(labels) * g.n + 1, 0))
        assert sum(witness) == value, name
        # from the root and from the witness fixed on the double star, order[:6]
        for state in list(_prefixes(ctx, order[:6], witness))[::6]:
            assert _threshold(ctx, max(labels) * g.n + 1, 0, state)[0] == value, name
            assert _threshold(ctx, value, 0, state)[0] == value, name


def test_threshold_labels_start_with_zero():
    # so the first leaf under a node with nothing undefended is its all-0 completion
    assert all(labels[0] == 0 for labels, *_ in _THRESHOLD.values())


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_n=7))
# a labeled 5-cycle: stage 3 must test labels before the stage-2 labeling's
# own to reach the first optimum for γ_R2
@example(g=build_graph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)]))
def test_plain_witnesses_are_the_first_optimal_labelings(g):
    # the incumbent if it is optimal, else the first optimum in the order of
    # the witness search: BFS order, each vertex taking its labels in turn
    names = ["gamma", "gamma_r2", "gamma_dr"]
    found, order = _exact(g, names, True), _bfs_order(g)
    for name in names:
        labels, k, start, _ = _THRESHOLD[name]
        first = oracles.first_threshold_labeling(g.n, g.edges, labels, k, order)
        expected = found[start] if found[start][0] == first[0] else first
        assert found[name] == expected, name


def test_disjoint_double_stars_are_fast(monkeypatch):
    # five copies of S(2,2): their MIS incumbents lose for γ (15 against 10) and
    # γ_dR (35 against 30), so the witness search runs; the pins are what the
    # witness search alone returns
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "30")
    copy = double_star(2, 2).edges
    g = build_graph(30, [(u + 6 * c, v + 6 * c) for c in range(5) for u, v in copy])
    start = time.perf_counter()
    table = compute_invariants(g, ["gamma", "gamma_r2", "gamma_dr"])
    assert time.perf_counter() - start < 20.0
    assert table.entries == {"gamma": 10, "gamma_r2": 20, "gamma_dr": 30}
    assert table.witnesses["gamma"] == tuple(v + 6 * c for c in range(5) for v in (0, 1))
    assert table.witnesses["gamma_r2"] == R2Labeling([2, 0, 0, 0, 1, 1] * 5)
    assert table.witnesses["gamma_dr"] == DRLabeling([3, 3, 0, 0, 0, 0] * 5)


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_n=7))
def test_gamma_dr_is_at_least_gamma_r2_plus_gamma(g):
    # the floor of the γ_dR search (Beeler, Haynes & Hedetniemi 2016)
    n, edges = g.n, g.edges
    assert oracles.brute_gamma_dr(n, edges) >= (
        oracles.brute_gamma_r2(n, edges) + oracles.brute_gamma(n, edges))


def test_floors_do_not_change_the_threshold_searches():
    # the witness of `_exact` (stage 2 under the γ_R2 + γ floor, every stage-3
    # test ended at the value) is what the stage-3 loop makes of the search
    # from the incumbent with no floor
    names = ["gamma", "gamma_r2", "gamma_dr"]
    for seed in range(60):
        g = random_graph(6 + seed % 9, (0.1, 0.2, 0.35)[seed // 9 % 3], seed)
        nbr = _neighbor_masks(g)
        found, order = _exact(g, names, True), _bfs_order(g)
        for name in names:
            labels, k, start, _ = _THRESHOLD[name]
            weight, incumbent = found[start]
            ctx = _context(nbr, labels, k)
            value, vals = _threshold(ctx, weight, 0)
            if vals:
                vals = _first_optimum(ctx, g, value, vals)
            assert found[name] == (value, vals or incumbent), (seed, name)


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_n=7))
@example(g=build_graph(2, [(0, 1)]))  # from [1, 1], γ_R2 must test 0 before 2
def test_stage_three_ignores_its_start_labeling(g):
    # from every optimal labeling the stage-3 loop reaches the first one
    nbr, order = _neighbor_masks(g), _bfs_order(g)
    for labels, k, *_ in _THRESHOLD.values():
        ctx = _context(nbr, labels, k)
        first = oracles.first_threshold_labeling(g.n, g.edges, labels, k, order)
        optima = [vals for vals in oracles.threshold_labelings(g.n, g.edges, labels, k)
                  if sum(vals) == first[0]]
        for vals in optima:
            assert _first_optimum(ctx, g, first[0], vals) == first[1], (labels, vals)


def test_stage_three_tests_end_at_the_value(monkeypatch):
    # every test searches from value + 1 and stops at its first labeling of the
    # optimal weight: with a lower floor it would search on for a lighter one
    calls = []

    def recording(ctx, best, floor, start):
        calls.append((best, floor))
        return _threshold(ctx, best, floor, start)

    monkeypatch.setattr("idrd.solvers._threshold", recording)
    g = random_graph(16, 0.2, 3)
    nbr = _neighbor_masks(g)
    for labels, k, *_ in _THRESHOLD.values():
        ctx = _context(nbr, labels, k)
        value, vals = _threshold(ctx, max(labels) * g.n + 1, 0)
        calls.clear()
        _first_optimum(ctx, g, value, vals)
        assert calls and set(calls) == {(value + 1, value)}, labels


# The graphs of the hard corpus on which stage 3 runs, but for 5 × S(2,2),
# which `test_disjoint_double_stars_are_fast` pins: order 24 to 30, where a
# witness search that branches in BFS order takes seconds.
_HARD_CORPUS = (
    (random_graph, 24, 0.1, 1), (random_graph, 24, 0.1, 2), (random_graph, 24, 0.12, 1),
    (random_graph, 24, 0.2, 3), (random_graph, 24, 0.25, 1), (random_graph, 24, 0.25, 2),
    (random_graph, 24, 0.25, 3), (random_graph, 24, 0.3, 2), (random_graph, 28, 0.1, 1258),
    (random_tree, 30, 2),
)


def test_hard_corpus_witnesses_are_pinned(monkeypatch):
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "40")
    copy = double_star(2, 2).edges
    corpus = [make(*args) for make, *args in _HARD_CORPUS]
    corpus.append(build_graph(24, [(u + 6 * c, v + 6 * c) for c in range(4) for u, v in copy]))
    rows = []
    for g in corpus:
        table = compute_invariants(g, ["gamma", "gamma_r2", "gamma_dr"])
        witnesses = {name: list(getattr(w, "values", w)) for name, w in table.witnesses.items()}
        rows.append([table.entries, witnesses])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "444fceba72ec99e124ed92b2af9134fde10a0e41d9d5bc237b601ee5c20d7c41"


def test_request_order_does_not_change_the_plain_numbers():
    for seed in range(20):
        g = random_graph(10, 0.2, seed)
        natural = compute_invariants(g, ["gamma", "gamma_r2", "gamma_dr"])
        reversed_ = compute_invariants(g, ["gamma_dr", "gamma", "gamma_r2"])
        assert natural.entries == reversed_.entries, seed
        assert natural.witnesses == reversed_.witnesses, seed
        alone = compute_invariants(g, ["gamma_dr"]).witnesses["gamma_dr"]
        assert alone == natural.witnesses["gamma_dr"], seed


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
    petersen = petersen_graph()
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
        petersen_graph(),
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


def test_matching_is_searched_once_per_graph():
    for g in (
        build_graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]),
        random_graph(24, 0.1, 4),
    ):
        before = hash(g)
        size = max_matching(g)
        assert _matching_partners(g) is _matching_partners(g)
        fresh = build_graph(g.n, g.edges)
        assert g == fresh and hash(g) == before == hash(fresh)
        assert (size, min_edge_cover(g)) == (max_matching(fresh), min_edge_cover(fresh))
        which = ["max_matching", "min_edge_cover"]
        table, expected = compute_invariants(g, which), compute_invariants(fresh, which)
        assert (table.entries, table.witnesses) == (expected.entries, expected.witnesses)


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


def test_tree_dp_closed_forms_at_scale():
    for n in (49_998, 50_000):
        path = path_graph(n)
        assert tree_idrdn(path) == (n if n % 3 == 0 else n + 1)
        assert tree_idn(path) == -(-n // 3)
    star = star_graph(50_000)
    assert tree_idrdn(star) == 3
    assert tree_ir2dn(star) == 2


def test_tree_dp_on_a_caterpillar_matches_the_mis_pass():
    # spine 0..5 with 0, 1, 2, 0, 3, 1 leaves: hubs of one leaf, of several, and bare
    edges = [(i, i + 1) for i in range(5)]
    leaf = 6
    for hub, count in enumerate((0, 1, 2, 0, 3, 1)):
        edges += [(hub, leaf + j) for j in range(count)]
        leaf += count
    t = build_graph(leaf, edges)
    assert t.is_tree()
    for tree_dp, exact in ((tree_idn, idn), (tree_ir2dn, ir2dn), (tree_idrdn, idrdn)):
        assert tree_dp(t) == exact(t)[0]


def test_tree_dp_rejects_non_trees_with_n_minus_one_edges():
    for k in (3, 4, 7):
        # a k-cycle plus an isolated vertex
        g = build_graph(k + 1, [(i, (i + 1) % k) for i in range(k)])
        assert g.m == g.n - 1
        for tree_dp in (tree_idn, tree_ir2dn, tree_idrdn):
            with pytest.raises(ValueError, match="^input is not a tree$"):
                tree_dp(g)
    for tree_dp in (tree_idn, tree_ir2dn, tree_idrdn):
        with pytest.raises(ValueError, match="^tree test of an empty graph is undefined$"):
            tree_dp(empty_graph(0))


def test_tree_dps_share_one_walk(monkeypatch):
    walks = []

    def counted_bfs(*args):
        walks.append(args)
        return bfs(*args)

    monkeypatch.setattr(graph, "bfs", counted_bfs)
    # (idrdn, idn, ir2dn) of each tree, pinned
    for seed, values in ((1, (306, 114, 180)), (2, (296, 110, 179)), (3, (304, 113, 180))):
        walks.clear()
        t = random_tree(300, seed)
        assert (tree_idrdn(t), tree_idn(t), tree_ir2dn(t)) == values
        assert len(walks) == 1
    # a triangle plus an edge: n - 1 edges, so only the walk refuses it, on every call
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for tree_dp in (tree_idrdn, tree_idn, tree_ir2dn, tree_idrdn):
        with pytest.raises(ValueError, match="^input is not a tree$"):
            tree_dp(g)


# name -> (labels, threshold k, independent[, rainbow]) of the same number as a tree labeling
_TREE_LABELINGS = {
    "gamma": ((0, 1), 1, False),
    "gamma_r2": ((0, 1, 2), 2, False),
    "gamma_dr": ((0, 2, 3), 3, False),
    "idn": ((0, 1), 1, True),
    "ir2dn": ((0, 1, 2), 2, True),
    "idrdn": ((0, 2, 3), 3, True),
    "i2rdn": ((0, 1, 2, 3), 3, True, True),
}


def _tree_oracle(t, name):
    return oracles.tree_labeling(t.n, t.edges, *_TREE_LABELINGS[name])


def test_tree_oracle_matches_brute_force_on_small_trees():
    # brute force allows the value 1 in both double Roman numbers, so it also
    # checks the reduction to labels {0, 2, 3} that the oracle shares with the solvers
    brute = {
        "gamma": oracles.brute_gamma,
        "gamma_r2": oracles.brute_gamma_r2,
        "gamma_dr": oracles.brute_gamma_dr,
        "idn": oracles.brute_idn,
        "ir2dn": oracles.brute_ir2dn,
        "idrdn": oracles.brute_idrdn,
        "i2rdn": lambda n, edges: oracles.brute_i2rdn(n, edges)[0],
    }
    for n in range(1, 9):
        t = random_tree(n, 7 * n)
        assert {name: _tree_oracle(t, name) for name in brute} == \
            {name: f(t.n, t.edges) for name, f in brute.items()}


def test_exact_solvers_match_the_tree_oracle():
    for seed in range(40):
        t = random_tree(1 + seed % 20, seed)
        entries = compute_invariants(t, list(_TREE_LABELINGS)).entries
        assert entries == {name: _tree_oracle(t, name) for name in _TREE_LABELINGS}, seed


def test_tree_dps_match_the_tree_oracle_at_scale():
    t = random_tree(5000, 11)
    for name, tree_dp in (("idn", tree_idn), ("ir2dn", tree_ir2dn), ("idrdn", tree_idrdn)):
        assert tree_dp(t) == _tree_oracle(t, name)
    # other weightings with strong <= 2 * weak: one strong or two positive neighbors
    for weak, strong in ((2, 4), (3, 4)):
        for independent in (True, False):
            assert _tree_mis_number(t, weak, strong, independent) == \
                oracles.tree_labeling(t.n, t.edges, (0, weak, strong), strong, independent)
    t = random_tree(3000, 11)
    for name in ("gamma", "gamma_r2", "gamma_dr", "i2rdn"):
        assert _tree_value(t, name) == _tree_oracle(t, name), name
    assert _tree_value(t, "packing") == _tree_oracle(t, "gamma")


# ---------------------------------------------------------------------------
# value-only requests on trees: the linear-time DPs
# ---------------------------------------------------------------------------


def _check_tree_dps(t, brute_packing=False):
    for name in _TREE_LABELINGS:
        assert _tree_value(t, name) == _tree_oracle(t, name), (name, t.edges)
    # the packing number of a tree is its domination number (Meir & Moon,
    # Pacific J. Math. 61 (1975)); brute force checks it where it can
    packing = oracles.brute_packing(t.n, t.edges)[0] if brute_packing else \
        _tree_oracle(t, "gamma")
    assert _tree_value(t, "packing") == packing, t.edges


def test_tree_dps_match_the_oracles_on_every_small_labeled_tree():
    count = 0
    for n in range(2, 7):
        for code in product(range(n), repeat=n - 2):
            _check_tree_dps(prufer_decode(n, code), brute_packing=True)
            count += 1
    assert count == 1441
    _check_tree_dps(build_graph(1, []), brute_packing=True)


@settings(max_examples=60, deadline=None)
@given(trees(min_n=1, max_n=40))
def test_tree_dps_match_the_oracles(t):
    _check_tree_dps(t)


_SEARCH_CORES = ("_neighbor_masks", "_mis_masks", "_threshold", "_packing")


def test_value_only_requests_on_trees_take_the_tree_route(monkeypatch):
    tree = random_tree(18, 5)
    # a cycle plus a pendant edge, and n - 1 edges that the walk refuses
    others = (build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]),
              build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))
    expected = {g: compute_invariants(g).entries for g in (tree, *others)}
    plain = tuple(expected[tree][name] for name in _THRESHOLD)
    for core in _SEARCH_CORES:
        def refuse(*args, core=core):
            raise AssertionError(f"{core} on a value-only tree request")
        monkeypatch.setattr(solvers, core, refuse)
    tree = random_tree(18, 5)
    assert compute_invariants(tree, witnesses=False).entries == expected[tree]
    assert (domination_number(tree), gamma_r2(tree), gamma_dr(tree)) == plain
    monkeypatch.undo()
    calls = []
    for core in _SEARCH_CORES:
        def counted(*args, core=core, original=getattr(solvers, core)):
            calls.append(core)
            return original(*args)
        monkeypatch.setattr(solvers, core, counted)
    # a witness request on the tree, and value-only requests off trees, search
    for g, witnesses in ((tree, True), (others[0], False), (others[1], False)):
        calls.clear()
        assert compute_invariants(g, witnesses=witnesses).entries == expected[g]
        assert set(calls) == set(_SEARCH_CORES)


def test_polynomial_requests_on_trees_walk_nothing(monkeypatch):
    walks = []
    monkeypatch.setattr(graph, "bfs", lambda *args: walks.append(args))
    t = random_tree(40, 3)
    table = compute_invariants(t, ["order", "max_degree", "max_matching"], witnesses=False)
    assert table.entries == {"order": 40, "max_degree": 5, "max_matching": 18}
    assert walks == [] and t._rooted is None


@settings(max_examples=60, deadline=None)
@given(trees(min_n=1, max_n=14))
def test_value_only_tree_entries_are_the_witness_table_entries(t):
    values, table = compute_invariants(t, witnesses=False), compute_invariants(t)
    assert list(values.entries.items()) == list(table.entries.items())
    assert len(values.entries) + len(values.not_applicable) == len(INVARIANT_NAMES)
    assert values.not_applicable == table.not_applicable


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


def test_polynomial_solvers_are_not_guarded():
    long_path = path_graph(60)
    assert max_matching(long_path) == 30
    assert min_edge_cover(long_path) == 30
    assert tree_idrdn(long_path) == 60
    assert tree_ir2dn(long_path) == 31


def test_a_bad_limit_fails_only_the_guarded_requests(monkeypatch):
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "abc")
    t = path_graph(7)
    assert (max_matching(t), min_edge_cover(t), tree_idn(t)) == (3, 4, 3)
    table = compute_invariants(t, ["order", "max_matching", "min_edge_cover"])
    assert table.entries == {"order": 7, "max_matching": 3, "min_edge_cover": 4}
    for solver in (idn, domination_number):
        with pytest.raises(ValueError, match="must be an integer, got 'abc'"):
            solver(t)


def test_value_only_solvers_search_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("witness search in a value-only solver")

    monkeypatch.setattr("idrd.solvers._first_optimum", refuse)
    g = double_star(2, 2)  # gamma < idn and gamma_dr < idrdn: stage 3 would run
    assert (domination_number(g), gamma_r2(g), gamma_dr(g)) == (2, 4, 6)


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


# The seven exact numbers' oracles, the plain ones over their search's labels.
_BRUTE_EXACT = dict(
    _BRUTE_THRESHOLD,
    idn=oracles.brute_idn,
    ir2dn=oracles.brute_ir2dn,
    i2rdn=lambda n, edges: oracles.brute_i2rdn(n, edges)[0],
    idrdn=oracles.brute_idrdn,
)


@settings(max_examples=50, deadline=None)
@given(g=graphs(max_n=7), names=st.lists(st.sampled_from(INVARIANT_NAMES), unique=True))
@example(g=double_star(2, 2), names=list(INVARIANT_NAMES))  # gamma < idn, gamma_dr < idrdn
def test_value_only_table_is_the_table_without_witnesses(g, names):
    values = compute_invariants(g, names, witnesses=False)
    table = compute_invariants(g, names)
    assert list(values.entries.items()) == list(table.entries.items())
    assert values.not_applicable == table.not_applicable
    assert values.witnesses == {}
    for name in set(names) & set(_BRUTE_EXACT):
        assert values.entries[name] == _BRUTE_EXACT[name](g.n, g.edges)
