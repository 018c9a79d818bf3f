"""Graph construction, serialization, and random generation."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, strategies as st

from idrd import (
    EdgeListParseError,
    Graph,
    SplitMix64,
    build_graph,
    parse_edge_list,
    prufer_decode,
    random_graph,
    random_tree,
    serialize_edge_list,
)

from idrd.graph import bfs, parse_edges

from conftest import complete_graph, cycle_graph, empty_graph, graphs, path_graph, trees

from oracles import prufer_tree


def test_edges_are_normalized_deduplicated_and_sorted():
    g = build_graph(4, [(2, 1), (1, 2), (3, 0), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        build_graph(-1, [])
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="not a pair"):
        build_graph(3, [(0, 1, 2)])
    # the message keeps the edge as given, and a self-loop is named first
    with pytest.raises(ValueError, match=r"^edge \(3, 0\) out of range for n=3$"):
        build_graph(3, [(3, 0)])
    with pytest.raises(ValueError, match=r"^edge \(2, -1\) out of range for n=3$"):
        build_graph(3, [(0, 1), (2, -1)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 5$"):
        build_graph(3, [(5, 5)])


def test_construction_takes_only_integer_vertices():
    for n in (2.5, "3", None):
        with pytest.raises(ValueError, match=r"^vertex count .* is not an integer$"):
            Graph(n, [])
    for e in [(0, 1.5), ("0", 1), (0, None), (1.0, 1.0)]:
        with pytest.raises(ValueError, match=r"^edge .* has a non-integer endpoint$"):
            build_graph(3, [e])
    # the pair check and the vertex count come first, as before
    with pytest.raises(ValueError, match="non-negative"):
        build_graph(-1, [(0, 1.5)])
    with pytest.raises(ValueError, match="not a pair"):
        build_graph(3, [(0.5,)])
    # bools and other __index__ types are ints: n is an int, not True
    g = Graph(True, [])
    assert type(g.n) is int and g.n == 1
    assert build_graph(3, [(False, True)]).edges == ((0, 1),)


@given(graphs(min_n=0, max_n=9), st.randoms(use_true_random=False))
def test_neighbor_tuples_survive_shuffled_reversed_and_repeated_edges(g, rng):
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    edges += [(v, u) for u, v in rng.sample(g.edges, len(g.edges) // 2)]
    rng.shuffle(edges)
    h = build_graph(g.n, edges)
    neighbors = [set() for _ in range(g.n)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    assert h.adj == tuple(tuple(sorted(nb)) for nb in neighbors)
    assert h.edges == tuple(sorted({(min(e), max(e)) for e in edges}))
    assert h == g and all(u < v for u, v in h.edges)
    # the same edges as text, among comments and blank lines, built without a second check
    lines = [f"{u} {v}" for u, v in edges]
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# note", "", "  "]))
    text = "\n".join(["# edges", f"{g.n} {len(edges)}", *lines]) + "\n"
    parsed, checked = parse_edge_list(text), build_graph(*parse_edges(text))
    assert parsed == checked == h
    assert (parsed.edges, parsed.adj, parsed.m) == (checked.edges, checked.adj, checked.m)


def test_neighbors_degrees_and_masks():
    g = path_graph(4)
    assert g.adjacency(0) == (1,)
    assert g.adjacency(1) == (0, 2)
    assert g.adjacency(3) == (2,)
    assert len(g.adjacency(1)) == 2
    assert g.max_degree() == 2
    assert g.min_degree() == 1
    with pytest.raises(ValueError, match="out of range"):
        g.adjacency(4)


def test_degree_extremes_undefined_on_empty_graph():
    g = empty_graph(0)
    with pytest.raises(ValueError, match="empty graph"):
        g.max_degree()
    with pytest.raises(ValueError, match="empty graph"):
        g.min_degree()


def test_isolated_vertex_detection():
    assert empty_graph(3).has_isolated_vertex()
    assert not path_graph(3).has_isolated_vertex()
    assert build_graph(3, [(0, 1)]).has_isolated_vertex()
    assert not empty_graph(0).has_isolated_vertex()


def test_independence_and_domination_predicates():
    g = cycle_graph(5)
    assert g.is_independent({0, 2})
    assert not g.is_independent({0, 1})
    assert g.is_independent(set())
    assert g.is_dominating({0, 2})
    assert not g.is_dominating({0})
    with pytest.raises(ValueError, match="out of range"):
        g.is_independent({5})


def test_graph_memory_grows_linearly_on_sparse_graphs():
    def peak(n):
        edges = [(i, i + 1) for i in range(n - 1)]
        tracemalloc.start()
        try:
            build_graph(n, edges)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) < 2.5 * peak(20_000)


def test_connectivity_and_tree_tests():
    assert path_graph(4).is_tree()
    assert path_graph(1).is_tree()
    assert cycle_graph(4).is_connected()
    assert not cycle_graph(4).is_tree()
    forest = build_graph(4, [(0, 1), (2, 3)])
    assert not forest.is_connected()
    assert not forest.is_tree()
    with pytest.raises(ValueError, match="empty graph"):
        empty_graph(0).is_connected()
    with pytest.raises(ValueError, match="empty graph"):
        empty_graph(0).is_tree()


def test_bfs_walks_from_each_unreached_start_in_turn():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4)])
    assert bfs(g) == ([6, 0, 1, -1, -1, -1], [0, 1, 2])
    assert bfs(g, (4, 2, 1, 5)) == ([1, 2, 6, 4, 6, 6], [4, 3, 2, 1, 0, 5])
    assert bfs(empty_graph(0), ()) == ([], [])


def test_equality_and_hash():
    a = build_graph(3, [(0, 1), (1, 2)])
    b = build_graph(3, [(1, 2), (0, 1)])
    c = build_graph(3, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert a.__eq__(a.edges) is NotImplemented


def test_serialize_golden():
    g = path_graph(3)
    assert serialize_edge_list(g) == "3 2\n0 1\n1 2\n"
    assert serialize_edge_list(empty_graph(2)) == "2 0\n"


def test_parse_golden():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == path_graph(3)


def test_parse_accepts_comments_and_blank_lines():
    text = "# a path\n\n3 2\n0 1\n\n# middle\n1 2\n"
    assert parse_edge_list(text) == path_graph(3)


def test_parse_errors():
    with pytest.raises(EdgeListParseError, match="missing header"):
        parse_edge_list("")
    with pytest.raises(EdgeListParseError, match="malformed header"):
        parse_edge_list("3\n")
    with pytest.raises(EdgeListParseError, match="non-integer header"):
        parse_edge_list("a b\n")
    with pytest.raises(EdgeListParseError, match="must be non-negative"):
        parse_edge_list("-1 0\n")
    with pytest.raises(EdgeListParseError, match="expected 2 edge lines"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(EdgeListParseError, match="expected 1 edge lines"):
        parse_edge_list("3 1\n0 1\n1 2\n")
    with pytest.raises(EdgeListParseError, match="malformed edge line"):
        parse_edge_list("3 1\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="non-integer edge line"):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(EdgeListParseError, match="self-loop"):
        parse_edge_list("3 1\n1 1\n")
    with pytest.raises(EdgeListParseError, match="out of range"):
        parse_edge_list("3 1\n0 3\n")


@given(graphs(min_n=0, max_n=8))
def test_parse_round_trips_serialize(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_random_graph_pinned_fixture():
    g = random_graph(8, 0.4, 42)
    assert g.n == 8
    assert g.m == 13
    assert g.edges == (
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (1, 3), (1, 5),
        (2, 5), (2, 6), (3, 4), (3, 7), (4, 7), (5, 6),
    )


def test_random_graph_is_deterministic_in_the_seed():
    assert random_graph(9, 0.5, 7) == random_graph(9, 0.5, 7)
    assert random_graph(9, 0.5, 7) != random_graph(9, 0.5, 8)


def test_splitmix_below_needs_a_positive_bound():
    with pytest.raises(ValueError, match="positive"):
        SplitMix64(1).below(0)


def test_random_graph_probability_extremes():
    assert random_graph(6, 0.0, 3) == empty_graph(6)
    assert random_graph(6, 1.0, 3) == complete_graph(6)
    with pytest.raises(ValueError, match="outside"):
        random_graph(6, 1.5, 3)
    with pytest.raises(ValueError, match="non-negative"):
        random_graph(-2, 0.5, 3)


def test_random_tree_pinned_fixture():
    t = random_tree(7, 7)
    assert t.edges == ((0, 3), (0, 4), (1, 2), (2, 3), (3, 5), (5, 6))


def test_random_tree_always_yields_a_tree():
    for n in range(1, 13):
        for seed in (0, 1, 99):
            t = random_tree(n, seed)
            assert t.n == n
            assert t.is_tree()
    with pytest.raises(ValueError, match="at least one vertex"):
        random_tree(0, 1)


def test_prufer_decode_golden_codes():
    assert prufer_decode(2, []).edges == ((0, 1),)
    assert prufer_decode(3, [2]).edges == ((0, 2), (1, 2))
    assert prufer_decode(4, [3, 3]).edges == ((0, 3), (1, 3), (2, 3))
    assert prufer_decode(4, [1, 0]).edges == ((0, 1), (0, 3), (1, 2))


def test_prufer_decode_is_the_definition_on_every_short_code():
    # all 18 248 codes with 2 <= n <= 7: 1 + 3 + 16 + 125 + 1296 + 16807
    codes = 0
    for n in range(2, 8):
        for code in product(range(n), repeat=n - 2):
            assert list(prufer_decode(n, code).edges) == prufer_tree(n, code), (n, code)
            codes += 1
    assert codes == 18248


def test_prufer_decode_errors():
    with pytest.raises(ValueError, match="length"):
        prufer_decode(4, [1])
    with pytest.raises(ValueError, match="length"):
        prufer_decode(1, [])
    with pytest.raises(ValueError, match="out of range"):
        prufer_decode(4, [1, 4])


@given(st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))))
def test_prufer_decode_degree_property(args):
    n, code = args
    t = prufer_decode(n, code)
    assert t.is_tree()
    for v in range(n):
        assert len(t.adjacency(v)) == 1 + code.count(v)


@given(trees(min_n=1, max_n=12))
def test_tree_strategy_yields_trees(t):
    assert t.is_tree()
