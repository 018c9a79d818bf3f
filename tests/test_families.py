"""Family specs, generators, closed forms, tree classes, pair realization."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings

from idrd import (
    build_graph,
    families,
    idn,
    idrdn,
    ir2dn,
    prufer_decode,
    random_tree,
    tree_idn,
    tree_idrdn,
    tree_ir2dn,
)
from idrd.families import (
    KINDS,
    DomainError,
    FamilySpec,
    TreeClass,
    admissible_interval,
    classify_tree,
    formula_idrdn,
    generate,
    parse_family_spec,
    realize,
)

from conftest import cycle_graph, double_star, path_graph, star_graph, trees

from oracles import tree_certificate, tree_family


def certificate(g):
    return tree_certificate(g.n, g.edges)


def relabeled(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# specs and parsing
# ---------------------------------------------------------------------------


def test_spec_text_round_trips_through_parse():
    specs = [
        FamilySpec("path", (7,)),
        FamilySpec("complete_multipartite", (2, 2, 5)),
        FamilySpec("subdivided_double_star", (2, 3)),
        FamilySpec("corona_of_star", (4,)),
    ]
    for spec in specs:
        assert parse_family_spec(spec.text()) == spec
    assert FamilySpec("complete_multipartite", (2, 2, 5)).text() == "kpartite:2,2,5"
    assert KINDS == (
        "path", "cycle", "complete", "complete_multipartite", "star", "double_star",
        "subdivided_star", "subdivided_double_star", "corona_of_star")


def test_parse_accepts_short_and_long_names():
    assert parse_family_spec("kpartite:1,4") == FamilySpec(
        "complete_multipartite", (1, 4))
    assert parse_family_spec("complete_multipartite:1,4") == FamilySpec(
        "complete_multipartite", (1, 4))
    assert parse_family_spec(" Path:5 ") == FamilySpec("path", (5,))


def test_parse_rejects_malformed_specs():
    with pytest.raises(ValueError, match="must look like"):
        parse_family_spec("path")
    with pytest.raises(ValueError, match="unknown family kind"):
        parse_family_spec("wheel:5")
    with pytest.raises(ValueError, match="must be integers"):
        parse_family_spec("path:x")
    with pytest.raises(ValueError, match="must be integers"):
        parse_family_spec("path:")


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec("wheel", (5,))
    with pytest.raises(ValueError, match="order must be >= 3"):
        FamilySpec("cycle", (2,))
    with pytest.raises(ValueError, match="takes 1 parameter"):
        FamilySpec("path", (3, 4))
    with pytest.raises(ValueError, match="non-negative"):
        FamilySpec("path", (-3,))
    with pytest.raises(ValueError, match="at least 2 part sizes"):
        FamilySpec("complete_multipartite", (4,))
    with pytest.raises(ValueError, match="sorted ascending"):
        FamilySpec("complete_multipartite", (2, 1))
    with pytest.raises(ValueError, match="part sizes must be >= 1"):
        FamilySpec("complete_multipartite", (0, 2))
    with pytest.raises(ValueError, match="1 <= r <= s"):
        FamilySpec("double_star", (2, 1))
    with pytest.raises(ValueError, match="1 <= r <= s"):
        FamilySpec("subdivided_double_star", (0, 2))
    with pytest.raises(ValueError, match="k >= 2j\\+1"):
        FamilySpec("subdivided_star", (4, 2))
    with pytest.raises(ValueError, match="star size must be >= 1"):
        FamilySpec("corona_of_star", (0,))
    # the count is checked before any condition reads a parameter
    for kind in KINDS:
        with pytest.raises(ValueError):
            FamilySpec(kind, ())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generate_golden_edge_lists():
    assert generate(FamilySpec("path", (4,))) == path_graph(4)
    assert generate(FamilySpec("cycle", (3,))) == cycle_graph(3)
    assert generate(FamilySpec("complete", (3,))) == cycle_graph(3)
    assert generate(FamilySpec("star", (3,))) == star_graph(3)
    assert generate(FamilySpec("double_star", (1, 2))) == double_star(1, 2)
    assert generate(FamilySpec("complete_multipartite", (1, 2))).edges == (
        (0, 1), (0, 2))
    assert generate(FamilySpec("subdivided_star", (5, 2))).edges == (
        (0, 1), (0, 3), (1, 2), (3, 4))
    assert generate(FamilySpec("subdivided_double_star", (1, 1))).edges == (
        (0, 2), (0, 3), (1, 2), (1, 5), (3, 4), (5, 6))
    assert generate(FamilySpec("corona_of_star", (1,))).edges == (
        (0, 1), (0, 2), (1, 3))


def test_generate_structural_properties():
    g = generate(FamilySpec("subdivided_star", (9, 3)))
    assert g.n == 9 and g.is_tree() and len(g.adjacency(0)) == 9 - 1 - 3
    g = generate(FamilySpec("subdivided_double_star", (2, 4)))
    assert g.n == 2 * (2 + 4) + 3 and g.is_tree()
    g = generate(FamilySpec("corona_of_star", (3,)))
    assert g.n == 8 and g.is_tree()
    assert all(len(g.adjacency(v)) >= 2 for v in range(4))
    assert all(len(g.adjacency(v)) == 1 for v in range(4, 8))
    g = generate(FamilySpec("complete_multipartite", (2, 2, 5)))
    assert g.n == 9 and g.m == 2 * 2 + 2 * 5 + 2 * 5


def test_subdivided_double_star_one_one_is_a_path():
    g = generate(FamilySpec("subdivided_double_star", (1, 1)))
    assert certificate(g) == certificate(path_graph(7))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_family_order_matches_the_generated_graph():
    # generate() takes its order from spec.order, so pin the orders by hand
    # and check that the edges reach every vertex.
    specs = {"path:1": 1, "path:6": 6, "cycle:5": 5, "complete:4": 4,
             "kpartite:1,2,3": 6, "star:4": 5, "doublestar:1,3": 6,
             "subdivstar:7,2": 7, "subdivstar:2,0": 2, "subdivdoublestar:2,3": 13,
             "coronastar:3": 8}
    assert {parse_family_spec(text).kind for text in specs} == set(KINDS)
    for text, order in specs.items():
        spec = parse_family_spec(text)
        g = generate(spec)
        assert spec.order == g.n == order, text
        assert order == 1 or g.min_degree() >= 1, text


def test_formula_values():
    assert formula_idrdn(FamilySpec("path", (9,))) == 9
    assert formula_idrdn(FamilySpec("path", (10,))) == 11
    assert formula_idrdn(FamilySpec("path", (1,))) == 2
    assert formula_idrdn(FamilySpec("cycle", (8,))) == 8
    assert formula_idrdn(FamilySpec("cycle", (11,))) == 12
    assert formula_idrdn(FamilySpec("complete", (5,))) == 3
    assert formula_idrdn(FamilySpec("complete_multipartite", (1, 4))) == 3
    assert formula_idrdn(FamilySpec("complete_multipartite", (2, 2, 5))) == 4
    assert formula_idrdn(FamilySpec("complete_multipartite", (3, 3))) == 6


def test_formula_unavailable_kinds_raise():
    for spec in (
        FamilySpec("star", (4,)),
        FamilySpec("double_star", (2, 3)),
        FamilySpec("subdivided_star", (5, 2)),
        FamilySpec("subdivided_double_star", (1, 1)),
        FamilySpec("corona_of_star", (3,)),
    ):
        with pytest.raises(ValueError, match="no closed form"):
            formula_idrdn(spec)
    with pytest.raises(ValueError, match="one-vertex complete"):
        formula_idrdn(FamilySpec("complete", (1,)))


def test_domain_errors_are_value_errors_of_their_own_type():
    # The CLI exits 4 on DomainError and 2 on any other ValueError.
    assert issubclass(DomainError, ValueError)
    for call, args in [
        (formula_idrdn, (FamilySpec("star", (4,)),)),
        (formula_idrdn, (FamilySpec("complete", (1,)),)),
        (classify_tree, (cycle_graph(5),)),
        (classify_tree, (path_graph(1),)),
        (classify_tree, (build_graph(0, []),)),
        (realize, (2, 4)),
    ]:
        with pytest.raises(DomainError):
            call(*args)
    with pytest.raises(ValueError) as exc:
        parse_family_spec("wheel:5")
    assert not isinstance(exc.value, DomainError)


def test_formula_agrees_with_the_solver():
    specs = [FamilySpec("path", (n,)) for n in range(1, 13)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 13)]
    specs += [FamilySpec("complete", (n,)) for n in range(2, 8)]
    specs += [
        FamilySpec("complete_multipartite", p)
        for p in [(1, 1), (1, 4), (2, 3), (2, 2, 5), (3, 3, 3), (1, 2, 3, 4)]
    ]
    for spec in specs:
        assert formula_idrdn(spec) == idrdn(generate(spec))[0], spec.text()


# ---------------------------------------------------------------------------
# tree classification
# ---------------------------------------------------------------------------


def test_classify_named_examples():
    assert classify_tree(path_graph(7)) == TreeClass("F_family", (1, 1))
    assert classify_tree(path_graph(6)) == TreeClass("neither", None)
    assert classify_tree(path_graph(9)) == TreeClass("neither", None)
    assert classify_tree(path_graph(4)) == TreeClass("T_family", (4, 1))
    assert classify_tree(path_graph(5)) == TreeClass("T_family", (5, 2))
    assert classify_tree(path_graph(3)) == TreeClass("T_family", (3, 0))
    assert classify_tree(path_graph(2)) == TreeClass("T_family", (2, 0))
    assert classify_tree(star_graph(5)) == TreeClass("T_family", (6, 0))
    assert classify_tree(double_star(2, 2)) == TreeClass("neither", None)
    assert classify_tree(
        generate(FamilySpec("subdivided_star", (12, 4)))
    ) == TreeClass("T_family", (12, 4))
    assert classify_tree(
        generate(FamilySpec("subdivided_double_star", (2, 3)))
    ) == TreeClass("F_family", (2, 3))


def test_classify_rejects_non_trees_and_tiny_input():
    with pytest.raises(ValueError, match="not a tree"):
        classify_tree(cycle_graph(5))
    with pytest.raises(ValueError, match="order >= 2"):
        classify_tree(path_graph(1))


def test_classify_error_messages():
    for g, message in (
        (build_graph(0, []), "tree test of an empty graph is undefined"),
        (cycle_graph(5), "input is not a tree"),
        (build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), "input is not a tree"),
        (path_graph(1), "classification needs order >= 2"),
    ):
        for _ in range(2):  # the walk's result is kept on the graph
            with pytest.raises(DomainError) as error:
                classify_tree(g)
            assert str(error.value) == message


def test_classify_round_trips_generated_members():
    for k in range(2, 11):
        for j in range((k - 1) // 2 + 1):
            spec = FamilySpec("subdivided_star", (k, j))
            got = classify_tree(generate(spec))
            assert got.membership == "T_family"
            if (k, j) == (3, 1):
                assert got.parameters == (3, 0)
            else:
                assert got.parameters == (k, j)
    for r in range(1, 4):
        for s in range(r, 5):
            spec = FamilySpec("subdivided_double_star", (r, s))
            got = classify_tree(generate(spec))
            assert got == TreeClass("F_family", (r, s))


@settings(max_examples=100, deadline=None)
@given(trees(min_n=2, max_n=10))
def test_classification_recovers_an_isomorphic_tree(t):
    got = classify_tree(t)
    if got.membership == "T_family":
        rebuilt = generate(FamilySpec("subdivided_star", got.parameters))
        assert certificate(rebuilt) == certificate(t)
    elif got.membership == "F_family":
        rebuilt = generate(FamilySpec("subdivided_double_star", got.parameters))
        assert certificate(rebuilt) == certificate(t)
    else:
        assert got.parameters is None


def family_of(t):
    got = classify_tree(t)
    return (got.membership, got.parameters)


def test_classify_matches_the_family_oracle_on_every_small_labeled_tree():
    count = 0
    for n in range(2, 7):
        for code in product(range(n), repeat=n - 2):
            t = prufer_decode(n, code)
            assert family_of(t) == tree_family(t.n, t.edges), (n, code)
            count += 1
    assert count == 1441


@settings(max_examples=150, deadline=None)
@given(trees(min_n=2, max_n=14))
@example(relabeled(path_graph(7), [3, 6, 0, 5, 1, 4, 2]))
@example(relabeled(generate(FamilySpec("subdivided_double_star", (2, 3))),
                   [12, 0, 7, 3, 9, 1, 11, 5, 2, 10, 4, 8, 6]))
@example(generate(FamilySpec("subdivided_double_star", (1, 4))))
@example(relabeled(generate(FamilySpec("subdivided_star", (9, 3))),
                   [8, 2, 5, 0, 7, 3, 1, 6, 4]))
def test_classify_matches_the_family_oracle(t):
    assert family_of(t) == tree_family(t.n, t.edges)


def test_center_search_tests_arms_only_at_wide_vertices(monkeypatch):
    # a center needs n - 1 <= 2 deg(c), so a random tree has no candidate and
    # a subdivided star has one, its center
    calls = []
    arm = families._arm

    def counted(adj, hub, x):
        calls.append(hub)
        return arm(adj, hub, x)

    monkeypatch.setattr(families, "_arm", counted)
    for seed in range(5):
        t = random_tree(3000, seed)
        assert t.max_degree() < 1499, seed
        calls.clear()
        assert families._recognize_center_tree(t) is None
        assert calls == [], seed
    calls.clear()
    star = generate(FamilySpec("subdivided_star", (3001, 1000)))
    assert families._recognize_center_tree(star) == (3001, 1000)
    assert len(calls) == 2000 and set(calls) == {0}


def free_trees(max_n):
    """One edge list per free tree of each order 1..max_n, grown one leaf at
    a time from the trees one order below and deduplicated by certificate."""
    levels = [[()]]
    for n in range(2, max_n + 1):
        seen = {}
        for edges in levels[-1]:
            for v in range(n - 1):
                grown = edges + ((v, n - 1),)
                seen.setdefault(tree_certificate(n, grown), grown)
        levels.append(list(seen.values()))
    return levels


def test_free_tree_scan_to_order_thirteen():
    # every free tree once (OEIS A000055); labeling invariance is left to
    # acceptance 6, whose Prüfer loop sees every labeled copy up to order 7
    levels = free_trees(13)
    assert [len(level) for level in levels] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301]
    gap_one_outside = Counter()
    for n, level in enumerate(levels[1:], start=2):
        for edges in level:
            t = build_graph(n, edges)
            i, i_r2, i_dr = tree_idn(t), tree_ir2dn(t), tree_idrdn(t)
            assert i + 1 <= i_r2, ("B9", edges)
            assert 2 * i + 1 <= i_dr, ("B10-lower", edges)
            assert i_dr <= 3 * i, ("B10-upper", edges)
            if classify_tree(t).membership != "neither":
                assert i_r2 == i + 1, edges
            elif i_r2 == i + 1:
                gap_one_outside[n] += 1
    assert [gap_one_outside[n] for n in range(2, 14)] == [
        0, 0, 0, 0, 1, 1, 3, 3, 7, 7, 13, 13]


def test_members_satisfy_the_gap_one_identity():
    for k in range(2, 15):
        for j in range((k - 1) // 2 + 1):
            g = generate(FamilySpec("subdivided_star", (k, j)))
            assert ir2dn(g)[0] == idn(g)[0] + 1, (k, j)
    for r in range(1, 6):
        for s in range(r, 6):
            g = generate(FamilySpec("subdivided_double_star", (r, s)))
            assert ir2dn(g)[0] == idn(g)[0] + 1, (r, s)


def test_gap_one_does_not_imply_membership():
    g = double_star(2, 2)
    assert ir2dn(g)[0] == idn(g)[0] + 1
    assert classify_tree(g).membership == "neither"


# ---------------------------------------------------------------------------
# realizing (idn, idrdn) pairs
# ---------------------------------------------------------------------------


def test_admissible_interval():
    assert admissible_interval(1) == (3, 3)
    assert admissible_interval(4) == (9, 12)


def test_realize_golden_cases():
    assert realize(1, 3).edges == ((0, 1),)
    assert realize(2, 5) == generate(FamilySpec("corona_of_star", (1,)))
    assert certificate(realize(2, 5)) == certificate(path_graph(4))
    assert realize(3, 7) == generate(FamilySpec("corona_of_star", (2,)))
    assert realize(3, 9).n == 8
    assert realize(4, 12).n == 2 * 4 + 1 + 2


def test_realize_rejects_inadmissible_pairs():
    for a, b in [(0, 3), (1, 2), (1, 4), (2, 4), (2, 7), (5, 10), (5, 16), (-1, 1)]:
        with pytest.raises(ValueError, match="inadmissible pair"):
            realize(a, b)
    with pytest.raises(ValueError, match=r"interval is \[5, 6\]"):
        realize(2, 7)


def test_realize_hits_both_targets_everywhere():
    # all 820 admissible pairs with a <= 40; the tree is in the T family
    # exactly when a = 1 or b <= 2a + 2
    for a in range(1, 41):
        lo, hi = admissible_interval(a)
        for b in range(lo, hi + 1):
            t = realize(a, b)
            assert t.is_tree()
            assert tree_idn(t) == a, (a, b)
            assert tree_idrdn(t) == b, (a, b)
            expected = "T_family" if a == 1 or b <= 2 * a + 2 else "neither"
            assert classify_tree(t).membership == expected, (a, b)


def test_realize_trees_match_exact_solvers_on_small_pairs():
    for a in range(1, 4):
        lo, hi = admissible_interval(a)
        for b in range(lo, hi + 1):
            t = realize(a, b)
            assert idn(t)[0] == a
            assert idrdn(t)[0] == b
