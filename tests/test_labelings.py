"""Labeling objects and the validity checks behind each invariant."""

import pytest
from hypothesis import given, strategies as st

from idrd import (
    DRLabeling,
    R2Labeling,
    RainbowLabeling,
    ValidationResult,
    build_graph,
    is_2rdf,
    is_drdf,
    is_i2rdf,
    is_idrdf,
    is_ir2df,
    is_r2df,
)

from conftest import cycle_graph, graphs, path_graph

from oracles import adjacency, dr_valid, positive_independent, r2_valid, rainbow_valid


def test_dr_labeling_basics():
    f = DRLabeling([0, 3, 0, 2])
    assert f.order == 4
    assert f.weight() == 5
    assert f.positive_vertices() == frozenset({1, 3})
    assert f.witness_text() == "0 0\n1 3\n2 0\n3 2\n"
    assert f == DRLabeling((0, 3, 0, 2))
    assert f != DRLabeling((0, 3, 0, 3))
    assert len({f, DRLabeling([0, 3, 0, 2])}) == 1
    assert "DRLabeling" in repr(f)


def test_dr_labeling_rejects_values_outside_range():
    with pytest.raises(ValueError, match="not in"):
        DRLabeling([0, 4])
    with pytest.raises(ValueError, match="not in"):
        DRLabeling([-1])


def test_r2_labeling_restricts_to_two():
    f = R2Labeling([2, 0, 1])
    assert f.weight() == 3
    with pytest.raises(ValueError, match="not in"):
        R2Labeling([0, 3])
    assert f != DRLabeling([2, 0, 1])


def test_rainbow_labeling_basics():
    f = RainbowLabeling([{1}, set(), {1, 2}])
    assert f.order == 3
    assert f.weight() == 3
    assert f.positive_vertices() == frozenset({0, 2})
    assert f.witness_text() == "0 {1}\n1 {}\n2 {1,2}\n"
    assert f == RainbowLabeling([frozenset({1}), frozenset(), {2, 1}])
    assert repr(f) == "RainbowLabeling([{1}, set(), {1, 2}])"
    with pytest.raises(ValueError, match="not a subset"):
        RainbowLabeling([{3}])


def test_validation_result_is_truthy_only_on_success():
    assert ValidationResult(True)
    bad = ValidationResult(False, 4, "undefended-zero")
    assert not bad
    assert bad.vertex == 4
    assert bad.clause == "undefended-zero"


def test_drdf_examples_and_clauses():
    p3 = path_graph(3)
    assert is_drdf(p3, DRLabeling([0, 3, 0]))
    bad = is_drdf(p3, DRLabeling([0, 2, 0]))
    assert not bad and bad.vertex == 0 and bad.clause == "undefended-zero"
    bad = is_drdf(p3, DRLabeling([1, 0, 3]))
    assert not bad and bad.vertex == 0 and bad.clause == "undefended-one"
    assert is_drdf(cycle_graph(4), DRLabeling([2, 0, 2, 0]))
    bad = is_drdf(p3, DRLabeling([0, 3]))
    assert not bad and bad.vertex is None and bad.clause == "size-mismatch"


def test_idrdf_requires_independence():
    p2 = path_graph(2)
    assert is_drdf(p2, DRLabeling([1, 2]))
    bad = is_idrdf(p2, DRLabeling([1, 2]))
    assert not bad and bad.vertex == 0 and bad.clause == "positive-set-not-independent"
    assert is_idrdf(path_graph(3), DRLabeling([0, 3, 0]))


def test_r2df_examples_and_clauses():
    c4 = cycle_graph(4)
    assert is_r2df(c4, R2Labeling([1, 0, 1, 0]))
    assert is_ir2df(c4, R2Labeling([1, 0, 1, 0]))
    bad = is_r2df(path_graph(3), R2Labeling([0, 1, 0]))
    assert not bad and bad.vertex == 0 and bad.clause == "zero-sum-below-two"
    bad = is_ir2df(path_graph(2), R2Labeling([1, 1]))
    assert not bad and bad.clause == "positive-set-not-independent"


def test_rainbow_examples_and_clauses():
    c4 = cycle_graph(4)
    good = RainbowLabeling([{1}, set(), {2}, set()])
    assert is_2rdf(c4, good)
    assert is_i2rdf(c4, good)
    bad = is_2rdf(path_graph(3), RainbowLabeling([{1}, set(), {1}]))
    assert not bad and bad.vertex == 1 and bad.clause == "rainbow-union-incomplete"
    bad = is_i2rdf(path_graph(2), RainbowLabeling([{1}, {2}]))
    assert not bad and bad.clause == "positive-set-not-independent"


def test_zero_vertex_with_no_neighbors_is_invalid():
    lone = build_graph(1, [])
    assert not is_drdf(lone, DRLabeling([0]))
    assert not is_r2df(lone, R2Labeling([0]))
    assert not is_2rdf(lone, RainbowLabeling([set()]))
    assert is_drdf(lone, DRLabeling([2]))


@st.composite
def graph_with_values(draw, choices):
    g = draw(graphs(max_n=6))
    vals = tuple(draw(st.sampled_from(choices)) for _ in range(g.n))
    return g, vals


@given(graph_with_values((0, 1, 2, 3)))
def test_drdf_check_agrees_with_definition(case):
    g, vals = case
    adj = adjacency(g.n, g.edges)
    expected = dr_valid(adj, vals)
    assert bool(is_drdf(g, DRLabeling(vals))) == expected
    ind = positive_independent(adj, vals)
    assert bool(is_idrdf(g, DRLabeling(vals))) == (expected and ind)


@given(graph_with_values((0, 1, 2)))
def test_r2df_check_agrees_with_definition(case):
    g, vals = case
    adj = adjacency(g.n, g.edges)
    expected = r2_valid(adj, vals)
    assert bool(is_r2df(g, R2Labeling(vals))) == expected
    ind = positive_independent(adj, vals)
    assert bool(is_ir2df(g, R2Labeling(vals))) == (expected and ind)


_RAINBOW_SETS = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))


@given(graph_with_values(_RAINBOW_SETS))
def test_rainbow_check_agrees_with_definition(case):
    g, vals = case
    adj = adjacency(g.n, g.edges)
    expected = rainbow_valid(adj, vals)
    assert bool(is_2rdf(g, RainbowLabeling(vals))) == expected
    ind = positive_independent(adj, vals)
    assert bool(is_i2rdf(g, RainbowLabeling(vals))) == (expected and ind)


_VALIDATORS = (
    (is_drdf, DRLabeling, (0, 1, 2, 3), False),
    (is_idrdf, DRLabeling, (0, 1, 2, 3), True),
    (is_r2df, R2Labeling, (0, 1, 2), False),
    (is_ir2df, R2Labeling, (0, 1, 2), True),
    (is_2rdf, RainbowLabeling, _RAINBOW_SETS, False),
    (is_i2rdf, RainbowLabeling, _RAINBOW_SETS, True),
)


def _broken_clause(shape, x, around):
    """The clause a vertex labeled x, with neighbor labels `around`, breaks."""
    if shape is RainbowLabeling:
        return "rainbow-union-incomplete" if not x and set().union(*around) != {1, 2} else None
    if shape is R2Labeling:
        return "zero-sum-below-two" if x == 0 and sum(around) < 2 else None
    if x == 0 and 3 not in around and around.count(2) < 2:
        return "undefended-zero"
    if x == 1 and all(y < 2 for y in around):
        return "undefended-one"
    return None


@pytest.mark.parametrize(
    "check, shape, choices, independent", _VALIDATORS, ids=[v[0].__name__ for v in _VALIDATORS])
@given(data=st.data())
def test_every_validator_reports_its_first_violation(check, shape, choices, independent, data):
    g = data.draw(graphs(min_n=0, max_n=6))
    size = data.draw(st.sampled_from((g.n, g.n, g.n, g.n + 1, abs(g.n - 1))))
    vals = [data.draw(st.sampled_from(choices)) for _ in range(size)]
    adj = adjacency(g.n, g.edges)
    expected = (True, None, None)
    if size != g.n:
        expected = (False, None, "size-mismatch")
    else:
        clashes = [min(e) for e in sorted(g.edges) if vals[e[0]] and vals[e[1]]]
        if independent and clashes:
            expected = (False, clashes[0], "positive-set-not-independent")
        else:
            for v in range(g.n):
                clause = _broken_clause(shape, vals[v], [vals[u] for u in sorted(adj[v])])
                if clause is not None:
                    expected = (False, v, clause)
                    break
    got = check(g, shape(vals))
    assert (got.ok, got.vertex, got.clause) == expected
