"""Shared graph builders and hypothesis strategies."""

from hypothesis import strategies as st

from idrd import build_graph, prufer_decode


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n):
    return build_graph(n, [])


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph():
    return build_graph(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ])


def double_star(r, s):
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, r + 2 + i) for i in range(s)]
    return build_graph(r + s + 2, edges)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return build_graph(n, edges)


@st.composite
def trees(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return build_graph(1, [])
    size = max(0, n - 2)
    code = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    return prufer_decode(n, code)
