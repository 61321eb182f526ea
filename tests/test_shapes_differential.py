"""The one-sweep shape classifier against the predicate-by-predicate
oracle in ``tests/reference_graph.py`` (Table 4 and the §6.1 girth)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_graph as reference
from repro.analysis import shapes
from repro.analysis.graphutil import Multigraph
from repro.analysis.shapes import classify_shape

PREDICATES = (
    "is_single_edge",
    "is_chain",
    "is_chain_set",
    "is_star",
    "is_tree",
    "is_forest",
    "is_cycle",
    "is_petal",
    "is_flower",
    "is_flower_set",
)


def build(node_count, edges):
    graph = Multigraph()
    for node in range(node_count):
        graph.add_node(node)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def assert_matches_oracle(graph):
    assert classify_shape(graph) == reference.classify_shape(graph)
    for name in PREDICATES:
        assert getattr(shapes, name)(graph) == getattr(reference, name)(graph), name
    assert graph.girth() == reference.girth(graph)
    assert graph.is_acyclic_simple() == reference.is_acyclic_simple(graph)
    assert graph.has_parallel_edges() == reference.has_parallel_edges(graph)
    assert graph.is_connected() == reference.is_connected(graph)
    assert sorted(map(sorted, graph.connected_components())) == sorted(
        map(sorted, reference.connected_components(graph))
    )


@st.composite
def multigraphs(draw):
    """0–10 nodes (isolated ones included), self-loops, parallel edges."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return build(0, [])
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=16,
        )
    )
    return build(n, edges)


@st.composite
def flowers(draw):
    """A core with petals, stamens and stems, plus optional noise:
    dense in the flower/petal corner cases random graphs rarely hit."""
    edges, next_node = [], 1
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["petal", "stem", "loop", "theta"]))
        if kind == "loop":
            edges.append((0, 0))
            continue
        if kind == "stem":
            length = draw(st.integers(1, 3))
            chain = [0] + list(range(next_node, next_node + length))
            next_node += length
            edges += list(zip(chain, chain[1:]))
            continue
        tip = next_node
        next_node += 1
        for _ in range(draw(st.integers(2, 3)) if kind == "theta" else 2):
            inner = draw(st.integers(0, 2))
            path = [0] + list(range(next_node, next_node + inner)) + [tip]
            next_node += inner
            edges += list(zip(path, path[1:]))
    noise = draw(
        st.lists(
            st.tuples(st.integers(0, next_node - 1), st.integers(0, next_node - 1)),
            max_size=2,
        )
    )
    order = draw(st.permutations(range(next_node)))
    return build(next_node, [(order[u], order[v]) for u, v in edges + noise])


@settings(max_examples=400, deadline=None)
@given(multigraphs())
def test_random_multigraphs_match_oracle(graph):
    assert_matches_oracle(graph)


@settings(max_examples=300, deadline=None)
@given(flowers())
def test_flowers_match_oracle(graph):
    assert_matches_oracle(graph)


def test_seeded_random_multigraphs_match_oracle():
    rng = random.Random(16)
    for _ in range(1500):
        n = rng.randint(0, 10)
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 14) if n else 0)
        ]
        assert_matches_oracle(build(n, edges))


def test_large_random_tree_has_no_girth():
    rng = random.Random(300)
    graph = build(300, [(node, rng.randrange(node)) for node in range(1, 300)])
    assert graph.girth() is None
    profile = classify_shape(graph)
    assert profile.tree and profile.forest and profile.shortest_cycle is None
    assert_matches_oracle(graph)


def test_long_cycle_with_tail():
    cycle = [(i, (i + 1) % 40) for i in range(40)]
    tail = [(39 + i, 40 + i) for i in range(10)]
    graph = build(50, cycle + tail)
    assert graph.girth() == 40
    profile = classify_shape(graph)
    assert profile.flower and not profile.cycle and not profile.forest
    assert_matches_oracle(graph)


def test_theta_graph():
    # s=0 and t=1 joined by three internally disjoint paths.
    graph = build(6, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 1)])
    assert graph.girth() == 4
    assert shapes.is_petal(graph)
    assert classify_shape(graph).flower
    assert_matches_oracle(graph)


def test_triangle_plus_disjoint_edge():
    graph = build(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert graph.girth() == 3
    profile = classify_shape(graph)
    assert profile.flower_set and not profile.flower and not profile.forest
    assert_matches_oracle(graph)


@pytest.mark.parametrize(
    "edges, expected",
    [
        ([], None),
        ([(0, 0)], 1),
        ([(0, 1), (1, 0)], 2),
        ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 3),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7)], 6),
    ],
)
def test_girth_cases(edges, expected):
    graph = build(8, edges)
    assert graph.girth() == expected == reference.girth(graph)
