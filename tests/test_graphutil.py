"""Unit tests for the multigraph utility."""

from repro.analysis.graphutil import Multigraph


def build(*edges):
    g = Multigraph()
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestBasics:
    def test_counts(self):
        g = build((1, 2), (2, 3))
        assert g.node_count() == 3
        assert g.edge_count() == 2

    def test_parallel_edges(self):
        g = build((1, 2), (1, 2))
        assert g.edge_count() == 2
        assert g.multiplicity(1, 2) == 2
        assert g.has_parallel_edges()

    def test_loops(self):
        g = build((1, 1))
        assert g.has_loops()
        assert g.loops_at(1) == 1
        assert g.degree(1) == 2  # loops count twice
        assert g.simple_degree(1) == 0

    def test_degree(self):
        g = build((1, 2), (1, 3), (1, 2))
        assert g.degree(1) == 3
        assert g.simple_degree(1) == 2

    def test_is_simple(self):
        assert build((1, 2), (2, 3)).is_simple()
        assert not build((1, 1)).is_simple()
        assert not build((1, 2), (1, 2)).is_simple()

    def test_add_node_isolated(self):
        g = Multigraph()
        g.add_node("x")
        assert g.node_count() == 1
        assert g.edge_count() == 0

    def test_edge_triples(self):
        g = build((1, 2), (1, 2), (2, 2))
        triples = list(g.edge_triples())
        assert (2, 2, 1) in triples  # the loop, multiplicity 1
        non_loops = [(u, v, m) for u, v, m in triples if u != v]
        assert len(non_loops) == 1
        assert non_loops[0][2] == 2  # parallel pair reported once, m=2


class TestComponents:
    def test_connected(self):
        assert build((1, 2), (2, 3)).is_connected()
        assert not build((1, 2), (3, 4)).is_connected()

    def test_empty_graph_connected(self):
        assert Multigraph().is_connected()

    def test_components(self):
        g = build((1, 2), (3, 4), (4, 5))
        components = sorted(g.connected_components(), key=len)
        assert [len(c) for c in components] == [2, 3]

    def test_copy(self):
        g = build((1, 2))
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.node_count() == 2
        assert clone.node_count() == 3


class TestAcyclicity:
    def test_forest(self):
        assert build((1, 2), (2, 3), (4, 5)).is_acyclic_simple()

    def test_cycle_not_acyclic(self):
        assert not build((1, 2), (2, 3), (3, 1)).is_acyclic_simple()

    def test_loop_not_acyclic(self):
        assert not build((1, 1)).is_acyclic_simple()

    def test_parallel_not_acyclic(self):
        assert not build((1, 2), (1, 2)).is_acyclic_simple()


class TestGirth:
    def test_acyclic_girth_none(self):
        assert build((1, 2), (2, 3)).girth() is None

    def test_triangle(self):
        assert build((1, 2), (2, 3), (3, 1)).girth() == 3

    def test_square(self):
        assert build((1, 2), (2, 3), (3, 4), (4, 1)).girth() == 4

    def test_loop_is_one(self):
        assert build((1, 1), (1, 2)).girth() == 1

    def test_parallel_is_two(self):
        assert build((1, 2), (1, 2)).girth() == 2

    def test_shortest_of_two_cycles(self):
        g = build(
            (1, 2), (2, 3), (3, 1),  # triangle
            (3, 4), (4, 5), (5, 6), (6, 3),  # square
        )
        assert g.girth() == 3

    def test_long_cycle(self):
        edges = [(i, i + 1) for i in range(13)] + [(13, 0)]
        assert build(*edges).girth() == 14
