"""Reference shape classifier and girth (paper §6.1, Table 4).

``repro.analysis.shapes`` derives every Table 4 membership from one
sweep over a dense-int view of the canonical graph, and
``Multigraph.girth`` skips forests and prunes its BFS.  This module
keeps the predicate-by-predicate classifier and the every-node BFS
those replaced, as the oracle of ``tests/test_shapes_differential.py``.

Everything here reads a :class:`Multigraph` through its primitive
accessors only (nodes, neighbors, multiplicities, loops, degrees), so
none of the derived structure under test feeds the oracle.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set

from repro.analysis.graphutil import Multigraph
from repro.analysis.shapes import ShapeProfile


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------


def has_loops(graph: Multigraph) -> bool:
    return any(graph.loops_at(node) > 0 for node in graph.nodes())


def has_parallel_edges(graph: Multigraph) -> bool:
    return any(
        graph.multiplicity(u, v) > 1
        for u in graph.nodes()
        for v in graph.neighbors(u)
    )


def connected_components(graph: Multigraph) -> List[Set]:
    remaining = set(graph.nodes())
    components: List[Set] = []
    while remaining:
        start = next(iter(remaining))
        component = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
        remaining -= component
    return components


def is_connected(graph: Multigraph) -> bool:
    if graph.node_count() == 0:
        return True
    return len(connected_components(graph)) == 1


def induced_subgraph(graph: Multigraph, nodes) -> Multigraph:
    node_set = set(nodes)
    sub = Multigraph()
    for node in node_set:
        sub.add_node(node)
        for _ in range(graph.loops_at(node)):
            sub.add_edge(node, node)
    seen = set()
    for u in node_set:
        for v in graph.neighbors(u):
            if v in node_set:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    for _ in range(graph.multiplicity(u, v)):
                        sub.add_edge(u, v)
    return sub


def is_acyclic_simple(graph: Multigraph) -> bool:
    if has_loops(graph) or has_parallel_edges(graph):
        return False
    for component in connected_components(graph):
        edges = sum(
            1
            for u in component
            for v in graph.neighbors(u)
            if v in component
        ) // 2
        if edges != len(component) - 1:
            return False
    return True


def girth(graph: Multigraph) -> Optional[int]:
    """Shortest cycle by a full BFS from every node."""
    if has_loops(graph):
        return 1
    if has_parallel_edges(graph):
        return 2
    best: Optional[int] = None
    for start in graph.nodes():
        distance = {start: 0}
        parent = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    parent[neighbor] = node
                    queue.append(neighbor)
                elif parent[node] != neighbor:
                    cycle_length = distance[node] + distance[neighbor] + 1
                    if best is None or cycle_length < best:
                        best = cycle_length
    return best


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_single_edge(graph: Multigraph) -> bool:
    return (
        graph.edge_count() == 1
        and graph.node_count() == 2
        and not has_loops(graph)
    )


def is_chain(graph: Multigraph) -> bool:
    if not is_connected(graph):
        return False
    if has_loops(graph) or has_parallel_edges(graph):
        return False
    if graph.node_count() <= 1:
        return graph.edge_count() == 0
    degrees = [graph.simple_degree(node) for node in graph.nodes()]
    if any(degree > 2 for degree in degrees):
        return False
    return sum(1 for degree in degrees if degree == 1) == 2


def is_chain_set(graph: Multigraph) -> bool:
    return all(
        is_chain(induced_subgraph(graph, component))
        for component in connected_components(graph)
    )


def is_tree(graph: Multigraph) -> bool:
    if not is_connected(graph):
        return False
    if graph.node_count() == 0:
        return True
    return is_acyclic_simple(graph)


def is_forest(graph: Multigraph) -> bool:
    return is_acyclic_simple(graph)


def is_star(graph: Multigraph) -> bool:
    if not is_tree(graph):
        return False
    return sum(1 for node in graph.nodes() if graph.simple_degree(node) >= 3) == 1


def is_cycle(graph: Multigraph) -> bool:
    if graph.node_count() == 0:
        return False
    if not is_connected(graph):
        return False
    if graph.node_count() == 1:
        return graph.loops_at(graph.nodes()[0]) == 1 and graph.edge_count() == 1
    return (
        all(graph.degree(node) == 2 for node in graph.nodes())
        and graph.edge_count() == graph.node_count()
    )


def is_petal(graph: Multigraph) -> bool:
    return petal_endpoints(graph) is not None


def petal_endpoints(graph: Multigraph) -> Optional[Set]:
    if graph.node_count() < 2 or not is_connected(graph):
        return None
    if has_loops(graph):
        return None
    exceptional = [node for node in graph.nodes() if graph.degree(node) != 2]
    if not exceptional:
        if graph.edge_count() == graph.node_count():
            return set(graph.nodes())
        return None
    if len(exceptional) != 2:
        return None
    s, t = exceptional
    p = graph.degree(s)
    if graph.degree(t) != p or p < 3:
        return None
    direct = graph.multiplicity(s, t)
    interior = induced_subgraph(graph, set(graph.nodes()) - {s, t})
    path_count = direct
    for component in connected_components(interior):
        if not is_chain(induced_subgraph(interior, component)):
            return None
        attachments_s = sum(graph.multiplicity(node, s) for node in component)
        attachments_t = sum(graph.multiplicity(node, t) for node in component)
        if attachments_s != 1 or attachments_t != 1:
            return None
        path_count += 1
    if path_count != p:
        return None
    return {s, t}


def is_flower(graph: Multigraph) -> bool:
    if graph.node_count() == 0:
        return True
    if not is_connected(graph):
        return False
    if is_tree(graph):
        return True
    return any(_is_flower_with_core(graph, core) for core in graph.nodes())


def _is_flower_with_core(graph: Multigraph, core) -> bool:
    rest = induced_subgraph(graph, set(graph.nodes()) - {core})
    for component in connected_components(rest):
        attachment = _attachment_without_core_loops(graph, component, core)
        if is_acyclic_simple(attachment):
            continue
        endpoints = petal_endpoints(attachment)
        if endpoints is not None and core in endpoints:
            continue
        return False
    return True


def _attachment_without_core_loops(graph: Multigraph, component: Set, core) -> Multigraph:
    attachment = Multigraph()
    nodes = set(component) | {core}
    for node in nodes:
        attachment.add_node(node)
        if node != core:
            for _ in range(graph.loops_at(node)):
                attachment.add_edge(node, node)
    seen = set()
    for u in nodes:
        for v in graph.neighbors(u):
            if v in nodes and u != v:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    for _ in range(graph.multiplicity(u, v)):
                        attachment.add_edge(u, v)
    return attachment


def is_flower_set(graph: Multigraph) -> bool:
    return all(
        is_flower(induced_subgraph(graph, component))
        for component in connected_components(graph)
    )


def classify_shape(graph: Multigraph) -> ShapeProfile:
    """The classifier composed predicate by predicate."""
    single = is_single_edge(graph)
    chain = single or is_chain(graph)
    tree = chain or is_tree(graph)
    chain_set = chain or is_chain_set(graph)
    forest = tree or chain_set or is_forest(graph)
    star = is_star(graph)
    cycle = is_cycle(graph)
    flower = tree or cycle or is_flower(graph)
    flower_set = flower or forest or is_flower_set(graph)
    return ShapeProfile(
        single_edge=single,
        chain=chain,
        chain_set=chain_set,
        star=star,
        tree=tree,
        forest=forest,
        cycle=cycle,
        flower=flower,
        flower_set=flower_set,
        shortest_cycle=girth(graph),
    )
