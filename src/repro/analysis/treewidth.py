"""Exact treewidth for small graphs (paper §6.2).

The paper reports that all CQ-like queries have treewidth ≤ 2 except a
single treewidth-3 query (Figure 7).  We therefore need *decisions* for
small widths on small graphs:

* width ≤ 1 — the graph is a forest;
* width ≤ 2 — the classical reduction: repeatedly delete vertices of
  degree ≤ 1 and contract vertices of degree 2 (a graph has treewidth
  ≤ 2 iff this empties it — equivalently, iff it has no K4 minor);
* general k — elimination-order search with memoization, feasible for
  the handful of residual graphs (canonical graphs of real queries have
  at most a few dozen nodes once the tw ≤ 2 sieve has run).

Loops and edge multiplicities never affect treewidth, so everything
operates on the simplified graph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from .graphutil import Multigraph

__all__ = ["treewidth", "treewidth_at_most_2", "TreewidthResult"]


class TreewidthResult:
    """Treewidth value plus whether it is exact or an upper bound."""

    __slots__ = ("width", "exact")

    def __init__(self, width: int, exact: bool) -> None:
        self.width = width
        self.exact = exact

    def __repr__(self) -> str:
        marker = "" if self.exact else "<="
        return f"TreewidthResult({marker}{self.width})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TreewidthResult):
            return self.width == other.width and self.exact == other.exact
        return NotImplemented


def _simple_adjacency(graph: Multigraph) -> Dict[int, Set[int]]:
    """The simplified graph over the multigraph's dense node ids."""
    return {node: set(row) for node, row in enumerate(graph.facts().adjacency)}


def treewidth_at_most_2(graph: Multigraph) -> bool:
    """Decide tw(G) ≤ 2 by degree-≤2 reduction (no-K4-minor test)."""
    adjacency = _simple_adjacency(graph)
    queue = [node for node, nbrs in adjacency.items() if len(nbrs) <= 2]
    while queue:
        node = queue.pop()
        neighbors = adjacency.get(node)
        if neighbors is None or len(neighbors) > 2:
            continue
        if len(neighbors) == 2:
            a, b = neighbors
            adjacency[a].add(b)
            adjacency[b].add(a)
        for neighbor in neighbors:
            adjacency[neighbor].discard(node)
            if len(adjacency[neighbor]) <= 2:
                queue.append(neighbor)
        del adjacency[node]
    return not adjacency


def _eliminate(adjacency: Dict[object, Set[object]], node: object) -> None:
    """Remove *node*, connecting its neighbors into a clique (in place)."""
    neighbors = adjacency.pop(node)
    neighbor_list = list(neighbors)
    for i, u in enumerate(neighbor_list):
        adjacency[u].discard(node)
        for v in neighbor_list[i + 1 :]:
            adjacency[u].add(v)
            adjacency[v].add(u)


def _decide_width(
    adjacency: Dict[object, Set[object]],
    k: int,
    memo: Dict[FrozenSet[object], bool],
) -> bool:
    """Is there an elimination order where every vertex has ≤ k
    neighbors when eliminated?  (Equivalent to tw ≤ k.)"""
    # Greedily eliminate forced vertices (degree ≤ 1 is always safe,
    # and simplicial vertices of degree ≤ k are safe) to shrink the
    # search space.
    while True:
        forced = None
        for node, neighbors in adjacency.items():
            if len(neighbors) <= 1:
                forced = node
                break
            if len(neighbors) <= k and _is_simplicial(adjacency, node):
                forced = node
                break
        if forced is None:
            break
        _eliminate(adjacency, forced)
    if not adjacency:
        return True
    key = frozenset(adjacency)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = False
    candidates = sorted(
        (node for node, nbrs in adjacency.items() if len(nbrs) <= k),
        key=lambda node: len(adjacency[node]),
    )
    for node in candidates:
        branch = {u: set(vs) for u, vs in adjacency.items()}
        _eliminate(branch, node)
        if _decide_width(branch, k, memo):
            result = True
            break
    memo[key] = result
    return result


def _is_simplicial(adjacency: Dict[object, Set[object]], node: object) -> bool:
    neighbors = list(adjacency[node])
    for i, u in enumerate(neighbors):
        for v in neighbors[i + 1 :]:
            if v not in adjacency[u]:
                return False
    return True


def _min_fill_upper_bound(adjacency: Dict[object, Set[object]]) -> int:
    """Min-fill greedy elimination: classic treewidth upper bound."""
    adjacency = {u: set(vs) for u, vs in adjacency.items()}
    width = 0
    while adjacency:
        best_node = None
        best_fill = None
        for node, neighbors in adjacency.items():
            neighbor_list = list(neighbors)
            fill = sum(
                1
                for i, u in enumerate(neighbor_list)
                for v in neighbor_list[i + 1 :]
                if v not in adjacency[u]
            )
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_node = node
        width = max(width, len(adjacency[best_node]))
        _eliminate(adjacency, best_node)
    return width


def treewidth(graph: Multigraph, exact_limit: int = 40) -> TreewidthResult:
    """Compute the treewidth of *graph*.

    Graphs with at most *exact_limit* nodes remaining after the cheap
    sieves get an exact answer; larger ones fall back to the min-fill
    upper bound (``exact=False``).  The sieves decide widths 0–2
    without any search, which covers >99.9% of real query graphs.
    """
    facts = graph.facts()
    simple_edges = sum(facts.component_edges)
    if simple_edges == 0:
        return TreewidthResult(0, True)
    # The simplified graph (loops and multiplicity dropped, which never
    # change treewidth) is a forest iff it has V - C edges.
    if simple_edges == facts.node_count - len(facts.components):
        return TreewidthResult(1, True)
    if treewidth_at_most_2(graph):
        return TreewidthResult(2, True)
    adjacency = _simple_adjacency(graph)
    if graph.node_count() > exact_limit:
        return TreewidthResult(_min_fill_upper_bound(adjacency), False)
    upper = _min_fill_upper_bound(adjacency)
    for k in range(3, upper):
        branch = {u: set(vs) for u, vs in adjacency.items()}
        if _decide_width(branch, k, {}):
            return TreewidthResult(k, True)
    return TreewidthResult(upper, True)

