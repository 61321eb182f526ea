"""Undirected multigraph used by the shape and width analyses.

Canonical graphs of queries (paper §5) are *pseudographs*: they can have
self-loops (a triple ``?x :p ?x``) and parallel edges (two triples
between the same pair of nodes), and both matter for shape
classification — e.g. two parallel edges form a cycle of length two.

Nodes are relabeled to dense ints as they are added, so the graph
algorithms hash ints rather than RDF term dataclasses.  Everything the
shape classes and the girth need is derived in one sweep,
:class:`GraphFacts`, computed at most once per graph state.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

__all__ = ["GraphFacts", "Multigraph"]

Node = Hashable


class Multigraph:
    """An undirected multigraph with loops.

    Nodes are arbitrary hashables.  Edges are unordered pairs stored
    with multiplicity; ``add_edge(u, u)`` records a self-loop.
    """

    def __init__(self) -> None:
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        #: Per node id: neighbor id -> multiplicity (loops excluded),
        #: in order of each pair's first edge.
        self._adjacency: List[Dict[int, int]] = []
        #: Node id -> loop count, in order of each node's first loop.
        self._loops: Dict[int, int] = {}
        self._edge_count = 0
        self._facts: Optional[GraphFacts] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _id(self, node: Node) -> int:
        index = self._index.get(node)
        if index is None:
            index = self._index[node] = len(self._nodes)
            self._nodes.append(node)
            self._adjacency.append({})
            self._facts = None
        return index

    def add_node(self, node: Node) -> None:
        """Ensure *node* exists (isolated nodes are legal)."""
        self._id(node)

    def add_edge(self, u: Node, v: Node) -> None:
        """Add one undirected edge (parallel edges accumulate)."""
        iu, iv = self._id(u), self._id(v)
        if iu == iv:
            self._loops[iu] = self._loops.get(iu, 0) + 1
        else:
            row_u, row_v = self._adjacency[iu], self._adjacency[iv]
            row_u[iv] = row_u.get(iv, 0) + 1
            row_v[iu] = row_v.get(iu, 0) + 1
        self._edge_count += 1
        self._facts = None

    def copy(self) -> "Multigraph":
        """An independent deep copy of the multigraph."""
        clone = Multigraph()
        for node in self._nodes:
            clone.add_node(node)
        for u, v, multiplicity in self.edge_triples():
            for _ in range(multiplicity):
                clone.add_edge(u, v)
        return clone

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes)

    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """Total number of edges, counting multiplicity and loops."""
        return self._edge_count

    def has_node(self, node: Node) -> bool:
        """Whether *node* is present."""
        return node in self._index

    def _row(self, node: Node) -> Dict[int, int]:
        index = self._index.get(node)
        return {} if index is None else self._adjacency[index]

    def neighbors(self, node: Node) -> List[Node]:
        """Distinct neighbors, excluding the node itself."""
        return [self._nodes[v] for v in self._row(node)]

    def multiplicity(self, u: Node, v: Node) -> int:
        """Number of parallel edges between *u* and *v*."""
        if u == v:
            return self.loops_at(u)
        iv = self._index.get(v)
        return 0 if iv is None else self._row(u).get(iv, 0)

    def loops_at(self, node: Node) -> int:
        """Number of self-loops at *node*."""
        index = self._index.get(node)
        return 0 if index is None else self._loops.get(index, 0)

    def degree(self, node: Node) -> int:
        """Degree with loops counted twice (graph-theory convention)."""
        return sum(self._row(node).values()) + 2 * self.loops_at(node)

    def simple_degree(self, node: Node) -> int:
        """Number of distinct neighbors (loops and multiplicity ignored)."""
        return len(self._row(node))

    def edge_triples(self) -> Iterator[Tuple[Node, Node, int]]:
        """Yield (u, v, multiplicity) once per unordered pair, plus
        (u, u, loop-count) for loops, in :meth:`id_triples` order."""
        nodes = self._nodes
        for u, v, multiplicity in self.id_triples():
            yield nodes[u], nodes[v], multiplicity

    def id_triples(self) -> Iterator[Tuple[int, int, int]]:
        """:meth:`edge_triples` over dense node ids (insertion ranks).

        A pair is reported from its endpoint inserted first; loops
        follow in the order their nodes first got one."""
        for u, row in enumerate(self._adjacency):
            for v, multiplicity in row.items():
                if u < v:
                    yield u, v, multiplicity
        for node, loops in self._loops.items():
            yield node, node, loops

    def has_loops(self) -> bool:
        """Whether any node has a self-loop."""
        return bool(self._loops)

    def has_parallel_edges(self) -> bool:
        """Whether any node pair is joined by more than one edge."""
        return self.facts().has_parallel

    def is_simple(self) -> bool:
        """Whether the graph has neither loops nor parallel edges."""
        return not self.has_loops() and not self.has_parallel_edges()

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def facts(self) -> "GraphFacts":
        """The one-sweep structural facts, memoized until the next edit."""
        if self._facts is None:
            self._facts = GraphFacts(self._adjacency, self._loops, self._edge_count)
        return self._facts

    def connected_components(self) -> List[Set[Node]]:
        """The connected components, as node sets in discovery order."""
        nodes = self._nodes
        return [
            {nodes[member] for member in component}
            for component in self.facts().components
        ]

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        return len(self.facts().components) <= 1

    def is_acyclic_simple(self) -> bool:
        """True when the graph is a simple forest (no loops, no
        parallel edges, no cycles)."""
        return self.facts().forest

    def girth(self) -> Optional[int]:
        """Length of the shortest cycle; ``None`` if acyclic.

        Self-loops have girth 1 and parallel edges girth 2.
        """
        facts = self.facts()
        if facts.has_loops:
            return 1
        if facts.has_parallel:
            return 2
        if facts.forest:
            return None
        adjacency = facts.adjacency
        best = facts.node_count + 1  # longer than any cycle
        for component, simple_edges in zip(facts.components, facts.component_edges):
            if simple_edges < len(component):
                continue  # a tree: no start in it closes a cycle
            for start in component:
                best = _shortest_cycle_through_bfs(adjacency, start, best)
                if best == 3:
                    return 3  # no simple graph does better
        return best

    def __repr__(self) -> str:
        return f"Multigraph(nodes={self.node_count()}, edges={self.edge_count()})"


def _shortest_cycle_through_bfs(
    adjacency: List[Dict[int, int]], start: int, best: int
) -> int:
    """BFS from *start* over a simple graph; a non-tree edge closing at
    depths d1, d2 witnesses a cycle of length d1 + d2 + 1.  A node at
    depth d closes nothing shorter than 2d, so the search stops once
    2d reaches *best*.  Returns the improved bound."""
    distance = {start: 0}
    parent = {start: -1}
    queue = [start]
    for node in queue:
        depth = distance[node]
        if 2 * depth >= best:
            break
        for neighbor in adjacency[node]:
            seen = distance.get(neighbor)
            if seen is None:
                distance[neighbor] = depth + 1
                parent[neighbor] = node
                queue.append(neighbor)
            elif parent[node] != neighbor and depth + seen + 1 < best:
                best = depth + seen + 1
    return best


class GraphFacts:
    """One sweep over a multigraph's dense-int view.

    Holds the int adjacency itself plus everything derived from it in a
    single pass: connected components with their simple edge counts,
    multigraph degrees (loops count twice), and whether any pair has
    parallel edges.  A simple graph is a forest iff its simple edge
    count is ``V − C``.
    """

    def __init__(
        self, adjacency: List[Dict[int, int]], loops: Dict[int, int], edge_count: int
    ) -> None:
        node_count = len(adjacency)
        #: Per node id: neighbor id -> multiplicity, loops excluded.
        self.adjacency = adjacency
        #: Node id -> loop count (only nodes with loops).
        self.loops = loops
        self.node_count = node_count
        #: Total edges, counting multiplicity and loops.
        self.edge_count = edge_count
        degrees = [sum(row.values()) for row in adjacency]
        # A row weighing more than its length holds a parallel pair.
        has_parallel = any(
            weight != len(row) for weight, row in zip(degrees, adjacency)
        )
        for node, count in loops.items():
            degrees[node] += 2 * count
        #: Per node id: multigraph degree, loops counted twice.
        self.degrees = degrees
        seen = [False] * node_count
        components: List[List[int]] = []
        component_edges: List[int] = []
        for start in range(node_count):
            if seen[start]:
                continue
            seen[start] = True
            members = [start]
            incidences = 0
            for node in members:  # grows while iterated: a BFS queue
                row = adjacency[node]
                incidences += len(row)
                for neighbor in row:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        members.append(neighbor)
            components.append(members)
            component_edges.append(incidences // 2)
        #: Node-id lists, in discovery order from the lowest id.
        self.components = components
        #: Distinct non-loop node pairs per component.
        self.component_edges = component_edges
        self.has_loops = bool(loops)
        self.has_parallel = has_parallel
        #: A simple forest: no loops, no parallel edges, no cycles.
        self.forest = (
            not loops
            and not has_parallel
            and sum(component_edges) == node_count - len(components)
        )
