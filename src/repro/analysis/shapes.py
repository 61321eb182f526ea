"""Shape classification of canonical graphs (paper §6.1, Table 4).

Implements the paper's shape taxonomy over pseudographs:

* **single edge** — one edge between two distinct nodes;
* **chain** — a path graph (a single edge is a chain of length 1);
* **chain set** — every connected component is a chain;
* **star** — a tree with exactly one node of degree ≥ 3;
* **tree** — connected, simple, acyclic;
* **forest** — every component is a tree;
* **cycle** — a single (multigraph) cycle; parallel edges form a cycle
  of length 2 and a self-loop one of length 1;
* **petal** (Definition 6.1) — two nodes s, t joined by ≥ 2 internally
  node-disjoint paths (a cycle is a petal);
* **flower** (Definition 6.1) — a node x with chain attachments
  (*stamens*), tree attachments (*stems*), and petal attachments
  (all petals rooted at x); every tree is a flower (zero petals);
* **flower set** — every component is a flower.

These predicates are arranged exactly so Table 4's rows are cumulative:
single edge ⊆ chain ⊆ chain set ⊆ flower set, star ⊆ tree ⊆ forest ⊆
flower set, cycle ⊆ petal ⊆ flower ⊆ flower set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from .graphutil import GraphFacts, Multigraph

__all__ = [
    "ShapeProfile",
    "classify_shape",
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
    "SHAPE_ORDER",
]

#: Row order of Table 4.
SHAPE_ORDER = (
    "single edge",
    "chain",
    "chain set",
    "star",
    "tree",
    "forest",
    "cycle",
    "flower",
    "flower set",
)


# Every predicate reads the graph's one-sweep facts (its dense-int
# view, memoized on the graph), and :func:`classify_shape` composes the
# same predicates, so each shape concept has exactly one implementation.


def is_single_edge(graph: Multigraph) -> bool:
    """Whether the graph is one edge (possibly a loop), Table 4 row 1."""
    facts = graph.facts()
    return facts.edge_count == 1 and facts.node_count == 2 and not facts.has_loops


def is_chain(graph: Multigraph) -> bool:
    """A path graph.  A single node without edges counts as a trivial
    chain (length 0); this only matters for constants-excluded graphs."""
    facts = graph.facts()
    if len(facts.components) > 1 or facts.has_loops or facts.has_parallel:
        return False
    if facts.node_count <= 1:
        return facts.edge_count == 0
    endpoints = 0
    for row in facts.adjacency:
        if len(row) > 2:
            return False
        if len(row) == 1:
            endpoints += 1
    # A connected, max-degree-2, simple graph is a path iff it has two
    # endpoints (otherwise it is a cycle).
    return endpoints == 2


def is_chain_set(graph: Multigraph) -> bool:
    """Whether every component is a chain."""
    # Components of a simple forest with at most two neighbors per node
    # are paths or isolated nodes.
    facts = graph.facts()
    return facts.forest and all(len(row) <= 2 for row in facts.adjacency)


def is_tree(graph: Multigraph) -> bool:
    """Whether the graph is a single tree."""
    facts = graph.facts()
    return len(facts.components) <= 1 and facts.forest


def is_forest(graph: Multigraph) -> bool:
    """Whether every component is a tree."""
    return graph.facts().forest


def is_star(graph: Multigraph) -> bool:
    """A tree with exactly one node having more than two neighbors."""
    if not is_tree(graph):
        return False
    return sum(1 for row in graph.facts().adjacency if len(row) >= 3) == 1


def is_cycle(graph: Multigraph) -> bool:
    """A single closed walk visiting every node: connected with every
    node of (multigraph) degree exactly 2 and |E| = |V|."""
    facts = graph.facts()
    if facts.node_count == 0 or len(facts.components) > 1:
        return False
    if facts.node_count == 1:
        return facts.loops.get(0, 0) == 1 and facts.edge_count == 1
    return (
        all(degree == 2 for degree in facts.degrees)
        and facts.edge_count == facts.node_count
    )


def is_petal(graph: Multigraph) -> bool:
    """s and t joined by at least two internally node-disjoint paths."""
    facts = graph.facts()
    if facts.node_count < 2 or len(facts.components) > 1 or facts.has_loops:
        return False
    nodes = range(facts.node_count)
    return _petal_endpoints(nodes, facts.adjacency, facts.degrees) is not None


def is_flower(graph: Multigraph) -> bool:
    """Is there a core x making every attachment a chain, tree or petal
    rooted at x?  Trees are flowers; so are cycles (x on the cycle)."""
    facts = graph.facts()
    if facts.node_count == 0:
        return True
    return len(facts.components) == 1 and _flower_component(facts, facts.components[0])


def is_flower_set(graph: Multigraph) -> bool:
    """Whether every component is a flower (petals + external chains)."""
    facts = graph.facts()
    return all(_flower_component(facts, component) for component in facts.components)


def _petal_endpoints(
    nodes: Sequence[int],
    adjacency: Mapping[int, Mapping[int, int]],
    degrees: Mapping[int, int],
) -> Optional[Set[int]]:
    """Return {s, t} when the graph on *nodes* is a petal (all nodes of
    a cycle when it is one), else None.

    The graph must be connected and loop-free, with at least two nodes;
    ``adjacency[v]`` maps v's neighbors among *nodes* to multiplicities.
    """
    exceptional = [node for node in nodes if degrees[node] != 2]
    if not exceptional:
        return set(nodes)  # a plain cycle: any two nodes work as s/t
    if len(exceptional) != 2:
        return None
    s, t = exceptional
    p = degrees[s]
    if degrees[t] != p or p < 3:
        return None
    # Every maximal degree-2 path must run from s to t (no s–s or t–t
    # lobes), and together with direct s–t edges there must be p paths.
    path_count = adjacency[s].get(t, 0)
    for component in _parts_without(nodes, adjacency, (s, t)):
        if not _is_path_from_s_to_t(component, adjacency, s, t):
            return None
        path_count += 1
    if path_count != p:
        return None
    return {s, t}


def _parts_without(
    nodes: Iterable[int], adjacency: Mapping[int, Mapping[int, int]], removed: Iterable[int]
) -> Iterator[List[int]]:
    """The connected components of the graph on *nodes* once the
    *removed* nodes are deleted."""
    seen = set(removed)
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        part = [start]
        for node in part:  # grows while iterated: a BFS queue
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    part.append(neighbor)
        yield part


def _is_path_from_s_to_t(
    component: List[int], adjacency: Mapping[int, Mapping[int, int]], s: int, t: int
) -> bool:
    """Whether an interior component is a chain attached by exactly one
    edge to each of s and t."""
    to_s = to_t = endpoints = 0
    for node in component:
        inner = 0
        for neighbor, multiplicity in adjacency[node].items():
            if neighbor == s:
                to_s += multiplicity
            elif neighbor == t:
                to_t += multiplicity
            elif multiplicity > 1:
                return False
            else:
                inner += 1
        if inner > 2:
            return False
        if inner == 1:
            endpoints += 1
    return to_s == 1 and to_t == 1 and (len(component) == 1 or endpoints == 2)


def _flower_component(facts: GraphFacts, component: List[int]) -> bool:
    """Whether the subgraph on one connected *component* is a flower."""
    degrees = facts.degrees
    # A connected multigraph with |V| - 1 edges (loops and multiplicity
    # counted) is a tree.
    if sum(degrees[node] for node in component) == 2 * (len(component) - 1):
        return True
    return any(_is_flower_with_core(facts, component, core) for core in component)


def _is_flower_with_core(facts: GraphFacts, component: List[int], core: int) -> bool:
    # Loops directly at the core are length-1 petals: strip them before
    # examining attachments (they would otherwise spoil every test).
    adjacency, degrees, loops = facts.adjacency, facts.degrees, facts.loops
    for part in _parts_without(component, adjacency, (core,)):
        # The attachment is the part plus the core, without core loops;
        # it is connected, so it is a tree iff it has |part| edges.
        core_row = {
            node: adjacency[node][core] for node in part if core in adjacency[node]
        }
        to_core = sum(core_row.values())
        if (sum(degrees[node] for node in part) + to_core) // 2 == len(part):
            continue  # stamen (chain) or stem (tree)
        if any(node in loops for node in part):
            return False
        local_adjacency = {node: adjacency[node] for node in part}
        local_adjacency[core] = core_row
        local_degrees = {node: degrees[node] for node in part}
        local_degrees[core] = to_core
        endpoints = _petal_endpoints([core] + part, local_adjacency, local_degrees)
        if endpoints is None or core not in endpoints:
            return False  # not a petal rooted at the core
    return True


@dataclass(frozen=True)
class ShapeProfile:
    """Membership in each Table 4 shape class, plus the girth."""

    single_edge: bool
    chain: bool
    chain_set: bool
    star: bool
    tree: bool
    forest: bool
    cycle: bool
    flower: bool
    flower_set: bool
    #: Length of the shortest cycle; None when acyclic (§6.1).
    shortest_cycle: Optional[int]

    def as_dict(self) -> Dict[str, bool]:
        """The shape memberships as an ordered name -> bool mapping."""
        return {
            "single edge": self.single_edge,
            "chain": self.chain,
            "chain set": self.chain_set,
            "star": self.star,
            "tree": self.tree,
            "forest": self.forest,
            "cycle": self.cycle,
            "flower": self.flower,
            "flower set": self.flower_set,
        }


def classify_shape(graph: Multigraph) -> ShapeProfile:
    """Classify *graph* into every shape class of Table 4 at once."""
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
        shortest_cycle=graph.girth(),
    )
