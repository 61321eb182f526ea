"""Well-designedness and pattern trees (paper §5.2).

Implements three ingredients of the paper's CQOF classification:

1. Translation of AOF patterns (group graph patterns using only And,
   Opt and Filter) into binary algebra trees over Join / LeftJoin /
   Filter, following the SPARQL semantics where ``OPTIONAL`` takes the
   conjunction of the preceding group elements as its left operand.
2. The well-designedness test of Pérez et al. (Definition 5.3): for
   every Opt-occurrence (P1 Opt P2), the variables of
   vars(P2) \\ vars(P1) must not occur outside that occurrence.
3. Pattern trees (Example 5.4, Currying encoding) with their interface
   width — the maximum number of variables a node shares with a child —
   and the Barceló et al. variable-connectedness condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..rdf.terms import Variable
from ..sparql import ast, walk

__all__ = [
    "AlgebraNode",
    "AlgebraTriple",
    "AlgebraJoin",
    "AlgebraLeftJoin",
    "AlgebraFilter",
    "AlgebraEmpty",
    "to_binary_algebra",
    "is_well_designed",
    "PatternTreeNode",
    "build_pattern_tree",
    "interface_width",
    "tree_is_variable_connected",
]


# ---------------------------------------------------------------------------
# Binary And/Opt/Filter algebra
# ---------------------------------------------------------------------------


class AlgebraNode:
    """Base class for binary AOF algebra nodes."""

    __slots__ = ()

    def variables(self) -> Set[Variable]:
        """All variables mentioned in this algebra subtree."""
        raise NotImplementedError


@dataclass(frozen=True)
class AlgebraEmpty(AlgebraNode):
    """The empty pattern (left operand of a leading OPTIONAL)."""

    def variables(self) -> Set[Variable]:
        """All variables mentioned in this algebra subtree."""
        return set()


@dataclass(frozen=True)
class AlgebraTriple(AlgebraNode):
    """A triple pattern leaf of the binary algebra."""
    triple: ast.TriplePattern

    def variables(self) -> Set[Variable]:
        """All variables mentioned in this algebra subtree."""
        return {t for t in self.triple.terms() if isinstance(t, Variable)}


@dataclass(frozen=True)
class AlgebraJoin(AlgebraNode):
    """A JOIN node of the binary algebra."""
    left: AlgebraNode
    right: AlgebraNode

    def variables(self) -> Set[Variable]:
        """All variables mentioned in this algebra subtree."""
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class AlgebraLeftJoin(AlgebraNode):
    """(P1 Opt P2)."""

    left: AlgebraNode
    right: AlgebraNode

    def variables(self) -> Set[Variable]:
        """All variables mentioned in this algebra subtree."""
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class AlgebraFilter(AlgebraNode):
    """A FILTER node of the binary algebra."""
    expression: ast.Expression
    operand: AlgebraNode

    def variables(self) -> Set[Variable]:
        """All variables mentioned in this algebra subtree."""
        return self.operand.variables() | walk.expression_variables(self.expression)


def to_binary_algebra(pattern: Optional[ast.Pattern]) -> AlgebraNode:
    """Translate an AOF pattern into the binary algebra.

    Raises :class:`ValueError` if the pattern uses nodes outside the
    AOF fragment (callers check :func:`repro.analysis.fragments.is_aof`
    first).
    """
    if pattern is None:
        return AlgebraEmpty()
    if isinstance(pattern, ast.TriplePattern):
        return AlgebraTriple(pattern)
    if isinstance(pattern, ast.OptionalPattern):
        return AlgebraLeftJoin(AlgebraEmpty(), to_binary_algebra(pattern.pattern))
    if isinstance(pattern, ast.GroupPattern):
        accumulated: Optional[AlgebraNode] = None
        filters: List[ast.Expression] = []
        for element in pattern.elements:
            if isinstance(element, ast.FilterPattern):
                filters.append(element.expression)
            elif isinstance(element, ast.OptionalPattern):
                left = accumulated if accumulated is not None else AlgebraEmpty()
                accumulated = AlgebraLeftJoin(
                    left, to_binary_algebra(element.pattern)
                )
            else:
                translated = to_binary_algebra(element)
                if accumulated is None:
                    accumulated = translated
                else:
                    accumulated = AlgebraJoin(accumulated, translated)
        if accumulated is None:
            accumulated = AlgebraEmpty()
        for expression in filters:
            accumulated = AlgebraFilter(expression, accumulated)
        return accumulated
    raise ValueError(f"pattern outside the AOF fragment: {type(pattern).__name__}")


# ---------------------------------------------------------------------------
# Well-designedness (Definition 5.3)
# ---------------------------------------------------------------------------


def is_well_designed(node: AlgebraNode) -> bool:
    """Check Definition 5.3 on a binary AOF algebra tree."""
    variables: Dict[int, Set[Variable]] = {}
    _subtree_variables(node, variables)
    return _check_well_designed(node, set(), variables)


def _subtree_variables(
    node: AlgebraNode, variables: Dict[int, Set[Variable]]
) -> Set[Variable]:
    """vars() of *node*, computed bottom-up once; records the set of
    every algebra node and filter expression under its ``id``."""
    if isinstance(node, (AlgebraJoin, AlgebraLeftJoin)):
        result = _subtree_variables(node.left, variables) | _subtree_variables(
            node.right, variables
        )
    elif isinstance(node, AlgebraFilter):
        constraint = variables[id(node.expression)] = walk.expression_variables(
            node.expression
        )
        result = _subtree_variables(node.operand, variables) | constraint
    else:
        result = node.variables()
    variables[id(node)] = result
    return result


def _check_well_designed(
    node: AlgebraNode, outside: Set[Variable], variables: Dict[int, Set[Variable]]
) -> bool:
    if isinstance(node, (AlgebraEmpty, AlgebraTriple)):
        return True
    if isinstance(node, AlgebraFilter):
        return _check_well_designed(
            node.operand, outside | variables[id(node.expression)], variables
        )
    if isinstance(node, (AlgebraJoin, AlgebraLeftJoin)):
        left, right = variables[id(node.left)], variables[id(node.right)]
        if isinstance(node, AlgebraLeftJoin) and (right - left) & outside:
            return False
        return _check_well_designed(
            node.left, outside | right, variables
        ) and _check_well_designed(node.right, outside | left, variables)
    raise TypeError(f"unknown algebra node {node!r}")


# ---------------------------------------------------------------------------
# Pattern trees (Example 5.4)
# ---------------------------------------------------------------------------


@dataclass
class PatternTreeNode:
    """A node of a pattern tree: a CQ (triples + filters) plus children.

    The tree results from the Currying encoding of the parse tree: the
    root holds everything not under any Opt; each Opt's right operand
    becomes a child subtree.
    """

    triples: List[ast.TriplePattern] = field(default_factory=list)
    filters: List[ast.Expression] = field(default_factory=list)
    children: List["PatternTreeNode"] = field(default_factory=list)

    def label_variables(self) -> Set[Variable]:
        """Variables of this node's own CQ (not of the subtree)."""
        variables: Set[Variable] = set()
        for triple in self.triples:
            variables.update(
                t for t in triple.terms() if isinstance(t, Variable)
            )
        for expression in self.filters:
            variables |= walk.expression_variables(expression)
        return variables

    def subtree_nodes(self) -> List["PatternTreeNode"]:
        """This node and all its descendants, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.subtree_nodes())
        return nodes

    def size(self) -> int:
        """Number of nodes in this subtree."""
        return len(self.subtree_nodes())


def build_pattern_tree(node: AlgebraNode) -> PatternTreeNode:
    """Build the pattern tree of a binary AOF algebra tree."""
    root = PatternTreeNode()
    _collect(node, root)
    return root


def _collect(node: AlgebraNode, target: PatternTreeNode) -> None:
    if isinstance(node, AlgebraEmpty):
        return
    if isinstance(node, AlgebraTriple):
        target.triples.append(node.triple)
        return
    if isinstance(node, AlgebraJoin):
        _collect(node.left, target)
        _collect(node.right, target)
        return
    if isinstance(node, AlgebraFilter):
        target.filters.append(node.expression)
        _collect(node.operand, target)
        return
    if isinstance(node, AlgebraLeftJoin):
        _collect(node.left, target)
        child = PatternTreeNode()
        _collect(node.right, child)
        target.children.append(child)
        return
    raise TypeError(f"unknown algebra node {node!r}")


def interface_width(tree: PatternTreeNode) -> int:
    """Maximum number of common variables between a node and a child.

    A tree without Opt (a single node) has interface width 0, which the
    classification treats as ≤ 1 (plain CQs and CQFs are CQOF).
    """
    width = 0
    stack = [(tree, tree.label_variables())]
    while stack:
        node, node_vars = stack.pop()
        for child in node.children:
            child_vars = child.label_variables()
            width = max(width, len(node_vars & child_vars))
            stack.append((child, child_vars))
    return width


def tree_is_variable_connected(tree: PatternTreeNode) -> bool:
    """Barceló et al.'s well-designedness of pattern trees: for every
    variable, the nodes whose label mentions it form a connected set."""
    nodes = tree.subtree_nodes()
    parents = {}
    for node in nodes:
        for child in node.children:
            parents[id(child)] = node
    all_variables: Set[Variable] = set()
    for node in nodes:
        all_variables |= node.label_variables()
    for variable in all_variables:
        occurrences = [n for n in nodes if variable in n.label_variables()]
        if len(occurrences) <= 1:
            continue
        # The occurrence set is connected iff, walking up from every
        # occurrence, each step toward the "highest" occurrence stays
        # inside the occurrence set.  Find the unique topmost occurrence
        # and check that the parent of every other occurrence occurs too.
        occurrence_ids = {id(n) for n in occurrences}
        roots = [
            n
            for n in occurrences
            if id(n) not in parents or id(parents[id(n)]) not in occurrence_ids
        ]
        if len(roots) != 1:
            return False
    return True
