"""Reference fragment classifier (paper §5.2, Definition 5.3).

``repro.analysis.fragments`` decides AOF / CQ / CPF / simple filters in
one walk, skips the algebra for OPTIONAL-free patterns, and checks
well-designedness with each algebra node's variables computed once.
This module keeps the four-walk classifier and the check that rebuilds
``variables()`` at every level, as the oracle of
``tests/test_fragments_differential.py``.

Only the unchanged translation steps (``to_binary_algebra``,
``build_pattern_tree``) and the profile type come from the package.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.analysis.fragments import FragmentProfile
from repro.analysis.welldesigned import (
    AlgebraEmpty,
    AlgebraFilter,
    AlgebraJoin,
    AlgebraLeftJoin,
    AlgebraNode,
    AlgebraTriple,
    PatternTreeNode,
    build_pattern_tree,
    to_binary_algebra,
)
from repro.rdf.terms import Variable
from repro.sparql import ast, walk


def is_simple_filter(expression: ast.Expression) -> bool:
    variables = walk.expression_variables(expression)
    if len(variables) <= 1:
        return not _contains_exists(expression)
    return (
        isinstance(expression, ast.Comparison)
        and expression.op == "="
        and isinstance(expression.left, ast.TermExpression)
        and isinstance(expression.left.term, Variable)
        and isinstance(expression.right, ast.TermExpression)
        and isinstance(expression.right.term, Variable)
    )


def _contains_exists(expression: ast.Expression) -> bool:
    return any(
        isinstance(node, ast.ExistsExpression)
        for node in walk.iter_expressions(expression)
    )


def _body_uses_only(pattern: Optional[ast.Pattern], allowed: tuple) -> bool:
    if pattern is None:
        return False
    for node in walk.iter_patterns(pattern, enter_subqueries=False):
        if isinstance(node, (ast.GroupPattern, ast.TriplePattern)):
            continue
        if isinstance(node, allowed):
            if isinstance(node, ast.FilterPattern) and _contains_exists(
                node.expression
            ):
                return False
            continue
        return False
    return True


def is_cq(pattern: Optional[ast.Pattern]) -> bool:
    return _body_uses_only(pattern, ())


def is_cpf(pattern: Optional[ast.Pattern]) -> bool:
    return _body_uses_only(pattern, (ast.FilterPattern,))


def is_cqf(pattern: Optional[ast.Pattern]) -> bool:
    return is_cpf(pattern) and _all_filters_simple(pattern)


def is_aof(pattern: Optional[ast.Pattern]) -> bool:
    return _body_uses_only(pattern, (ast.FilterPattern, ast.OptionalPattern))


def _all_filters_simple(pattern: Optional[ast.Pattern]) -> bool:
    for node in walk.iter_patterns(pattern, enter_subqueries=False):
        if isinstance(node, ast.FilterPattern):
            if not is_simple_filter(node.expression):
                return False
    return True


def is_well_designed(node: AlgebraNode) -> bool:
    return _check_well_designed(node, set())


def _check_well_designed(node: AlgebraNode, outside: Set[Variable]) -> bool:
    if isinstance(node, (AlgebraEmpty, AlgebraTriple)):
        return True
    if isinstance(node, AlgebraJoin):
        return _check_well_designed(
            node.left, outside | node.right.variables()
        ) and _check_well_designed(node.right, outside | node.left.variables())
    if isinstance(node, AlgebraFilter):
        return _check_well_designed(
            node.operand, outside | walk.expression_variables(node.expression)
        )
    if isinstance(node, AlgebraLeftJoin):
        optional_only = node.right.variables() - node.left.variables()
        if optional_only & outside:
            return False
        return _check_well_designed(
            node.left, outside | node.right.variables()
        ) and _check_well_designed(node.right, outside | node.left.variables())
    raise TypeError(f"unknown algebra node {node!r}")


def interface_width(tree: PatternTreeNode) -> int:
    width = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        node_vars = node.label_variables()
        for child in node.children:
            shared = node_vars & child.label_variables()
            width = max(width, len(shared))
            stack.append(child)
    return width


def classify_fragments(query: ast.Query) -> FragmentProfile:
    """The classifier that walks the pattern once per fragment."""
    pattern = query.pattern
    if query.query_type not in (ast.QueryType.SELECT, ast.QueryType.ASK):
        pattern = None
    if not is_aof(pattern):
        return FragmentProfile(
            is_aof=False,
            is_cq=False,
            is_cpf=False,
            is_cqf=False,
            is_well_designed=False,
            has_simple_filters=False,
            interface_width=None,
            is_cqof=False,
        )
    cq = is_cq(pattern)
    cpf = is_cpf(pattern)
    simple = _all_filters_simple(pattern)
    algebra = to_binary_algebra(pattern)
    well_designed = is_well_designed(algebra)
    width: Optional[int] = None
    cqof = False
    if well_designed:
        width = interface_width(build_pattern_tree(algebra))
        cqof = simple and width <= 1
    return FragmentProfile(
        is_aof=True,
        is_cq=cq,
        is_cpf=cpf,
        is_cqf=cpf and simple,
        is_well_designed=well_designed,
        has_simple_filters=simple,
        interface_width=width,
        is_cqof=cqof,
    )
