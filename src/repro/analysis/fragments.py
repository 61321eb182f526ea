"""Query-fragment classification (paper §5.2).

The paper studies nested fragments of And/Opt/Filter ("AOF") patterns:

* **CQ** (Definition 3.1): triple patterns + And only.
* **CPF** (Definition 4.1): triple patterns + And + Filter.
* **CQF** (Definition 5.2): CPF where every filter is *simple* —
  it mentions at most one variable, or has the form ``?x = ?y``.
* **AOF**: triple patterns + And + Opt + Filter (no property paths, no
  subqueries, no Graph/Union/anything else).
* **well-designed** (Definition 5.3, Pérez et al.): every Opt-pattern
  (P1 Opt P2) confines the variables of vars(P2) \\ vars(P1) to itself.
* **CQOF** (Definition 5.5): AOF patterns with simple filters admitting
  a well-designed pattern tree of interface width 1.

Pattern trees and interface width live in
:mod:`repro.analysis.welldesigned`; this module provides the membership
predicates and a one-shot :func:`classify_fragments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Set

from ..rdf.terms import Variable
from ..sparql import ast, walk
from .canonical import is_variable_equality
from .welldesigned import (
    build_pattern_tree,
    interface_width,
    is_well_designed,
    to_binary_algebra,
)

__all__ = [
    "FragmentProfile",
    "classify_fragments",
    "is_cq",
    "is_cpf",
    "is_cqf",
    "is_aof",
    "is_simple_filter",
]


def is_simple_filter(expression: ast.Expression) -> bool:
    """A filter constraint R is *simple* if vars(R) has at most one
    variable, or R is of the form ``?x = ?y`` (§5.2).  EXISTS would
    smuggle patterns into the filter, so a filter using it is never
    simple."""
    variables = _filter_variables(expression)
    return variables is not None and (
        len(variables) <= 1 or is_variable_equality(expression)
    )


def _filter_variables(expression: ast.Expression) -> Optional[Set[Variable]]:
    """vars(R) of a filter constraint, or None when it uses EXISTS."""
    variables: Set[Variable] = set()
    for node in walk.iter_expressions(expression):
        if isinstance(node, ast.TermExpression):
            if isinstance(node.term, Variable):
                variables.add(node.term)
        elif isinstance(node, ast.ExistsExpression):
            return None
    return variables


class _AofScan(NamedTuple):
    """What one walk over an AOF pattern learns about it."""

    has_optional: bool
    has_filter: bool
    simple_filters: bool


def _scan_aof(pattern: Optional[ast.Pattern]) -> Optional[_AofScan]:
    """Walk the pattern once: None unless every node is a group, a
    triple pattern, an OPTIONAL or an EXISTS-free FILTER (the AOF
    fragment), else which operators occur and whether every filter is
    simple."""
    if pattern is None:
        return None
    has_optional = has_filter = False
    simple = True
    stack = [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.GroupPattern):
            stack.extend(node.elements)
        elif isinstance(node, ast.TriplePattern):
            continue
        elif isinstance(node, ast.FilterPattern):
            variables = _filter_variables(node.expression)
            if variables is None:
                return None
            has_filter = True
            if simple and len(variables) > 1:
                simple = is_variable_equality(node.expression)
        elif isinstance(node, ast.OptionalPattern):
            has_optional = True
            stack.append(node.pattern)
        else:
            return None
    return _AofScan(has_optional, has_filter, simple)


def is_cq(pattern: Optional[ast.Pattern]) -> bool:
    """Conjunctive query: triple patterns and And only."""
    scan = _scan_aof(pattern)
    return scan is not None and not scan.has_optional and not scan.has_filter


def is_cpf(pattern: Optional[ast.Pattern]) -> bool:
    """Conjunctive pattern with filters: triples, And, Filter."""
    scan = _scan_aof(pattern)
    return scan is not None and not scan.has_optional


def is_cqf(pattern: Optional[ast.Pattern]) -> bool:
    """CPF with only simple filters (Definition 5.2)."""
    scan = _scan_aof(pattern)
    return scan is not None and not scan.has_optional and scan.simple_filters


def is_aof(pattern: Optional[ast.Pattern]) -> bool:
    """And/Opt/Filter pattern: triples, And, Opt, Filter."""
    return _scan_aof(pattern) is not None


@dataclass(frozen=True)
class FragmentProfile:
    """Membership of one query in each fragment of §5.2."""

    is_aof: bool
    is_cq: bool
    is_cpf: bool
    is_cqf: bool
    is_well_designed: bool  # AOF + Def 5.3 (filters need not be simple)
    has_simple_filters: bool
    interface_width: Optional[int]  # None unless AOF and well-designed
    is_cqof: bool

    def in_any_cq_like(self) -> bool:
        """Whether the pattern is in at least one CQ-like fragment."""
        return self.is_cq or self.is_cqf or self.is_cqof


#: The profile of every pattern outside the AOF fragment.
_OUTSIDE_AOF = FragmentProfile(
    is_aof=False,
    is_cq=False,
    is_cpf=False,
    is_cqf=False,
    is_well_designed=False,
    has_simple_filters=False,
    interface_width=None,
    is_cqof=False,
)


def classify_fragments(query: ast.Query) -> FragmentProfile:
    """Classify the body of a Select/Ask query into the §5.2 fragments.

    Queries of other types (or without a body) are outside all
    fragments.  Without OPTIONAL a pattern is trivially well-designed
    and its pattern tree is a single node (interface width 0), so only
    patterns with OPTIONAL build the algebra.
    """
    pattern = query.pattern
    if query.query_type not in (ast.QueryType.SELECT, ast.QueryType.ASK):
        pattern = None
    scan = _scan_aof(pattern)
    if scan is None:
        return _OUTSIDE_AOF
    simple = scan.simple_filters
    well_designed, width = True, 0
    if scan.has_optional:
        algebra = to_binary_algebra(pattern)
        well_designed = is_well_designed(algebra)
        width = interface_width(build_pattern_tree(algebra)) if well_designed else None
    return FragmentProfile(
        is_aof=True,
        is_cq=not scan.has_optional and not scan.has_filter,
        is_cpf=not scan.has_optional,
        is_cqf=not scan.has_optional and simple,
        is_well_designed=well_designed,
        has_simple_filters=simple,
        interface_width=width,
        is_cqof=well_designed and simple and width <= 1,
    )
