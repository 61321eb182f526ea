"""The one-walk fragment classifier against the four-walk oracle in
``tests/reference_welldesigned.py`` (§5.2, Definition 5.3)."""

from hypothesis import given, settings, strategies as st

import reference_welldesigned as reference
from repro.analysis import fragments
from repro.analysis.fragments import classify_fragments
from repro.analysis.welldesigned import (
    build_pattern_tree,
    interface_width,
    is_well_designed,
    to_binary_algebra,
)
from repro.exceptions import SparqlSyntaxError
from repro.rdf import IRI, Literal, Variable
from repro.sparql import ast, parse_query, walk
from repro.workload import generate_corpus

_variables = st.sampled_from([Variable(name) for name in "abcdxy"])
_iris = st.sampled_from([IRI(f"urn:p{i}") for i in range(3)])
_number = st.builds(
    lambda value: Literal(str(value), datatype="http://www.w3.org/2001/XMLSchema#integer"),
    st.integers(0, 9),
)


@st.composite
def triple_patterns(draw):
    return ast.TriplePattern(
        draw(_variables), draw(_iris), draw(st.one_of(_variables, _iris, _number))
    )


def term(value):
    return ast.TermExpression(value)


@st.composite
def constraints(draw, allow_exists=False):
    """Filter constraints of every simplicity class: one variable,
    ``?x = ?y``, ``?x != ?y``, several variables under && / a
    function call, no variable at all, and (optionally) EXISTS."""
    kinds = ["one", "equal", "unequal", "and", "call", "constant"]
    kind = draw(st.sampled_from(kinds + (["exists"] if allow_exists else [])))
    x, y = draw(_variables), draw(_variables)
    if kind == "one":
        return ast.Comparison(draw(st.sampled_from(["=", "<", ">"])), term(x), term(draw(_number)))
    if kind == "equal":
        return ast.Comparison("=", term(x), term(y))
    if kind == "unequal":
        return ast.Comparison("!=", term(x), term(y))
    if kind == "and":
        return ast.AndExpression(
            (
                ast.Comparison("<", term(x), term(draw(_number))),
                ast.Comparison("=", term(y), term(x)),
            )
        )
    if kind == "call":
        return ast.BuiltinCall("REGEX", (term(x), term(y)))
    if kind == "constant":
        return ast.Comparison("=", term(draw(_number)), term(draw(_number)))
    pattern = ast.GroupPattern((draw(triple_patterns()),))
    return ast.ExistsExpression(pattern, negated=draw(st.booleans()))


@st.composite
def groups(draw, depth=3, optional=True, foreign=False):
    """Nested AOF groups; *foreign* mixes in non-AOF operators."""
    elements = draw(st.lists(triple_patterns(), min_size=0, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        elements.append(ast.FilterPattern(draw(constraints(allow_exists=foreign))))
    if depth > 0:
        for _ in range(draw(st.integers(0, 2))):
            inner = draw(groups(depth=depth - 1, optional=optional, foreign=foreign))
            if optional and draw(st.booleans()):
                inner = ast.OptionalPattern(inner)
            elements.append(inner)
    if foreign and draw(st.integers(0, 4)) == 0:
        left, right = draw(groups(depth=0)), draw(groups(depth=0))
        foreign_operators = [ast.UnionPattern(left, right), ast.MinusPattern(left)]
        elements.append(draw(st.sampled_from(foreign_operators)))
    return ast.GroupPattern(tuple(draw(st.permutations(elements))))


@st.composite
def well_designed_groups(draw, scope=(Variable("a"), Variable("b")), depth=3, prefix="v"):
    """Well-designed by construction: an OPTIONAL shares only variables
    of its parent's scope and keeps its fresh ones to itself, so the
    interface widths range over 0..|scope|."""
    fresh = [Variable(f"{prefix}{i}") for i in range(draw(st.integers(0 if scope else 1, 2)))]
    pool = list(scope) + fresh
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        s, o = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        elements.append(ast.TriplePattern(s, draw(_iris), o))
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        elements.append(ast.FilterPattern(ast.Comparison("=", term(x), term(y))))
    if depth > 0:
        for index in range(draw(st.integers(0, 2))):
            inner_scope = tuple(draw(st.sets(st.sampled_from(pool), max_size=3)))
            inner = draw(
                well_designed_groups(inner_scope, depth - 1, f"{prefix}{index}_")
            )
            elements.append(ast.OptionalPattern(inner))
    return ast.GroupPattern(tuple(elements))


def query(pattern, query_type=ast.QueryType.SELECT):
    return ast.Query(query_type=query_type, pattern=pattern)


def assert_matches_oracle(q):
    assert classify_fragments(q) == reference.classify_fragments(q)
    pattern = q.pattern
    for name in ("is_aof", "is_cq", "is_cpf", "is_cqf"):
        assert getattr(fragments, name)(pattern) == getattr(reference, name)(pattern), name
    for node in _filters(pattern):
        assert fragments.is_simple_filter(node.expression) == reference.is_simple_filter(
            node.expression
        )
    if reference.is_aof(pattern):
        algebra = to_binary_algebra(pattern)
        assert is_well_designed(algebra) == reference.is_well_designed(algebra)
        tree = build_pattern_tree(algebra)
        assert interface_width(tree) == reference.interface_width(tree)


def _filters(pattern):
    return [
        node
        for node in walk.iter_patterns(pattern, enter_subqueries=False)
        if isinstance(node, ast.FilterPattern)
    ]


@settings(max_examples=400, deadline=None)
@given(groups())
def test_aof_patterns_with_nested_optional_match_oracle(pattern):
    assert_matches_oracle(query(pattern))


@settings(max_examples=300, deadline=None)
@given(well_designed_groups())
def test_well_designed_patterns_of_every_width_match_oracle(pattern):
    assert_matches_oracle(query(pattern))


@settings(max_examples=200, deadline=None)
@given(groups(optional=False))
def test_optional_free_patterns_match_oracle(pattern):
    q = query(pattern)
    profile = classify_fragments(q)
    assert profile.is_aof and profile.is_cpf and profile.is_well_designed
    assert profile.interface_width == 0
    assert profile.is_cqof == profile.has_simple_filters == profile.is_cqf
    assert_matches_oracle(q)


@settings(max_examples=200, deadline=None)
@given(groups(foreign=True), st.sampled_from(list(ast.QueryType)))
def test_mixed_patterns_and_query_types_match_oracle(pattern, query_type):
    assert_matches_oracle(query(pattern, query_type))


def test_bodiless_query_is_outside_every_fragment():
    assert_matches_oracle(query(None, ast.QueryType.DESCRIBE))
    assert not classify_fragments(query(None, ast.QueryType.DESCRIBE)).is_aof


def test_generated_corpus_matches_oracle():
    checked = 0
    for texts in generate_corpus(scale=2e-6, seed=16).values():
        for text in dict.fromkeys(texts):
            try:
                parsed = parse_query(text)
            except SparqlSyntaxError:
                continue
            assert_matches_oracle(parsed)
            checked += 1
    assert checked > 100
