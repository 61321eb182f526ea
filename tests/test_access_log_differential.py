"""Differential tests: ``iter_queries`` against the line-by-line oracle.

``iter_queries`` decodes each distinct request target once and pulls
the ``query`` parameter out directly.  The oracle is the public
``parse_access_log_line`` (``urllib.parse.parse_qs`` with blank values
kept) applied to every line; both must yield the same texts in the same
order.
"""

import urllib.parse

from hypothesis import given, settings, strategies as st

from repro.exceptions import LogFormatError
from repro.logs import encode_access_log_line, iter_queries, parse_access_log_line
from repro.logs.formats import _query_parameter

PREFIX = '192.0.2.1 - - [01/Jan/2015:00:00:00 +0000] "'


def oracle(lines):
    texts = []
    for line in lines:
        try:
            entry = parse_access_log_line(line)
        except LogFormatError:
            continue
        if entry.query is not None:
            texts.append(entry.query)
    return texts


def request(target, method="GET"):
    return f'{PREFIX}{method} {target} HTTP/1.1" 200 1234'


def assert_same(lines):
    assert list(iter_queries(lines)) == oracle(lines)


class TestExtractionCases:
    def test_plus_versus_encoded_plus(self):
        lines = [request("/sparql?query=a+b"), request("/sparql?query=a%2Bb")]
        assert list(iter_queries(lines)) == ["a b", "a+b"]
        assert_same(lines)

    def test_encoded_parameter_name(self):
        lines = [request("/sparql?q%75ery=ASK+%7B%7D"), request("/sparql?%71uery=x")]
        assert list(iter_queries(lines)) == ["ASK {}", "x"]
        assert_same(lines)

    def test_name_with_plus_is_not_query(self):
        assert_same([request("/sparql?query+=x"), request("/sparql?q+uery=x")])

    def test_repeated_query_first_wins(self):
        lines = [request("/sparql?query=first&query=second"), request("/sparql?q%75ery=a&query=b")]
        assert list(iter_queries(lines)) == ["first", "a"]
        assert_same(lines)

    def test_blank_query(self):
        lines = [
            request("/sparql?query="),
            request("/sparql?query"),
            request("/sparql?format=json&query&query=x"),
            request("/sparql?&&query=y&"),
        ]
        assert list(iter_queries(lines)) == ["", "", "", "y"]
        assert_same(lines)

    def test_truncated_and_invalid_escapes(self):
        lines = [
            request("/sparql?query=ab%4"),
            request("/sparql?query=%4g%"),
            request("/sparql?query=%FF%FE"),
            request("/sparql?query=%C3%A9%C3"),
        ]
        assert list(iter_queries(lines))[2] == "\ufffd\ufffd"
        assert_same(lines)

    def test_post_lines(self):
        assert_same([request("/sparql?query=x", method="POST"), request("/sparql", method="POST")])

    def test_lines_without_parameters(self):
        assert_same([request("/sparql"), request("/robots.txt"), request("/sparql?format=json")])

    def test_non_matching_junk(self):
        lines = [
            "",
            "not a log line at all",
            f'{PREFIX}PUT /sparql?query=x HTTP/1.1" 200 1',
            request("/sparql?query=kept"),
            '192.0.2.1 - - [bad "GET /sparql?query=x HTTP/1.1" 200 1',
        ]
        assert list(iter_queries(lines)) == ["kept"]
        assert_same(lines)

    def test_repeated_requests_use_the_memo(self):
        queries = ['SELECT * WHERE { ?s ?p "100% +fun?" }', "ASK {}", "BROKEN {"]
        lines = [encode_access_log_line(queries[i % 3]) for i in range(12)]
        lines.insert(5, request("/sparql?query=a+b&query=c"))
        lines.insert(9, request("/sparql?query=a+b&query=c"))
        texts = list(iter_queries(lines))
        assert texts == oracle(lines)
        assert texts.count("ASK {}") == 4
        # Repeats of one request yield the one decoded string.
        assert len({id(text) for text in texts}) == 4

    def test_memo_is_per_call(self):
        lines = [request("/sparql?query=x")] * 3
        assert list(iter_queries(lines)) == ["x"] * 3
        assert list(iter_queries(lines)) == ["x"] * 3


_QUERY_STRING_PIECES = st.sampled_from(
    [
        "query", "q%75ery", "%71uery", "QUERY", "query+", "format", "=", "==", "&", "&&",
        "+", "%2B", "%20", "%", "%4", "%FF", "%C3%A9", "%c3%a9", "%e2%82", "a", "b", "#", ";",
        "?", "é",
    ]
)


class TestQueryParameter:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_QUERY_STRING_PIECES, max_size=12))
    def test_matches_parse_qs(self, pieces):
        query_string = "".join(pieces)
        values = urllib.parse.parse_qs(query_string, keep_blank_values=True).get("query")
        assert _query_parameter(query_string) == (values[0] if values else None)

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_matches_parse_qs_on_arbitrary_text(self, query_string):
        values = urllib.parse.parse_qs(query_string, keep_blank_values=True).get("query")
        assert _query_parameter(query_string) == (values[0] if values else None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_QUERY_STRING_PIECES, max_size=8), max_size=10), st.randoms())
    def test_log_files_match_the_oracle(self, targets, rng):
        lines = [request("/sparql?" + "".join(target)) for target in targets]
        lines += [rng.choice(lines) for _ in range(len(lines))] if lines else []
        assert_same(lines)
