"""Unit tests for the SPARQL lexer."""

import pytest

from repro.exceptions import SparqlSyntaxError
from repro.rdf.turtle import TurtleError, loads
from repro.sparql import TokenType, tokenize


def kinds(text):
    return [t.type for t in tokenize(text)][:-1]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestBasicTokens:
    def test_iri(self):
        tokens = tokenize("<http://example.org/a>")
        assert tokens[0].type == TokenType.IRIREF
        assert tokens[0].value == "http://example.org/a"

    def test_variables_both_sigils(self):
        tokens = tokenize("?x $y")
        assert [t.value for t in tokens[:2]] == ["x", "y"]
        assert all(t.type == TokenType.VAR for t in tokens[:2])

    def test_pname(self):
        tokens = tokenize("rdf:type foaf:name :bare")
        assert [t.value for t in tokens[:3]] == ["rdf:type", "foaf:name", ":bare"]
        assert all(t.type == TokenType.PNAME for t in tokens[:3])

    def test_pname_trailing_dot_not_consumed(self):
        tokens = tokenize("?s rdf:type ?o.")
        assert tokens[1].value == "rdf:type"
        assert tokens[3].is_punct(".")

    def test_blank_node(self):
        tokens = tokenize("_:b0")
        assert tokens[0].type == TokenType.BLANK_NODE
        assert tokens[0].value == "b0"

    def test_keywords(self):
        assert kinds("SELECT WHERE FILTER") == [TokenType.KEYWORD] * 3

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e6 .5")
        assert [t.type for t in tokens[:4]] == [
            TokenType.INTEGER,
            TokenType.DECIMAL,
            TokenType.DOUBLE,
            TokenType.DECIMAL,
        ]


class TestStrings:
    def test_double_quoted(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_single_quoted(self):
        assert tokenize("'hello'")[0].value == "hello"

    def test_long_quoted(self):
        assert tokenize('"""multi\nline"""')[0].value == "multi\nline"

    def test_long_single_quoted(self):
        assert tokenize("'''a'b'''")[0].value == "a'b"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\"d"')[0].value == 'a\nb\tc"d'

    def test_unicode_escape(self):
        assert tokenize(r'"é"')[0].value == "é"

    def test_newline_in_short_string_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            tokenize('"a\nb"')

    def test_unterminated_string_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            tokenize('"unclosed')

    def test_langtag(self):
        tokens = tokenize('"x"@en-US')
        assert tokens[1].type == TokenType.LANGTAG
        assert tokens[1].value == "en-US"


class TestPunctuation:
    def test_multi_char_operators(self):
        assert values("a && b || c != d <= e >= f") == [
            "a", "&&", "b", "||", "c", "!=", "d", "<=", "e", ">=", "f",
        ]

    def test_datatype_marker(self):
        tokens = tokenize('"5"^^<urn:t>')
        assert tokens[1].is_punct("^^")

    def test_anon_and_nil(self):
        tokens = tokenize("[] [ ] () ( )")
        assert [t.type for t in tokens[:4]] == [
            TokenType.ANON, TokenType.ANON, TokenType.NIL, TokenType.NIL,
        ]

    def test_path_operators(self):
        assert values("a*/b+|^c?") == ["a", "*", "/", "b", "+", "|", "^", "c", "?"]


class TestCommentsAndPositions:
    def test_comments_skipped(self):
        assert values("SELECT # comment\n?x") == ["SELECT", "x"]

    def test_line_column_tracking(self):
        tokens = tokenize("SELECT\n  ?x")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(SparqlSyntaxError) as info:
            tokenize("SELECT\n  ~")
        assert info.value.line == 2

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].type == TokenType.EOF
        assert tokenize("?x")[-1].type == TokenType.EOF


def positions(text):
    return [(t.value, t.line, t.column) for t in tokenize(text)]


class TestPositionsAcrossLines:
    """Line/column come from match offsets; these pin the edge cases."""

    def test_token_after_multiline_long_string(self):
        tokens = tokenize('SELECT """a\nb\nc""" ?x')
        assert (tokens[1].line, tokens[1].column) == (1, 8)
        assert (tokens[2].value, tokens[2].line, tokens[2].column) == ("x", 3, 6)

    def test_token_after_comment(self):
        assert positions("# comment\n  ?x # trailing\n?y") == [
            ("x", 2, 3), ("y", 3, 1), ("", 3, 3),
        ]

    def test_crlf_line_endings(self):
        assert positions("SELECT\r\n?x\r\n  ?y") == [
            ("SELECT", 1, 1), ("x", 2, 1), ("y", 3, 3), ("", 3, 5),
        ]

    def test_bare_carriage_return_is_a_column(self):
        assert positions("?a\r?b")[1] == ("b", 1, 4)

    def test_tab_before_token(self):
        assert positions("\t?x")[0] == ("x", 1, 2)
        assert positions("SELECT\n\t\t?x")[1] == ("x", 2, 3)

    def test_token_after_multiline_anon_and_nil(self):
        assert positions("[\n] (\n\n) ?z")[2] == ("z", 4, 3)

    def test_error_after_newlines(self):
        with pytest.raises(SparqlSyntaxError) as info:
            tokenize('SELECT """x\ny""" ?a\r\n\t~')
        assert (info.value.line, info.value.column) == (3, 2)
        assert str(info.value) == "unexpected character '~' at line 3, column 2"

    def test_string_errors_carry_their_position(self):
        with pytest.raises(SparqlSyntaxError) as info:
            tokenize('?x\n  "ab\\q"')
        assert str(info.value) == "unknown string escape: \\q at line 2, column 6"
        with pytest.raises(SparqlSyntaxError) as info:
            tokenize('?x\n  """never closed\n')
        assert str(info.value) == "unterminated string literal at line 2, column 3"
        with pytest.raises(SparqlSyntaxError) as info:
            tokenize("'a\nb'")
        assert str(info.value) == "newline in short string literal at line 1, column 3"

    def test_turtle_error_position(self):
        with pytest.raises(TurtleError, match=r"found '\.' at line 3, column 19$"):
            loads("<urn:a> <urn:b> <urn:c> .\n\n  <urn:d> <urn:e> .")
        with pytest.raises(TurtleError, match=r"^unexpected character '~' at line 3, column 10$"):
            loads('<urn:a> <urn:b> """x\ny""" ;\r\n\t<urn:c> ~ .')


class TestKeywordCase:
    def test_keyword_upper_cased_once(self):
        token = tokenize("select")[0]
        assert token.keyword == "SELECT"
        assert token.is_keyword("SELECT") and not token.is_keyword("select")

    def test_non_keywords_have_no_keyword(self):
        assert all(t.keyword is None for t in tokenize('?select "select" <select> rdf:type'))
        assert not tokenize("?select")[0].is_keyword("SELECT")

    def test_non_decimal_digit_is_a_syntax_error(self):
        with pytest.raises(SparqlSyntaxError, match="unexpected character"):
            tokenize("LIMIT \u00b2")
