"""Differential tests: the master-regex lexer against the reference lexer.

``reference_tokenize`` (``tests/reference_tokenizer.py``) is the
original per-character cursor lexer.  On every input both lexers must
agree: the same ``(type, value, line, column)`` tokens, or the same
``SparqlSyntaxError`` with the same message, line and column.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from reference_tokenizer import reference_tokenize
from repro.exceptions import SparqlSyntaxError
from repro.sparql.tokenizer import tokenize
from repro.workload import generate_corpus


def outcome(lex, text):
    try:
        return [(t.type, t.value, t.line, t.column) for t in lex(text)]
    except SparqlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), repr(text)


# Characters that start, continue, separate or break SPARQL terminals,
# plus letters and decimal digits of other scripts (U+0663 ARABIC-INDIC
# DIGIT THREE is both a PN_CHARS_BASE character and a decimal digit;
# U+00B2 SUPERSCRIPT TWO is a digit but not a decimal one).
_SPARQL_ALPHABET = (
    " \t\r\n#\"'\\<>?$_:@.,;0123456789eE+-[](){}^|&!=*/%~"
    "aAbfnrtuUxzZ\u00e9\u00df\u00b7\u0300\u00b2\u0663\u203f\ufffd"
)

_FRAGMENTS = st.sampled_from(
    [
        '"', "'", '"""', "'''", "\\", "\\u", "\\U0001F600", "\\u00e9", "\n", "\r\n",
        "#", "@", "@en-US", "_:", "?", "$", "<", ">", "<=", "^^", "[ ]", "( )",
        ":", "a:b\\.", "1.5e", ".5", "\u00b2", "\u0663", "~", "\t",
    ]
)


@lru_cache(maxsize=None)
def corpus_texts():
    texts = set()
    for entries in generate_corpus(scale=1e-5, seed=11).values():
        texts.update(entries)
    return sorted(texts)


class TestArbitraryText:
    @settings(max_examples=400, deadline=None)
    @given(st.text())
    def test_arbitrary_unicode(self, text):
        assert_same(text)

    @settings(max_examples=600, deadline=None)
    @given(st.text(alphabet=_SPARQL_ALPHABET, max_size=40))
    def test_sparql_alphabet(self, text):
        assert_same(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_FRAGMENTS, st.text(alphabet=_SPARQL_ALPHABET, max_size=6))))
    def test_fragment_soup(self, parts):
        assert_same("".join(parts))


class TestCorpusTexts:
    def test_every_generated_text(self):
        for text in corpus_texts():
            assert_same(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edited_generated_texts(self, data):
        text = data.draw(st.sampled_from(corpus_texts()))
        cut = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(cut, min(len(text), cut + 8)))
        insert = data.draw(st.one_of(_FRAGMENTS, st.text(max_size=4)))
        assert_same(text[:cut] + insert + text[end:])


class TestStringEdges:
    """Every quote form against every awkward body, closed or not."""

    BODIES = [
        "", "a\rb", "a\nb", "a\r\nb", '"', "'", '""', "''", "\\", "\\q", "\\t\\'\\\"",
        "\\u00e9", "\\u12", "\\u12\n ", "\\u0x41", "\\u+041", "\\U0001F600", "\\U00110000",
        "\\u12\"", "é\\n",
    ]

    def test_every_opener_and_body(self):
        for opener in ('"', "'", '"""', "'''"):
            for body in self.BODIES:
                for closer in (opener, ""):
                    assert_same(f"?a {opener}{body}{closer} ?x\n?y")
