"""SPARQL 1.1 lexer.

Turns a query string into a list of :class:`Token` objects.  The lexer
covers the full terminal vocabulary the parser needs: IRI references,
prefixed names, blank-node labels, variables (``?x``/``$x``), string
literals in all four quote forms, numeric literals, language tags,
keywords/identifiers, property-path and expression punctuation, and
comments.

Scanning is one compiled master regex, matched at the current offset:
its leading part skips whitespace and comments, and its named groups
are the terminals in priority order (strings, IRIs, variables, blank
nodes, language tags, numbers, ANON/NIL, prefixed names, keywords,
punctuation), so the first alternative that matches wins.  Only string
literals with escapes, newlines or the long quote forms leave the regex
for a small scanner that decodes them.  Positions (1-based line/column,
for error messages the log pipeline surfaces when counting invalid
queries) are derived from match offsets; the line number is only
recomputed when a token starts past the next newline.

Paper mapping: first stage of the sec 2 validity check (Table 1).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..exceptions import SparqlSyntaxError

__all__ = ["Token", "TokenType", "tokenize"]


class TokenType:
    """Token categories (plain string constants; cheap to compare)."""

    IRIREF = "IRIREF"  # <http://...>
    PNAME = "PNAME"  # prefix:local or prefix: or :local
    BLANK_NODE = "BLANK_NODE"  # _:label
    VAR = "VAR"  # ?x or $x
    STRING = "STRING"  # "..." '...' """...""" '''...'''
    LANGTAG = "LANGTAG"  # @en, @en-US
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    DOUBLE = "DOUBLE"
    KEYWORD = "KEYWORD"  # SELECT, WHERE, FILTER, a, true, false, ...
    PUNCT = "PUNCT"  # { } ( ) [ ] , ; . ^^ || && etc.
    ANON = "ANON"  # []
    NIL = "NIL"  # ()
    EOF = "EOF"


class Token:
    """One lexical token with its source position.

    ``keyword`` is the upper-cased value of a ``KEYWORD`` token (``None``
    for every other type), computed once so keyword tests are a plain
    comparison.
    """

    __slots__ = ("type", "value", "line", "column", "keyword")

    def __init__(self, type: str, value: str, line: int, column: int) -> None:
        self.type = type
        self.value = value
        self.line = line
        self.column = column
        self.keyword: Optional[str] = value.upper() if type == TokenType.KEYWORD else None

    def is_keyword(self, *words: str) -> bool:
        """Whether this token is one of the given (upper-case) keywords."""
        return self.keyword in words

    def is_punct(self, *symbols: str) -> bool:
        """Whether this token is one of the given punctuation symbols."""
        return self.type == TokenType.PUNCT and self.value in symbols

    def _key(self) -> Tuple[str, str, int, int]:
        return (self.type, self.value, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r}, {self.line}:{self.column})"


# PN_CHARS_BASE from the SPARQL grammar, approximated with broad unicode
# ranges (the logs' queries use ASCII plus occasional accented names).
_PN_BASE = "A-Za-zÀ-ÖØ-öø-˿Ͱ-ͽͿ-῿" \
    "‌-‍⁰-↏Ⰰ-⿯、-퟿豈-﷏ﷰ-�"
_PN_U = _PN_BASE + "_"
_PN_CHARS = _PN_U + r"0-9·̀-ͯ‿-⁀-"

_PLX = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"

# The terminals, as the alternatives of the master regex.  At each
# offset the first alternative that matches wins, exactly as a lexer
# trying them one after another.  Where two terminals can start with the
# same character the order is the lexer's priority: numbers before
# prefixed names and keywords (some letters of other scripts are decimal
# digits), blank nodes before keywords, prefixed names before keywords
# (so "rdf:type" is one PNAME), IRIs, variables, ANON/NIL and numbers
# before the punctuation they start with.  Terminals with a first
# character of their own are ordered by frequency in the logs.  None of
# them contains a capturing group, so ``match.lastindex`` names the
# terminal that matched.
_TERMINALS = (
    # Punctuation that starts no other terminal; multi-character forms
    # first.
    ("PUNCT", r"\^\^|\|\||&&|!=|>=|[{})\];,*/|^+!>=\-&]"),
    ("VAR", rf"[?$][{_PN_U}0-9][{_PN_U}0-9·̀-ͯ‿-⁀]*"),
    # One numeric terminal split three ways by its shape.
    ("DOUBLE", r"(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    ("DECIMAL", r"\d+\.\d*|\.\d+"),
    ("INTEGER", r"\d+"),
    ("BLANK_NODE", rf"_:[{_PN_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?"),
    # PN_LOCAL allows dots internally, percent-escapes and backslash
    # escapes.  The lookahead rejects plain words before the
    # backtracking search for a ':'.
    (
        "PNAME",
        rf"(?=[{_PN_CHARS}.]*:)"
        rf"(?:[{_PN_BASE}][{_PN_CHARS}.]*[{_PN_CHARS}]|[{_PN_BASE}])?:"
        rf"(?:(?:[{_PN_U}0-9:]|{_PLX})(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?)?",
    ),
    ("KEYWORD", rf"[{_PN_BASE}_][{_PN_U}0-9]*"),
    ("IRIREF", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    # String literals.  Short forms without escapes match whole; every
    # other string (long form, escapes, a newline in a short form, no
    # closing quote) matches only its opener and goes to _scan_string.
    ("LONG_STRING", r'"""|' r"'''"),
    ("STRING", r'"[^"\\\n\r]*"|' r"'[^'\\\n\r]*'"),
    ("OPEN_STRING", r"[\"']"),
    # ANON [] and NIL () — whitespace inside is allowed.
    ("ANON", r"\[[ \t\r\n]*\]"),
    ("NIL", r"\([ \t\r\n]*\)"),
    # Punctuation whose first character may start an IRI, a variable,
    # a number, ANON or NIL.
    ("OTHER_PUNCT", r"<=|[(\[.<?]"),
    ("LANGTAG", r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"),
    ("COMMENT", r"#[^\n]*"),
    ("EOF", r"\Z"),
)

# Whitespace before a token.  No terminal starts with whitespace, so
# when no terminal matches, backtracking into this run only fails.
_MASTER = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TERMINALS)
    + ")"
)
_WHITESPACE_RE = re.compile(r"[ \t\r\n]*")

_GROUP = _MASTER.groupindex
_VAR = _GROUP["VAR"]
_PNAME = _GROUP["PNAME"]
_IRIREF = _GROUP["IRIREF"]
_STRING = _GROUP["STRING"]
_SCANNED_STRINGS = (_GROUP["LONG_STRING"], _GROUP["OPEN_STRING"])
_BLANK_NODE = _GROUP["BLANK_NODE"]
_LANGTAG = _GROUP["LANGTAG"]
_ANON = _GROUP["ANON"]
_NIL = _GROUP["NIL"]
_COMMENT = _GROUP["COMMENT"]

# Terminals whose token value is the matched text.
_PLAIN = {
    _GROUP[name]: token_type
    for name, token_type in (
        ("PUNCT", TokenType.PUNCT),
        ("OTHER_PUNCT", TokenType.PUNCT),
        ("KEYWORD", TokenType.KEYWORD),
        ("INTEGER", TokenType.INTEGER),
        ("DECIMAL", TokenType.DECIMAL),
        ("DOUBLE", TokenType.DOUBLE),
    )
}

# Where a string literal's body stops: its closing quote, an escape,
# or (short forms only) a line break, which is an error.
_STRING_STOPS = {
    '"""': re.compile(r'"""|\\'),
    "'''": re.compile(r"'''|\\"),
    '"': re.compile(r'["\\\n\r]'),
    "'": re.compile(r"['\\\n\r]"),
}

_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _position(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based (line, column) of *offset* in *text*."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan_string(text: str, start: int, opener: str) -> Tuple[str, int]:
    """Decode the string literal whose *opener* starts at *start*.

    Returns the decoded value and the offset just past the closing
    quote.
    """
    stop = _STRING_STOPS[opener].search
    pos = start + len(opener)
    out: List[str] = []
    while True:
        found = stop(text, pos)
        if found is None:
            raise SparqlSyntaxError("unterminated string literal", *_position(text, start))
        at = found.start()
        out.append(text[pos:at])
        symbol = found.group()
        if symbol == opener:
            return "".join(out), found.end()
        if symbol != "\\":
            raise SparqlSyntaxError("newline in short string literal", *_position(text, at))
        escape = text[at + 1 : at + 2]
        if escape in _ECHAR:
            out.append(_ECHAR[escape])
            pos = at + 2
        elif escape == "u" or escape == "U":
            pos = at + (6 if escape == "u" else 10)
            code = text[at + 2 : pos]
            try:
                out.append(chr(int(code, 16)))
            except ValueError:
                raise SparqlSyntaxError(
                    f"bad \\{escape} escape: {code!r}", *_position(text, at)
                ) from None
        else:
            raise SparqlSyntaxError(f"unknown string escape: \\{escape}", *_position(text, at))


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; always ends with an EOF token.

    Raises :class:`SparqlSyntaxError` on characters that cannot start
    any SPARQL token.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    plain = _PLAIN
    pos = 0
    line = 1
    line_start = 0
    # Offset of the first newline at or after line_start; a token that
    # starts beyond it moves the line count forward.
    next_newline = text.find("\n")
    if next_newline < 0:
        next_newline = len(text)
    while True:
        found = match(text, pos)
        if found is None:
            at = _WHITESPACE_RE.match(text, pos).end()
            if text[at] == "@":
                raise SparqlSyntaxError("bad language tag", *_position(text, at))
            raise SparqlSyntaxError(f"unexpected character {text[at]!r}", *_position(text, at))
        group = found.lastindex
        start, pos = found.span(group)
        if start > next_newline:
            line += text.count("\n", next_newline, start)
            line_start = text.rfind("\n", next_newline, start) + 1
            next_newline = text.find("\n", start)
            if next_newline < 0:
                next_newline = len(text)
        column = start - line_start + 1
        kind = plain.get(group)
        if kind is not None:
            append(Token(kind, text[start:pos], line, column))
        elif group == _VAR:
            append(Token(TokenType.VAR, text[start + 1 : pos], line, column))
        elif group == _PNAME:
            value = text[start:pos]
            if value[-1] == ".":
                # A trailing '.' (only reachable through a '\.' escape)
                # ends the triple rather than the name.
                value = value.rstrip(".")
                pos = start + len(value)
            append(Token(TokenType.PNAME, value, line, column))
        elif group == _IRIREF:
            append(Token(TokenType.IRIREF, text[start + 1 : pos - 1], line, column))
        elif group == _STRING:
            append(Token(TokenType.STRING, text[start + 1 : pos - 1], line, column))
        elif group in _SCANNED_STRINGS:
            value, pos = _scan_string(text, start, text[start:pos])
            append(Token(TokenType.STRING, value, line, column))
        elif group == _BLANK_NODE:
            append(Token(TokenType.BLANK_NODE, text[start + 2 : pos], line, column))
        elif group == _LANGTAG:
            append(Token(TokenType.LANGTAG, text[start + 1 : pos], line, column))
        elif group == _ANON:
            append(Token(TokenType.ANON, "[]", line, column))
        elif group == _NIL:
            append(Token(TokenType.NIL, "()", line, column))
        elif group != _COMMENT:
            append(Token(TokenType.EOF, "", line, column))
            return tokens

