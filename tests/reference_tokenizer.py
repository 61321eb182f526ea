"""Reference SPARQL lexer: the original character-cursor implementation.

``repro.sparql.tokenizer`` scans with one compiled master regex.  This
module keeps the straightforward per-character ``_Cursor`` lexer it
replaced, as the oracle of the differential tests in
``tests/test_tokenizer_differential.py``: both must produce the same
``(type, value, line, column)`` tokens and raise the same
``SparqlSyntaxError`` (message, line and column) on every input.

One deliberate departure from the original: the number branch is taken
only when the number pattern matches.  The original entered it whenever
``str.isdigit()`` held, so a non-decimal digit such as ``"²"`` tripped
an ``assert``; it now falls through to "unexpected character".
"""

from __future__ import annotations

import re
from typing import List

from repro.exceptions import SparqlSyntaxError
from repro.sparql.tokenizer import Token, TokenType

# PN_CHARS_BASE from the SPARQL grammar, approximated with broad unicode
# ranges (the logs' queries use ASCII plus occasional accented names).
_PN_BASE = "A-Za-zÀ-ÖØ-öø-˿Ͱ-ͽͿ-῿" \
    "‌-‍⁰-↏Ⰰ-⿯、-퟿豈-﷏ﷰ-�"
_PN_U = _PN_BASE + "_"
_PN_CHARS = _PN_U + r"0-9·̀-ͯ‿-⁀-"

_IRIREF_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_VAR_RE = re.compile(rf"[?$]([{_PN_U}0-9][{_PN_U}0-9·̀-ͯ‿-⁀]*)")
# Local part allows dots internally, percent-escapes and backslash escapes (PN_LOCAL).
_PLX = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"
_PNAME_RE = re.compile(
    rf"(?:[{_PN_BASE}][{_PN_CHARS}.]*[{_PN_CHARS}]|[{_PN_BASE}])?:"
    rf"(?:(?:[{_PN_U}0-9:]|{_PLX})(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?)?"
)
_BLANK_RE = re.compile(rf"_:[{_PN_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?")
_LANGTAG_RE = re.compile(r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")
_NUMBER_RE = re.compile(
    r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
)
_KEYWORD_RE = re.compile(rf"[{_PN_BASE}_][{_PN_U}0-9]*")

# Multi-character punctuation, longest first.
_MULTI_PUNCT = ("^^", "||", "&&", "!=", "<=", ">=")

_STRING_OPENERS = ('"""', "'''", '"', "'")

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


class _Cursor:
    """Tracks position in the source text with line/column accounting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def eof(self) -> bool:
        """Whether the cursor is at end of input."""
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        """The token *offset* ahead of the cursor (EOF-safe)."""
        index = self.pos + offset
        if index < len(self.text):
            return self.text[index]
        return ""

    def startswith(self, prefix: str) -> bool:
        """Whether the upcoming characters start with *prefix*."""
        return self.text.startswith(prefix, self.pos)

    def advance(self, count: int) -> str:
        """Consume and return the next *count* characters."""
        chunk = self.text[self.pos : self.pos + count]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return chunk


def _scan_string(cursor: _Cursor) -> str:
    """Scan a string literal at the cursor; return its *decoded* value."""
    opener = next(o for o in _STRING_OPENERS if cursor.startswith(o))
    start_line, start_col = cursor.line, cursor.column
    cursor.advance(len(opener))
    long_form = len(opener) == 3
    out: List[str] = []
    while True:
        if cursor.eof():
            raise SparqlSyntaxError("unterminated string literal", start_line, start_col)
        if cursor.startswith(opener):
            cursor.advance(len(opener))
            return "".join(out)
        ch = cursor.peek()
        if ch == "\\":
            escape = cursor.peek(1)
            if escape in _ECHAR:
                out.append(_ECHAR[escape])
                cursor.advance(2)
            elif escape == "u":
                code = cursor.text[cursor.pos + 2 : cursor.pos + 6]
                try:
                    out.append(chr(int(code, 16)))
                except ValueError:
                    raise SparqlSyntaxError(
                        f"bad \\u escape: {code!r}", cursor.line, cursor.column
                    ) from None
                cursor.advance(6)
            elif escape == "U":
                code = cursor.text[cursor.pos + 2 : cursor.pos + 10]
                try:
                    out.append(chr(int(code, 16)))
                except ValueError:
                    raise SparqlSyntaxError(
                        f"bad \\U escape: {code!r}", cursor.line, cursor.column
                    ) from None
                cursor.advance(10)
            else:
                raise SparqlSyntaxError(
                    f"unknown string escape: \\{escape}", cursor.line, cursor.column
                )
        elif not long_form and ch in "\n\r":
            raise SparqlSyntaxError(
                "newline in short string literal", cursor.line, cursor.column
            )
        else:
            out.append(ch)
            cursor.advance(1)


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize *text*; always ends with an EOF token.

    Raises :class:`SparqlSyntaxError` on characters that cannot start
    any SPARQL token.
    """
    cursor = _Cursor(text)
    tokens: List[Token] = []
    while not cursor.eof():
        ch = cursor.peek()
        if ch in " \t\r\n":
            cursor.advance(1)
            continue
        if ch == "#":
            while not cursor.eof() and cursor.peek() != "\n":
                cursor.advance(1)
            continue
        line, column = cursor.line, cursor.column

        # Strings must be checked before punctuation (quote chars).
        if any(cursor.startswith(o) for o in _STRING_OPENERS):
            value = _scan_string(cursor)
            tokens.append(Token(TokenType.STRING, value, line, column))
            continue

        if ch == "<":
            match = _IRIREF_RE.match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.IRIREF, match.group(1), line, column))
                continue
            # Not an IRI: fall through to '<' / '<=' operator.

        if ch in "?$":
            match = _VAR_RE.match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.VAR, match.group(1), line, column))
                continue
            # A bare '?' is the property-path "zero or one" operator.

        if ch == "_" and cursor.peek(1) == ":":
            match = _BLANK_RE.match(cursor.text, cursor.pos)
            if match:
                value = match.group(0)[2:]
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.BLANK_NODE, value, line, column))
                continue

        if ch == "@":
            match = _LANGTAG_RE.match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.LANGTAG, match.group(0)[1:], line, column))
                continue
            raise SparqlSyntaxError("bad language tag", line, column)

        match = _NUMBER_RE.match(cursor.text, cursor.pos)
        if match is not None:
            value = match.group(0)
            cursor.advance(len(value))
            if "e" in value.lower():
                token_type = TokenType.DOUBLE
            elif "." in value:
                token_type = TokenType.DECIMAL
            else:
                token_type = TokenType.INTEGER
            tokens.append(Token(token_type, value, line, column))
            continue

        # ANON [] and NIL () — significant whitespace inside is allowed.
        if ch == "[":
            match = re.compile(r"\[[ \t\r\n]*\]").match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.ANON, "[]", line, column))
                continue
        if ch == "(":
            match = re.compile(r"\([ \t\r\n]*\)").match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.NIL, "()", line, column))
                continue

        # Prefixed names (must come before keyword so "rdf:type" lexes
        # as one PNAME, and before ':' punctuation).
        match = _PNAME_RE.match(cursor.text, cursor.pos)
        if match and match.group(0):
            value = match.group(0)
            # Strip trailing dot ambiguity: "ns:local." ends a triple.
            while value.endswith("."):
                value = value[:-1]
            if ":" in value:
                cursor.advance(len(value))
                tokens.append(Token(TokenType.PNAME, value, line, column))
                continue

        keyword_match = _KEYWORD_RE.match(cursor.text, cursor.pos)
        if keyword_match:
            value = keyword_match.group(0)
            cursor.advance(len(value))
            tokens.append(Token(TokenType.KEYWORD, value, line, column))
            continue

        for punct in _MULTI_PUNCT:
            if cursor.startswith(punct):
                cursor.advance(len(punct))
                tokens.append(Token(TokenType.PUNCT, punct, line, column))
                break
        else:
            if ch in "{}()[];,.*/|^?+!<>=-&":
                cursor.advance(1)
                tokens.append(Token(TokenType.PUNCT, ch, line, column))
            else:
                raise SparqlSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(TokenType.EOF, "", cursor.line, cursor.column))
    return tokens
