"""Tokenizer for the SQL subset plus XNF extensions.

The first of CORONA's five stages: "an incoming SQL query is first broken
into tokens" (Sect. 3.1).  XNF adds only keywords (OUT, TAKE, RELATE,
VIA, USING), not new lexical forms, which is part of why the language
extension was cheap.

The scanner is one compiled master pattern walked by ``re.finditer``.
Each match skips whitespace and comments, then takes one token through
an alternation of named groups, one group per lexical form.  The last
groups match what cannot start a token: an unterminated string, quoted
identifier or block comment, a ``:`` without a name, or any other
character.  Each of them becomes a :class:`LexerError` at that spot.
:func:`skeleton` walks the same pattern to key the statement cache;
:func:`literal_cut` splits a text at its literals alone, with the same
literal forms, so the cache can find a known skeleton without a scan.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from functools import lru_cache
from typing import NamedTuple, Optional

from repro.errors import LexerError


class TokenType(Enum):
    KEYWORD = auto()
    IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    #: A statement parameter marker: ``?`` (value is "?") or ``:name``
    #: (value is the bare name, colon stripped).
    PARAMETER = auto()
    EOF = auto()


#: Reserved words.  Split into SQL core and XNF additions for documentation
#: value; the lexer treats both sets identically.
SQL_KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
    "DESC", "DISTINCT", "ALL", "AS", "AND", "OR", "NOT", "NULL", "IS",
    "IN", "EXISTS", "BETWEEN", "LIKE", "UNION", "INTERSECT", "EXCEPT",
    "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "ON", "CROSS",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "TABLE", "VIEW", "INDEX", "UNIQUE", "DROP", "PRIMARY",
    "KEY", "FOREIGN", "REFERENCES", "CONSTRAINT",
    "MATERIALIZED", "REFRESH", "ANALYZE",
    "TRUE", "FALSE", "CASE", "WHEN", "THEN", "ELSE", "END", "WITH",
    "LIMIT", "OFFSET", "COUNT", "SUM", "AVG", "MIN", "MAX",
})

XNF_KEYWORDS = frozenset({"OUT", "OF", "TAKE", "RELATE", "VIA", "USING"})

KEYWORDS = SQL_KEYWORDS | XNF_KEYWORDS

#: Multi-character operators must be tried before their prefixes.
OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/")

PUNCTUATION = "(),.;"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in words

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r})"


#: The literal forms, shared by the master pattern and
#: :func:`literal_cut`.
_NUMBER = r"[{digit}]+(?:\.[{digit}]+)?"
_STRING = r"'[^']*(?:''[^']*)*'(?!')"

#: The master pattern.  ``\w`` is exactly ``str.isalnum()`` or ``_``;
#: ``re`` has no class for ``str.isalpha()`` / ``str.isdigit()``, so
#: ``{letter}`` / ``{digit}`` are the ASCII ranges plus those non-ASCII
#: characters of the text being scanned for which the method holds.
_FORMS = r"""
(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)*
(?:(?P<word>[{letter}_]\w*)
  |(?P<number>{number})
  |(?P<string>{string})
  |(?P<quoted>"[^"]*")
  |(?P<parameter>\?|:(?![{digit}])\w+)
  |(?P<comment>/\*)
  |(?P<operator>{operators})
  |(?P<punctuation>[{punctuation}])
  |(?P<eof>\Z)
  |(?P<string_end>')
  |(?P<quoted_end>")
  |(?P<colon>:)
  |(?P<char>.))
"""

#: Groups that end the scan with a LexerError, and their messages.
_ERRORS = {
    "comment": "unterminated block comment",
    "string_end": "unterminated string literal",
    "quoted_end": "unterminated quoted identifier",
    "colon": "expected a parameter name after ':'",
}

_PLAIN = {"number": TokenType.NUMBER, "operator": TokenType.OPERATOR,
          "punctuation": TokenType.PUNCTUATION}


@lru_cache(maxsize=64)
def _compile(letters: str, digits: str) -> re.Pattern:
    digit = "0-9" + re.escape(digits)
    return re.compile(_FORMS.format(
        letter="A-Za-z" + re.escape(letters), digit=digit,
        number=_NUMBER.format(digit=digit), string=_STRING,
        operators="|".join(map(re.escape, OPERATORS)),
        punctuation=re.escape(PUNCTUATION)), re.VERBOSE | re.DOTALL)


def _pattern(text: str) -> re.Pattern:
    if text.isascii():
        return _compile("", "")
    wide = sorted(char for char in set(text) if not char.isascii())
    return _compile("".join(char for char in wide if char.isalpha()),
                    "".join(char for char in wide if char.isdigit()))


def _error(kind: str, value: str, position: int, line: int,
           column: int) -> LexerError:
    message = _ERRORS.get(kind) or f"unexpected character {value!r}"
    return LexerError(message, position, line, column)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with EOF."""
    tokens: list[Token] = []
    make = Token._make
    multiline = "\n" in text
    line, line_start, last = 1, 0, 0
    for match in _pattern(text).finditer(text):
        kind = match.lastgroup
        start = match.start(kind)
        if multiline:
            breaks = text.count("\n", last, start)
            if breaks:
                line += breaks
                line_start = text.rfind("\n", last, start) + 1
            last = start
        column = start - line_start + 1
        value = match.group(kind)
        if kind == "word":
            upper = value.upper()
            type_ = TokenType.IDENTIFIER
            if upper in KEYWORDS:
                type_, value = TokenType.KEYWORD, upper
        elif kind in _PLAIN:
            type_ = _PLAIN[kind]
        elif kind == "string":
            type_, value = TokenType.STRING, value[1:-1].replace("''", "'")
        elif kind == "quoted":
            type_, value = TokenType.IDENTIFIER, value[1:-1]
        elif kind == "parameter":
            type_, value = TokenType.PARAMETER, value.lstrip(":")
        elif kind == "eof":
            tokens.append(make((TokenType.EOF, "", start, line, column)))
            return tokens
        else:
            raise _error(kind, value, start, line, column)
        tokens.append(make((type_, value, start, line, column)))
    raise AssertionError("the master pattern always ends at eof")


#: Slot markers of :func:`skeleton`: what a literal token is masked to.
INT_SLOT, FLOAT_SLOT, STRING_SLOT = "#int", "#float", "#str"


def skeleton(text: str) -> Optional[tuple[tuple, dict[int, str]]]:
    """``(key, literals)`` for ``text``, or None when it does not lex.

    ``key`` is the token stream with each NUMBER / STRING token masked
    to its slot type (:data:`INT_SLOT`, :data:`FLOAT_SLOT`,
    :data:`STRING_SLOT`): texts that differ only in whitespace,
    comments, keyword case or literal values share it.  ``literals``
    maps each literal token's index in :func:`tokenize`'s list to its
    source text, in token order.  Identifiers are keyed with a leading
    ``"``, so no identifier equals a keyword.
    """
    parts: list[str] = []
    literals: dict[int, str] = {}
    for match in _pattern(text).finditer(text):
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "word":
            upper = value.upper()
            parts.append(upper if upper in KEYWORDS else '"' + value)
        elif kind == "number":
            literals[len(parts)] = value
            parts.append(FLOAT_SLOT if "." in value else INT_SLOT)
        elif kind == "string":
            literals[len(parts)] = value
            parts.append(STRING_SLOT)
        elif kind == "quoted":
            parts.append('"' + value[1:-1])
        elif kind == "eof":
            return tuple(parts), literals
        elif kind in _ERRORS or kind == "char":
            return None
        else:
            parts.append(value)
    return None


#: The literals of a text, as the master pattern reads them: a string,
#: or an ASCII number that does not follow a word character (whose
#: digits the master pattern reads as part of the word).  The leading
#: lookahead lets ``re`` skip to the next quote or digit quickly.
_CUT = re.compile("(?=['0-9])({}|(?<!\\w){})".format(
    _STRING, _NUMBER.format(digit="0-9")), re.ASCII)


def literal_cut(text: str) -> Optional[tuple[tuple, tuple[str, ...]]]:
    """``(key, sources)``: ``text`` cut at its literals, or None when
    the text is not cut (it is not ASCII, or holds ``"``, ``--`` or
    ``/*``).

    ``key`` alternates the text between literals, verbatim, with each
    literal's slot type (:data:`INT_SLOT`, :data:`FLOAT_SLOT`,
    :data:`STRING_SLOT`); ``sources`` are the literals' source texts,
    in order.  One ``re.split``, no token stream.

    Without quoted identifiers and comments, a literal is not read
    differently for its value: texts that share a key lex alike, up to
    the literal values, whenever :func:`skeleton` of one of them finds
    exactly that text's ``sources`` as its literals.  Other texts (a
    ``$`` or an unterminated string, say) may cut where the lexer does
    not; the caller must check that agreement before it trusts a key.
    """
    if not text.isascii() or '"' in text or "--" in text or "/*" in text:
        return None
    parts = _CUT.split(text)
    sources = tuple(parts[1::2])
    parts[1::2] = [STRING_SLOT if source[0] == "'" else
                   FLOAT_SLOT if "." in source else INT_SLOT
                   for source in sources]
    return tuple(parts), sources


def literal_value(source: str):
    """The value of a literal token's source text, as the parser reads
    it: an int, a float (the text has a ``.``) or an unquoted string."""
    if source[0] == "'":
        return source[1:-1].replace("''", "'")
    return float(source) if "." in source else int(source)
