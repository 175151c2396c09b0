"""Reference tokenizer: a frozen copy of the character-loop lexer.

``repro.sql.lexer`` scans with one compiled master pattern.  This file
keeps the scanner it replaced, one character at a time, as the oracle
of ``tests/test_lexer_differential.py``: both must give the same tokens
(type, value, position, line, column) or the same ``LexerError``
(message, position, line, column) on every input.  It shares the token
and keyword definitions with the real lexer, so the two token lists
compare with ``==``.  Do not edit it to follow the real lexer.
"""

from __future__ import annotations

from repro.errors import LexerError
from repro.sql.lexer import KEYWORDS, Token, TokenType

#: Multi-character operators must be tried before their prefixes.
OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/")

PUNCTUATION = "(),.;"


class ReferenceLexer:
    """Single-pass scanner producing a list of tokens ending with EOF."""

    def __init__(self, text: str):
        self.text = text
        self.position = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self.position >= len(self.text):
                tokens.append(self._token(TokenType.EOF, ""))
                return tokens
            tokens.append(self._next_token())

    # ------------------------------------------------------------------
    def _skip_whitespace_and_comments(self) -> None:
        while self.position < len(self.text):
            char = self.text[self.position]
            if char in " \t\r\n":
                self._advance()
            elif self.text.startswith("--", self.position):
                while (self.position < len(self.text)
                       and self.text[self.position] != "\n"):
                    self._advance()
            elif self.text.startswith("/*", self.position):
                end = self.text.find("*/", self.position + 2)
                if end == -1:
                    raise LexerError("unterminated block comment",
                                     self.position, self.line, self.column)
                while self.position < end + 2:
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        char = self.text[self.position]
        if char.isalpha() or char == "_":
            return self._identifier()
        if char.isdigit():
            return self._number()
        if char == "'":
            return self._string()
        if char == '"':
            return self._quoted_identifier()
        if char == "?":
            token = self._token(TokenType.PARAMETER, "?")
            self._advance()
            return token
        if char == ":":
            return self._named_parameter()
        for op in OPERATORS:
            if self.text.startswith(op, self.position):
                token = self._token(TokenType.OPERATOR, op)
                for _ in op:
                    self._advance()
                return token
        if char in PUNCTUATION:
            token = self._token(TokenType.PUNCTUATION, char)
            self._advance()
            return token
        raise LexerError(f"unexpected character {char!r}",
                         self.position, self.line, self.column)

    def _identifier(self) -> Token:
        start = self.position
        start_line, start_col = self.line, self.column
        while (self.position < len(self.text)
               and (self.text[self.position].isalnum()
                    or self.text[self.position] == "_")):
            self._advance()
        word = self.text[start:self.position]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, start, start_line, start_col)
        return Token(TokenType.IDENTIFIER, word, start, start_line, start_col)

    def _named_parameter(self) -> Token:
        start = self.position
        start_line, start_col = self.line, self.column
        self._advance()  # the colon
        name_start = self.position
        while (self.position < len(self.text)
               and (self.text[self.position].isalnum()
                    or self.text[self.position] == "_")):
            self._advance()
        name = self.text[name_start:self.position]
        if not name or name[0].isdigit():
            raise LexerError("expected a parameter name after ':'",
                             start, start_line, start_col)
        return Token(TokenType.PARAMETER, name, start, start_line,
                     start_col)

    def _quoted_identifier(self) -> Token:
        start = self.position
        start_line, start_col = self.line, self.column
        self._advance()  # opening quote
        chars: list[str] = []
        while self.position < len(self.text):
            char = self.text[self.position]
            if char == '"':
                self._advance()
                return Token(TokenType.IDENTIFIER, "".join(chars),
                             start, start_line, start_col)
            chars.append(char)
            self._advance()
        raise LexerError("unterminated quoted identifier",
                         start, start_line, start_col)

    def _number(self) -> Token:
        start = self.position
        start_line, start_col = self.line, self.column
        seen_dot = False
        while self.position < len(self.text):
            char = self.text[self.position]
            if char.isdigit():
                self._advance()
            elif char == "." and not seen_dot:
                following = self.text[self.position + 1:self.position + 2]
                if not following.isdigit():
                    break  # "1." followed by non-digit: dot is punctuation
                seen_dot = True
                self._advance()
            else:
                break
        return Token(TokenType.NUMBER, self.text[start:self.position],
                     start, start_line, start_col)

    def _string(self) -> Token:
        start = self.position
        start_line, start_col = self.line, self.column
        self._advance()  # opening quote
        chars: list[str] = []
        while self.position < len(self.text):
            char = self.text[self.position]
            if char == "'":
                if self.text[self.position + 1:self.position + 2] == "'":
                    chars.append("'")
                    self._advance()
                    self._advance()
                    continue
                self._advance()
                return Token(TokenType.STRING, "".join(chars),
                             start, start_line, start_col)
            chars.append(char)
            self._advance()
        raise LexerError("unterminated string literal",
                         start, start_line, start_col)

    def _advance(self) -> None:
        if self.text[self.position] == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        self.position += 1

    def _token(self, type_: TokenType, value: str) -> Token:
        return Token(type_, value, self.position, self.line, self.column)


def reference_tokenize(text: str) -> list[Token]:
    return ReferenceLexer(text).tokenize()
