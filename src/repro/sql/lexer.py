"""SQL tokenizer for the supported SQL 2008 subset (Section III-A)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ParseError

KEYWORDS = frozenset(
    """
    select from where group by as and or not between in like case when then
    else end sum count avg min max date extract year month day interval is
    null join inner on order limit having distinct
    """.split()
)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, KEYWORD, NUMBER, STRING, PARAM, OP, EOF
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>\?|:[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|!=|=|<|>|\(|\)|,|\.|\+|-|\*|/)
    """,
    re.VERBOSE,
)


def tokenize(sql: str) -> Tuple[Token, ...]:
    """Tokenize SQL text; raises :class:`ParseError` on unknown input.

    Returns an immutable tuple of frozen tokens.  The query path lexes
    a text once: :func:`repro.sql.params.parse_lifted` memoizes the
    parse of each exact text.
    """
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(f"unexpected character {sql[pos]!r}", position=pos)
        if match.lastgroup == "ws":
            pos = match.end()
            continue
        text = match.group()
        if match.lastgroup == "number":
            tokens.append(Token("NUMBER", text, pos))
        elif match.lastgroup == "param":
            # ``?`` (positional) or ``:name`` (named) parameter markers
            # for prepared statements; the value keeps the literal text.
            tokens.append(Token("PARAM", text.lower(), pos))
        elif match.lastgroup == "string":
            tokens.append(Token("STRING", text[1:-1].replace("''", "'"), pos))
        elif match.lastgroup == "ident":
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("KEYWORD", lowered, pos))
            else:
                tokens.append(Token("IDENT", lowered, pos))
        else:
            tokens.append(Token("OP", text, pos))
        pos = match.end()
    tokens.append(Token("EOF", "", len(sql)))
    return tuple(tokens)


class TokenStream:
    """Cursor over a token sequence with the usual peek/expect helpers."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self._index += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.next()
            return True
        return False

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == "OP" and token.value == op:
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word.upper()}, got {token.value!r}", token.position)
        return self.next()

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if token.kind != "OP" or token.value != op:
            raise ParseError(f"expected {op!r}, got {token.value!r}", token.position)
        return self.next()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != "IDENT":
            raise ParseError(f"expected identifier, got {token.value!r}", token.position)
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"
