"""Tokenizer for the session DSL."""

from __future__ import annotations

from ..expr.errors import ConslawError
from ..record import Record

__all__ = ["Token", "ParseError", "tokenize", "PUNCT"]


class ParseError(ConslawError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(Record):
    __slots__ = ("kind",   # 'name' | 'int' | punctuation | 'eof'
                 "text", "line", "col")


PUNCT = {
    ";", ",", ":", "=", "+", "-", "*", "/", "^", "(", ")", "[", "]", "->",
}

# the grammar's digits; str.isdigit() also takes '²' and other digits,
# which int() rejects
DIGITS = frozenset("0123456789")


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in PUNCT:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j] in DIGITS
                             or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, max(col, 1)))
    return toks
