"""Recursive-descent parser producing the session AST.

The grammar is LL(1) apart from one-token backtracking for tuple versus
parenthesized expressions; every node carries its source position so that
semantic errors can point at the offending text.  Derivatives are written
D[u,x,t,...] (repeat a variable for higher order), which keeps the grammar
unambiguous with multiplication.
"""

from __future__ import annotations

from ..record import Record
from .lexer import ParseError, Token, tokenize

__all__ = [
    "parse_session", "parse_expression",
    "Stmt", "DeclStmt", "FuncStmt", "EquationStmt", "RuleStmt",
    "CharStmt", "GenStmt", "VectorStmt", "CommandStmt",
    "ENode", "ENum", "EName", "EDeriv", "EExp", "EUnary", "EBinary", "EPow",
]


# -- expression AST ----------------------------------------------------------

class ENode(Record):
    __slots__ = ("line", "col")


class ENum(ENode):
    __slots__ = ("value",)


class EName(ENode):
    __slots__ = ("name",)


class EDeriv(ENode):
    __slots__ = ("head", "dvars")


class EExp(ENode):
    __slots__ = ("arg",)


class EUnary(ENode):   # negation
    __slots__ = ("arg",)


class EBinary(ENode):
    __slots__ = ("op", "left", "right")


class EPow(ENode):
    __slots__ = ("base", "exponent")


# -- statement AST -----------------------------------------------------------

class Stmt(Record):
    __slots__ = ("line", "col")


class DeclStmt(Stmt):
    __slots__ = ("kind",       # 'indep' | 'dep' | 'param'
                 "names", "nonzero")


class FuncStmt(Stmt):
    __slots__ = ("name", "args")


class EquationStmt(Stmt):
    __slots__ = ("name", "lhs", "rhs",
                 "leading")    # EDeriv | None


class RuleStmt(Stmt):
    __slots__ = ("lhs", "rhs")


class CharStmt(Stmt):
    __slots__ = ("name", "components")


class GenStmt(Stmt):
    __slots__ = ("name",
                 "xi",         # tuple[ENode, ...] | None
                 "eta")


class VectorStmt(Stmt):
    __slots__ = ("name", "components")


class CommandStmt(Stmt):
    __slots__ = ("name",
                 "args",       # ((label | None, name | ENode), ...)
                 "expect")     # 'zero' | 'nonzero'


# Deeper input would overflow the interpreter stack of the recursive descent.
MAX_NESTING = 128


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {what or kind!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.line, self.cur.col)
        return self.advance()

    def expect_name(self, what: str = "identifier") -> Token:
        return self.expect("name", what)

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ENode:
        node = self.parse_term()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            right = self.parse_term()
            node = EBinary(op.line, op.col, op.kind, node, right)
        return node

    def parse_term(self) -> ENode:
        node = self.parse_factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            right = self.parse_factor()
            node = EBinary(op.line, op.col, op.kind, node, right)
        return node

    def parse_factor(self) -> ENode:
        # parentheses, exp(...), signs and power bases all nest through here
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} "
                             "levels deep", self.cur.line, self.cur.col)
        self.depth += 1
        if self.cur.kind in ("+", "-"):
            op = self.advance()
            node = self.parse_factor()
            if op.kind == "-":
                node = EUnary(op.line, op.col, node)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> ENode:
        base = self.parse_primary()
        if self.at("^"):
            caret = self.advance()
            neg = False
            if self.cur.kind == "-":
                self.advance()
                neg = True
            tok = self.expect("int", "integer exponent")
            if neg:
                raise ParseError("unsupported power (negative exponent)",
                                 caret.line, caret.col)
            return EPow(caret.line, caret.col, base, int(tok.text))
        return base

    def parse_primary(self) -> ENode:
        t = self.cur
        if t.kind == "int":
            self.advance()
            return ENum(t.line, t.col, int(t.text))
        if t.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t.kind == "name":
            if t.text == "exp":
                self.advance()
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return EExp(t.line, t.col, arg)
            if t.text == "D" and self.toks[self.pos + 1].kind == "[":
                return self.parse_derivative()
            self.advance()
            return EName(t.line, t.col, t.text)
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    def parse_derivative(self) -> EDeriv:
        t = self.expect_name()  # 'D'
        self.expect("[")
        head = self.expect_name("dependent variable or function name")
        dvars = []
        while self.at(","):
            self.advance()
            dvars.append(self.expect_name("differentiation variable").text)
        self.expect("]")
        if not dvars:
            raise ParseError("derivative needs at least one variable, e.g. D[u,x]",
                             t.line, t.col)
        return EDeriv(t.line, t.col, head.text, tuple(dvars))

    def parse_expr_tuple(self) -> tuple[ENode, ...]:
        if self.at("("):
            save = self.pos
            self.advance()
            first = self.parse_expr()
            if self.at(","):
                comps = [first]
                while self.at(","):
                    self.advance()
                    comps.append(self.parse_expr())
                self.expect(")")
                return tuple(comps)
            if self.at(")") and self.toks[self.pos + 1].kind == ";":
                self.advance()
                return (first,)
            self.pos = save  # parenthesized sub-expression, reparse plainly
        return (self.parse_expr(),)

    # -- statements ----------------------------------------------------------

    def parse_session(self) -> list[Stmt]:
        statements = []
        while not self.at("eof"):
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Stmt:
        t = self.cur
        if t.kind != "name":
            raise ParseError(f"expected a statement, found {t.text!r}",
                             t.line, t.col)
        handler = {
            "indep": self._decl, "dep": self._decl, "param": self._decl,
            "func": self._func, "eq": self._equation, "rule": self._rule,
            "char": self._char, "gen": self._gen, "vector": self._vector,
            "cmd": self._command,
        }.get(t.text)
        if handler is None:
            raise ParseError(
                f"unknown statement {t.text!r} (expected indep/dep/param/"
                "func/eq/rule/char/gen/vector/cmd)", t.line, t.col)
        return handler()

    def _decl(self) -> DeclStmt:
        kw = self.advance()
        names = [self.expect_name().text]
        while self.at("name") and self.cur.text != "nonzero":
            names.append(self.advance().text)
        nonzero = False
        if self.at("name", "nonzero"):
            if kw.text != "param":
                raise ParseError("'nonzero' only applies to parameters",
                                 self.cur.line, self.cur.col)
            self.advance()
            nonzero = True
        self.expect(";")
        return DeclStmt(kw.line, kw.col, kw.text, tuple(names), nonzero)

    def _func(self) -> FuncStmt:
        kw = self.advance()
        name = self.expect_name().text
        self.expect("(")
        args = [self.expect_name().text]
        while self.at(","):
            self.advance()
            args.append(self.expect_name().text)
        self.expect(")")
        self.expect(";")
        return FuncStmt(kw.line, kw.col, name, tuple(args))

    def _equation(self) -> EquationStmt:
        kw = self.advance()
        name = self.expect_name().text
        self.expect(":")
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        leading = None
        if self.at("name", "leading"):
            self.advance()
            leading = self.parse_derivative()
        self.expect(";")
        return EquationStmt(kw.line, kw.col, name, lhs, rhs, leading)

    def _rule(self) -> RuleStmt:
        kw = self.advance()
        lhs = self.parse_derivative()
        self.expect("->")
        rhs = self.parse_expr()
        self.expect(";")
        return RuleStmt(kw.line, kw.col, lhs, rhs)

    def _char(self) -> CharStmt:
        kw = self.advance()
        name = self.expect_name().text
        self.expect("=")
        comps = self.parse_expr_tuple()
        self.expect(";")
        return CharStmt(kw.line, kw.col, name, comps)

    def _gen(self) -> GenStmt:
        kw = self.advance()
        name = self.expect_name().text
        self.expect(":")
        xi = None
        if self.at("name", "xi"):
            self.advance()
            self.expect("=")
            xi = self._gen_tuple()
            self.expect(",")
        self.expect_name("eta")
        self.expect("=")
        eta = self._gen_tuple()
        self.expect(";")
        return GenStmt(kw.line, kw.col, name, xi, eta)

    def _gen_tuple(self) -> tuple[ENode, ...]:
        """Tuple in generator position; terminated by ',' or ';'."""
        if self.at("("):
            save = self.pos
            self.advance()
            comps = [self.parse_expr()]
            if self.at(",") or self.at(")"):
                while self.at(","):
                    self.advance()
                    comps.append(self.parse_expr())
                if self.at(")"):
                    self.advance()
                    return tuple(comps)
            self.pos = save
        return (self.parse_expr(),)

    def _vector(self) -> VectorStmt:
        kw = self.advance()
        name = self.expect_name().text
        self.expect("=")
        comps = self.parse_expr_tuple()
        self.expect(";")
        return VectorStmt(kw.line, kw.col, name, comps)

    def _hyphen_name(self) -> str:
        parts = [self.expect_name().text]
        while self.at("-") and self.toks[self.pos + 1].kind == "name":
            self.advance()
            parts.append(self.expect_name().text)
        return "-".join(parts)

    def _command(self) -> CommandStmt:
        kw = self.advance()
        name = self._hyphen_name()
        args: list[tuple[str | None, str | ENode]] = []
        expect = "zero"
        while not self.at(";"):
            if self.at("name", "expect"):
                self.advance()
                tok = self.expect_name("'zero' or 'nonzero'")
                if tok.text not in ("zero", "nonzero"):
                    raise ParseError("expected 'zero' or 'nonzero'",
                                     tok.line, tok.col)
                expect = tok.text
                break
            tok = self.expect_name("command argument")
            label = tok.text
            if self.at("="):
                self.advance()
                args.append((label, self.parse_expr()))
            elif self.at("-") and self.toks[self.pos + 1].kind == "name":
                # hyphenated bare argument (e.g. an ansatz target)
                parts = [label]
                while self.at("-") and self.toks[self.pos + 1].kind == "name":
                    self.advance()
                    parts.append(self.expect_name().text)
                args.append((None, "-".join(parts)))
            else:
                args.append((None, label))
        self.expect(";")
        return CommandStmt(kw.line, kw.col, name, tuple(args), expect)


def parse_session(text: str) -> list[Stmt]:
    """The statements of a session, in source order."""
    return _Parser(tokenize(text)).parse_session()


def parse_expression(text: str) -> ENode:
    p = _Parser(tokenize(text))
    node = p.parse_expr()
    if not p.at("eof"):
        raise ParseError(f"trailing input {p.cur.text!r}", p.cur.line, p.cur.col)
    return node
