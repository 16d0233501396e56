"""Session files: text -> engine objects in one recursive-descent pass.

The parser resolves each statement against the session as declared so
far: expressions come out as `Expr`, derivatives as jet or
opaque-function atoms, and each statement is checked and stored in the
session's tables as soon as it ends.  The system is put in
leading-derivative form once the last statement is read.  So every
identifier must be declared before it is used, inline command arguments
included, and the first error in source order is the one reported,
syntax or semantic, with its line and column; only the checks on the
whole system (one equation per dependent variable, distinct leading
derivatives, a reduction that terminates) wait for the end of input.

The grammar (docs/grammar.ebnf) is LL(1) apart from one-token
backtracking for a tuple versus a parenthesized expression.  Derivatives
are written D[u,x,t,...] (repeat a variable for higher order), which keeps
the grammar unambiguous with multiplication.

`print_session_source` writes the statements back from those tables as
a canonical session file, its expressions in the notation of
`expr.printer`, which this parser reads.
"""

from __future__ import annotations

from ..conslaw import Generator
from ..expr.atoms import (IndependentVar, JetVar, MultiIndex, OpaqueDeriv,
                          Parameter)
from ..expr.errors import ConslawError, LeadingSolveError
from ..expr.expression import Expr, atom_expr, exp_of, sum_exprs
from ..expr.printer import atom_text, expr_text
from ..expr.rules import RewriteRule, RuleSet
from ..jet import PdeSystem, solve_equation, solve_leading
from ..record import MutableRecord, Record
from .lexer import ParseError, Token, tokenize

__all__ = ["Session", "CommandStmt", "load_session", "parse_expression",
           "print_session_source"]


class CommandStmt(Record):
    __slots__ = ("name",
                 "args",        # ((label | None, name | Expr), ...)
                 "expect")      # 'zero' | 'nonzero'


class Session(MutableRecord):
    """The declarations of a session, filled in statement by statement,
    each under its name; `statements` holds their source order.  A
    characteristic, like a vector, is a tuple of expressions."""

    __slots__ = ("statements",  # [(keyword, key)] in source order; key:
                                # the name(s) declared, or the
                                # RewriteRule or CommandStmt itself
                 "indep", "dep",
                 "params",      # name -> Parameter
                 "funcs",       # name -> OpaqueDeriv, the function's value
                 "rule_list",   # [RewriteRule]
                 "chars",       # name -> tuple[Expr, ...]
                 "gens",        # name -> Generator
                 "vectors",     # name -> tuple[Expr, ...]
                 "commands",    # [CommandStmt]
                 "system")      # PdeSystem | None
    _defaults = {"statements": [], "indep": [], "dep": [], "params": {},
                 "funcs": {}, "rule_list": [], "chars": {}, "gens": {},
                 "vectors": {}, "commands": [], "system": None}

    def require_system(self) -> PdeSystem:
        if self.system is None:
            raise ConslawError("session declares no equations")
        return self.system


# Deeper input would overflow the interpreter stack of the recursive descent.
MAX_NESTING = 128


class _Parser:
    def __init__(self, text: str, session: Session):
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.s = session
        self.names: dict[str, str] = {}   # name -> kind, for diagnostics
        self.eqs: list[tuple[str, Expr, JetVar | None]] = []   # lhs - rhs

    # -- token helpers -------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None,
               text: str | None = None) -> Token:
        if not self.at(kind, text):
            raise ParseError(
                f"expected {what or text or kind!r}, found "
                f"{self.cur.text or 'end of input'!r}",
                self.cur.line, self.cur.col)
        return self.advance()

    def expect_name(self, what: str = "identifier") -> Token:
        return self.expect("name", what)

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def integer(self, what: str) -> int:
        tok = self.expect("int", what)
        try:
            return int(tok.text)
        except ValueError:   # longer than int() converts
            raise ParseError(f"integer literal of {len(tok.text)} digits is "
                             "too long", tok.line, tok.col) from None

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        pieces = [self.parse_term()]
        while self.cur.kind in ("+", "-"):
            negate = self.advance().kind == "-"
            term = self.parse_term()
            pieces.append(-term if negate else term)
        return sum_exprs(pieces)

    def parse_term(self) -> Expr:
        acc = self.parse_factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            right = self.parse_factor()
            if op.kind == "*":
                acc = acc * right
                continue
            try:
                acc = acc / right
            except ConslawError as ex:
                raise ParseError(str(ex), op.line, op.col) from None
        return acc

    def parse_factor(self) -> Expr:
        # parentheses, exp(...), signs and power bases all nest through here
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} "
                             "levels deep", self.cur.line, self.cur.col)
        self.depth += 1
        if self.cur.kind in ("+", "-"):
            negate = self.advance().kind == "-"
            value = self.parse_factor()
            if negate:
                value = -value
        else:
            value = self.parse_power()
        self.depth -= 1
        return value

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if not self.at("^"):
            return base
        caret = self.advance()
        negative = self.at("-")
        if negative:
            self.advance()
        n = self.integer("integer exponent")
        if negative:
            raise ParseError("unsupported power (negative exponent)",
                             caret.line, caret.col)
        return base ** n

    def parse_primary(self) -> Expr:
        t = self.cur
        if t.kind == "int":
            return Expr.const(self.integer("integer"))
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
                return exp_of(arg)
            if t.text == "D" and self.toks[self.pos + 1].kind == "[":
                return atom_expr(self.parse_derivative())
            self.advance()
            return self._name_expr(t)
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    def _name_expr(self, t: Token) -> Expr:
        name = t.text
        if name in self.s.params:
            return atom_expr(self.s.params[name])
        if name in self.s.dep:
            return atom_expr(JetVar(name))
        if name in self.s.indep:
            return atom_expr(IndependentVar(name))
        if name in self.s.funcs:
            return atom_expr(self.s.funcs[name])
        raise ParseError(f"unknown symbol {name!r}", t.line, t.col)

    def parse_derivative(self) -> JetVar | OpaqueDeriv:
        t = self.expect("name", text="D")
        self.expect("[")
        head = self.expect_name("dependent variable or function name").text
        dvars = []
        while self.at(","):
            self.advance()
            dvars.append(self.expect_name("differentiation variable").text)
        self.expect("]")
        if not dvars:
            raise ParseError("derivative needs at least one variable, e.g. D[u,x]",
                             t.line, t.col)
        if head in self.s.dep:
            for v in dvars:
                if v not in self.s.indep:
                    raise ParseError(f"{v!r} is not an independent variable",
                                     t.line, t.col)
            return JetVar(head, MultiIndex.of(*dvars))
        if head in self.s.funcs:
            f = self.s.funcs[head]
            arg_names = [atom_text(a) for a in f.args]
            for v in dvars:
                if v not in arg_names:
                    raise ParseError(f"{v!r} is not an argument of {head!r}",
                                     t.line, t.col)
                f = f.bump(arg_names.index(v))
            return f
        raise ParseError(
            f"{head!r} is not a dependent variable or declared function",
            t.line, t.col)

    def parse_tuple(self, ends: tuple[str, ...]) -> tuple[Expr, ...]:
        """`( expr, expr, ... )`, `( expr )` before one of `ends`, or a
        plain expression; `(u+x)*2` is reparsed as the latter."""
        if self.at("("):
            save = self.pos
            self.advance()
            comps = [self.parse_expr()]
            while self.at(","):
                self.advance()
                comps.append(self.parse_expr())
            if len(comps) > 1:
                self.expect(")")
                return tuple(comps)
            if self.at(")") and self.toks[self.pos + 1].kind in ends:
                self.advance()
                return tuple(comps)
            self.pos = save
        return (self.parse_expr(),)

    # -- statements ----------------------------------------------------------

    def parse_session(self) -> Session:
        while not self.at("eof"):
            self.parse_statement()
        if self.eqs:
            names, exprs, leading = zip(*self.eqs)
            self.s.system = solve_leading(self.s.indep, self.s.dep, exprs,
                                          leading, names, self.s.rule_list)
        return self.s

    def parse_statement(self) -> None:
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
        self.s.statements.append((t.text, handler(self.advance())))

    def _new_name(self, kind: str, kw: Token) -> str:
        """Read a name this statement declares; a duplicate or reserved
        one is reported at the statement keyword."""
        name = self.expect_name().text
        if name in self.names:
            raise ParseError(f"duplicate declaration of {name!r} "
                             f"(already a {self.names[name]})", kw.line, kw.col)
        if name in ("exp", "D"):
            raise ParseError(f"{name!r} is reserved", kw.line, kw.col)
        self.names[name] = kind
        return name

    def _check_arity(self, what: str, comps, names, kind: str,
                     kw: Token) -> None:
        if len(comps) != len(names):
            raise ParseError(f"{what} {len(comps)} components for "
                             f"{len(names)} {kind} variables", kw.line, kw.col)

    def _decl(self, kw: Token) -> tuple[str, ...]:
        names = [self._new_name(kw.text, kw)]
        while self.at("name") and self.cur.text != "nonzero":
            names.append(self._new_name(kw.text, kw))
        nonzero = False
        if self.at("name", "nonzero"):
            if kw.text != "param":
                raise ParseError("'nonzero' only applies to parameters",
                                 self.cur.line, self.cur.col)
            self.advance()
            nonzero = True
        self.expect(";")
        if kw.text == "indep":
            self.s.indep.extend(names)
        elif kw.text == "dep":
            self.s.dep.extend(names)
        else:
            self.s.params.update((n, Parameter(n, nonzero)) for n in names)
        return tuple(names)

    def _func(self, kw: Token) -> str:
        name = self._new_name("function", kw)
        self.expect("(")
        args = [self._func_arg(kw)]
        while self.at(","):
            self.advance()
            a = self._func_arg(kw)
            if a in args:
                raise ParseError(f"function argument {atom_text(a)!r} is "
                                 "repeated", kw.line, kw.col)
            args.append(a)
        self.expect(")")
        self.expect(";")
        self.s.funcs[name] = OpaqueDeriv(name, tuple(args))
        return name

    def _func_arg(self, kw: Token) -> IndependentVar | JetVar:
        a = self.expect_name().text
        if a in self.s.indep:
            return IndependentVar(a)
        if a in self.s.dep:
            return JetVar(a)
        raise ParseError(f"function argument {a!r} must be a declared "
                         "variable", kw.line, kw.col)

    def _equation(self, kw: Token) -> str:
        name = self._new_name("equation", kw)
        self.expect(":")
        lhs = self.parse_expr()
        self.expect("=")
        expr = lhs - self.parse_expr()
        leading = None
        if self.at("name", "leading"):
            self.advance()
            t = self.cur
            leading = self.parse_derivative()
            if not isinstance(leading, JetVar):
                raise ParseError("leading derivative must be a jet derivative",
                                 t.line, t.col)
        self.expect(";")
        try:
            solve_equation(expr, leading, name, self.s.indep, self.s.dep)
        except LeadingSolveError as ex:
            raise ParseError(str(ex), kw.line, kw.col) from None
        self.eqs.append((name, expr, leading))
        return name

    def _rule(self, kw: Token) -> RewriteRule:
        lhs = self.parse_derivative()
        if not isinstance(lhs, OpaqueDeriv):
            raise ParseError(
                "rewrite rules apply to opaque-function derivatives only",
                kw.line, kw.col)
        self.expect("->")
        rhs = self.parse_expr()
        self.expect(";")
        try:
            self.s.rule_list.append(RewriteRule(lhs, rhs))
            RuleSet(self.s.rule_list)  # rejects a duplicate at its line
        except ConslawError as ex:
            raise ParseError(str(ex), kw.line, kw.col) from None
        return self.s.rule_list[-1]

    def _char(self, kw: Token) -> str:
        name = self._new_name("characteristic", kw)
        self.expect("=")
        comps = self.parse_tuple((";",))
        self.expect(";")
        self._check_arity(f"characteristic {name!r} has", comps, self.s.dep,
                          "dependent", kw)
        self.s.chars[name] = comps
        return name

    def _gen(self, kw: Token) -> str:
        name = self._new_name("generator", kw)
        self.expect(":")
        xi = tuple(Expr.zero() for _ in self.s.indep)
        if self.at("name", "xi"):
            self.advance()
            self.expect("=")
            xi = self.parse_tuple((",",))
            self._check_arity(f"generator {name!r}: xi has", xi,
                              self.s.indep, "independent", kw)
            self.expect(",")
        self.expect("name", text="eta")
        self.expect("=")
        eta = self.parse_tuple((";",))
        self.expect(";")
        self._check_arity(f"generator {name!r}: eta has", eta, self.s.dep,
                          "dependent", kw)
        try:
            self.s.gens[name] = Generator(xi, eta)
        except ConslawError as ex:
            raise ParseError(str(ex), kw.line, kw.col) from None
        return name

    def _vector(self, kw: Token) -> str:
        name = self._new_name("vector", kw)
        self.expect("=")
        comps = self.parse_tuple((";",))
        self.expect(";")
        self._check_arity(f"vector {name!r} has", comps, self.s.indep,
                          "independent", kw)
        self.s.vectors[name] = comps
        return name

    def _hyphen_name(self, what: str = "identifier") -> str:
        parts = [self.expect_name(what).text]
        while self.at("-") and self.toks[self.pos + 1].kind == "name":
            self.advance()
            parts.append(self.advance().text)
        return "-".join(parts)

    def _command(self, kw: Token) -> CommandStmt:
        name = self._hyphen_name()
        args: list[tuple[str | None, str | Expr]] = []
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
            if self.at("name") and self.toks[self.pos + 1].kind == "=":
                label = self.advance().text
                self.advance()
                args.append((label, self.parse_expr()))
            else:
                # a declared name, or a hyphenated one (an ansatz target)
                args.append((None, self._hyphen_name("command argument")))
        self.expect(";")
        self.s.commands.append(CommandStmt(name, tuple(args), expect))
        return self.s.commands[-1]


def load_session(text: str) -> Session:
    return _Parser(text, Session()).parse_session()


def parse_expression(text: str, session: Session) -> Expr:
    """An expression over the declarations of `session`."""
    p = _Parser(text, session)
    value = p.parse_expr()
    if not p.at("eof"):
        raise ParseError(f"trailing input {p.cur.text!r}", p.cur.line, p.cur.col)
    return value


# -- printing ----------------------------------------------------------------

def _tuple_text(comps, bare: bool) -> str:
    if bare and len(comps) == 1:
        return expr_text(comps[0])
    return "(" + ", ".join(expr_text(c) for c in comps) + ")"


def _stmt_text(kw: str, key, session: Session) -> str:
    if kw in ("indep", "dep", "param"):
        flag = " nonzero" if (kw == "param"
                              and session.params[key[0]].nonzero) else ""
        return f"{kw} {' '.join(key)}{flag}"
    if kw == "func":
        args = session.funcs[key].args
        return f"func {key}({','.join(atom_text(a) for a in args)})"
    if kw == "eq":
        sysm = session.system
        i = sysm.eq_names.index(key)
        return (f"eq {key}: {expr_text(sysm.equations[i])} = 0 "
                f"leading {atom_text(sysm.leading[i])}")
    if kw == "rule":
        return f"rule {atom_text(key.lhs)} -> {expr_text(key.rhs)}"
    if kw == "char":
        return f"char {key} = {_tuple_text(session.chars[key], True)}"
    if kw == "gen":
        g = session.gens[key]
        return (f"gen {key}: xi = {_tuple_text(g.xi, False)}, "
                f"eta = {_tuple_text(g.eta, False)}")
    if kw == "vector":
        return f"vector {key} = {_tuple_text(session.vectors[key], True)}"
    parts = ["cmd", key.name]
    for label, val in key.args:
        text = val if isinstance(val, str) else expr_text(val)
        parts.append(text if label is None else f"{label}={text}")
    if key.expect != "zero":
        parts.append(f"expect {key.expect}")
    return " ".join(parts)


def print_session_source(session: Session) -> str:
    """Canonical session file for a resolved session: its statements in
    source order, equations in solved form.  Reparsing it yields an
    equivalent session (declarations, system, rules, named objects and
    commands are preserved; comments and formatting are not)."""
    return "".join(_stmt_text(kw, key, session) + ";\n"
                   for kw, key in session.statements) or "\n"
