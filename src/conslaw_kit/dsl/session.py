"""Semantic analysis: session AST -> engine objects.

Unknown identifiers, arity mismatches and ill-formed systems are reported
here with source positions; the parser itself accepts anything matching
the grammar.
"""

from __future__ import annotations

from ..expr.atoms import (IndependentVar, JetVar, MultiIndex, OpaqueDeriv,
                          Parameter)
from ..expr.errors import ConslawError
from ..expr.expression import Expr, atom_expr, exp_of, sum_exprs
from ..expr.rules import RewriteRule, RuleSet
from ..jet import PdeSystem, solve_leading
from ..variational import Characteristic
from ..conslaw import Generator
from ..record import MutableRecord, Record
from .lexer import ParseError
from .parser import (CharStmt, CommandStmt, DeclStmt, EBinary, EDeriv, EExp,
                     EName, ENode, ENum, EPow, EquationStmt, EUnary, FuncStmt,
                     GenStmt, RuleStmt, Stmt, VectorStmt, parse_session)

__all__ = ["Session", "OpaqueFunc", "resolve_session", "resolve_expression",
           "load_session"]


class OpaqueFunc(Record):
    __slots__ = ("name",
                 "args",        # tuple[Atom, ...]
                 "arg_names")


class Session(MutableRecord):
    """The declarations of a session, filled in by the resolver."""

    __slots__ = ("indep", "dep",
                 "params",      # name -> Parameter
                 "funcs",       # name -> OpaqueFunc
                 "equations",   # [(name, Expr, leading JetVar | None)]
                 "rule_list",   # [RewriteRule]
                 "chars",       # name -> Characteristic
                 "gens",        # name -> Generator
                 "vectors",     # name -> tuple[Expr, ...]
                 "commands",    # [CommandStmt]
                 "system")      # PdeSystem | None
    _defaults = {"indep": [], "dep": [], "params": {}, "funcs": {},
                 "equations": [], "rule_list": [], "chars": {}, "gens": {},
                 "vectors": {}, "commands": [], "system": None}

    def require_system(self) -> PdeSystem:
        if self.system is None:
            raise ConslawError("session declares no equations")
        return self.system


class _Resolver:
    def __init__(self):
        self.s = Session()
        self.names: dict[str, str] = {}   # name -> kind, for diagnostics

    def _declare(self, name: str, kind: str, line: int, col: int) -> None:
        if name in self.names:
            raise ParseError(f"duplicate declaration of {name!r} "
                             f"(already a {self.names[name]})", line, col)
        if name in ("exp", "D"):
            raise ParseError(f"{name!r} is reserved", line, col)
        self.names[name] = kind

    # -- expression resolution ---------------------------------------------

    def expr(self, node: ENode) -> Expr:
        if isinstance(node, ENum):
            return Expr.const(node.value)
        if isinstance(node, EName):
            return self._name_expr(node)
        if isinstance(node, EDeriv):
            return atom_expr(self.deriv_atom(node))
        if isinstance(node, EExp):
            return exp_of(self.expr(node.arg))
        if isinstance(node, EUnary):
            return -self.expr(node.arg)
        if isinstance(node, EPow):
            return self.expr(node.base) ** node.exponent
        if isinstance(node, EBinary):
            # a flat chain nests as deep as it is long: loop, do not recurse
            additive = node.op in "+-"
            links: list[EBinary] = []
            while isinstance(node, EBinary) and (node.op in "+-") == additive:
                links.append(node)
                node = node.left
            acc = self.expr(node)
            if additive:
                return sum_exprs([acc, *(
                    -self.expr(n.right) if n.op == "-" else self.expr(n.right)
                    for n in reversed(links))])
            for n in reversed(links):
                right = self.expr(n.right)
                if n.op == "*":
                    acc = acc * right
                    continue
                try:
                    acc = acc / right
                except ConslawError as ex:
                    raise ParseError(str(ex), n.line, n.col) from None
            return acc
        raise AssertionError(f"unhandled node {node!r}")

    def _name_expr(self, node: EName) -> Expr:
        name = node.name
        if name in self.s.params:
            return atom_expr(self.s.params[name])
        if name in self.s.dep:
            return atom_expr(JetVar(name))
        if name in self.s.indep:
            return atom_expr(IndependentVar(name))
        if name in self.s.funcs:
            f = self.s.funcs[name]
            return atom_expr(OpaqueDeriv(f.name, f.args))
        raise ParseError(f"unknown symbol {name!r}", node.line, node.col)

    def deriv_atom(self, node: EDeriv) -> "JetVar | OpaqueDeriv":
        head = node.head
        if head in self.s.dep:
            for v in node.dvars:
                if v not in self.s.indep:
                    raise ParseError(
                        f"{v!r} is not an independent variable", node.line,
                        node.col)
            return JetVar(head, MultiIndex.of(*node.dvars))
        if head in self.s.funcs:
            f = self.s.funcs[head]
            index = [0] * len(f.arg_names)
            for v in node.dvars:
                if v not in f.arg_names:
                    raise ParseError(
                        f"{v!r} is not an argument of {head!r}", node.line,
                        node.col)
                index[f.arg_names.index(v)] += 1
            return OpaqueDeriv(f.name, f.args, tuple(index))
        raise ParseError(
            f"{head!r} is not a dependent variable or declared function",
            node.line, node.col)

    # -- statements ----------------------------------------------------------

    def run(self, statements: list[Stmt]) -> Session:
        for st in statements:
            if isinstance(st, DeclStmt):
                self._decl(st)
            elif isinstance(st, FuncStmt):
                self._func(st)
            elif isinstance(st, EquationStmt):
                self._equation(st)
            elif isinstance(st, RuleStmt):
                self._rule(st)
            elif isinstance(st, CharStmt):
                self._char(st)
            elif isinstance(st, GenStmt):
                self._gen(st)
            elif isinstance(st, VectorStmt):
                self._vector(st)
            elif isinstance(st, CommandStmt):
                self.s.commands.append(st)
            else:
                raise AssertionError(f"unhandled statement {st!r}")
        self._finish()
        return self.s

    def _decl(self, st: DeclStmt) -> None:
        for name in st.names:
            self._declare(name, st.kind, st.line, st.col)
            if st.kind == "indep":
                self.s.indep.append(name)
            elif st.kind == "dep":
                self.s.dep.append(name)
            else:
                self.s.params[name] = Parameter(name, st.nonzero)

    def _func(self, st: FuncStmt) -> None:
        self._declare(st.name, "function", st.line, st.col)
        args = []
        for a in st.args:
            if a in self.s.indep:
                args.append(IndependentVar(a))
            elif a in self.s.dep:
                args.append(JetVar(a))
            else:
                raise ParseError(
                    f"function argument {a!r} must be a declared variable",
                    st.line, st.col)
        self.s.funcs[st.name] = OpaqueFunc(st.name, tuple(args), st.args)

    def _equation(self, st: EquationStmt) -> None:
        self._declare(st.name, "equation", st.line, st.col)
        expr = self.expr(st.lhs) - self.expr(st.rhs)
        leading = None
        if st.leading is not None:
            atom = self.deriv_atom(st.leading)
            if not isinstance(atom, JetVar):
                raise ParseError("leading derivative must be a jet derivative",
                                 st.leading.line, st.leading.col)
            leading = atom
        self.s.equations.append((st.name, expr, leading))

    def _rule(self, st: RuleStmt) -> None:
        lhs = self.deriv_atom(st.lhs)
        if not isinstance(lhs, OpaqueDeriv):
            raise ParseError(
                "rewrite rules apply to opaque-function derivatives only",
                st.line, st.col)
        rhs = self.expr(st.rhs)
        try:
            self.s.rule_list.append(RewriteRule(lhs, rhs))
            RuleSet(self.s.rule_list)  # rejects a duplicate at its line
        except ConslawError as ex:
            raise ParseError(str(ex), st.line, st.col) from None

    def _char(self, st: CharStmt) -> None:
        self._declare(st.name, "characteristic", st.line, st.col)
        comps = tuple(self.expr(c) for c in st.components)
        if len(comps) != len(self.s.dep):
            raise ParseError(
                f"characteristic {st.name!r} has {len(comps)} components for "
                f"{len(self.s.dep)} dependent variables", st.line, st.col)
        self.s.chars[st.name] = Characteristic(comps)

    def _gen(self, st: GenStmt) -> None:
        self._declare(st.name, "generator", st.line, st.col)
        eta = tuple(self.expr(c) for c in st.eta)
        if len(eta) != len(self.s.dep):
            raise ParseError(
                f"generator {st.name!r}: eta has {len(eta)} components for "
                f"{len(self.s.dep)} dependent variables", st.line, st.col)
        if st.xi is None:
            xi = tuple(Expr.zero() for _ in self.s.indep)
        else:
            xi = tuple(self.expr(c) for c in st.xi)
            if len(xi) != len(self.s.indep):
                raise ParseError(
                    f"generator {st.name!r}: xi has {len(xi)} components for "
                    f"{len(self.s.indep)} independent variables",
                    st.line, st.col)
        self.s.gens[st.name] = Generator(xi, eta)

    def _vector(self, st: VectorStmt) -> None:
        self._declare(st.name, "vector", st.line, st.col)
        comps = tuple(self.expr(c) for c in st.components)
        if len(comps) != len(self.s.indep):
            raise ParseError(
                f"vector {st.name!r} has {len(comps)} components for "
                f"{len(self.s.indep)} independent variables", st.line, st.col)
        self.s.vectors[st.name] = comps

    def _finish(self) -> None:
        if self.s.equations:
            names = [n for n, _, _ in self.s.equations]
            exprs = [e for _, e, _ in self.s.equations]
            leadings = [l for _, _, l in self.s.equations]
            self.s.system = solve_leading(self.s.indep, self.s.dep, exprs,
                                          leadings, names, self.s.rule_list)


def resolve_session(statements: list[Stmt]) -> Session:
    return _Resolver().run(statements)


def resolve_expression(session: Session, node: ENode) -> Expr:
    """Evaluate an expression AST in the scope of a resolved session."""
    r = _Resolver()
    r.s = session
    return r.expr(node)


def load_session(text: str) -> Session:
    return resolve_session(parse_session(text))
