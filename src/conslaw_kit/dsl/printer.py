"""Pretty-printers: canonical DSL text (round-trips through the parser)
and LaTeX in the journal's notation (derivative subscripts, primes for
derivatives of single-argument functions, factored exponents).

Display order differs from the internal canonical order: higher-degree
terms come first, ties broken by most-derived jet content, with
independent variables last, which reproduces the familiar shapes
(u^2*u_xx + u*u_x^2, exponents gamma*u + alpha*t + beta*x).
"""

from __future__ import annotations

from fractions import Fraction

from ..expr.atoms import (Atom, ExpAtom, ExpConst, IndependentVar, JetVar,
                          OpaqueDeriv)
from ..expr.coeff import Coeff, Poly, common_content
from ..expr.expression import Expr, Term
from .session import (CharStmt, DeclStmt, EquationStmt, FuncStmt, GenStmt,
                      RuleStmt, VectorStmt)

__all__ = ["expr_text", "expr_latex", "print_session_source"]

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "pi", "rho", "sigma", "tau",
    "upsilon", "phi", "chi", "psi", "omega",
}


# -- display ordering ---------------------------------------------------------

def _atom_display_key(a: Atom):
    if isinstance(a, JetVar):
        return (0, -a.order, a.dep, a.index.counts)
    if isinstance(a, OpaqueDeriv):
        return (1, -a.order, a.func, a.index)
    if isinstance(a, (ExpAtom, ExpConst)):
        return (2,)
    if isinstance(a, IndependentVar):
        return (3, a.name)
    return (4, str(a))


def _term_display_key(t: Term):
    keys = []
    for a, k in t.powers:
        keys.extend([_atom_display_key(a)] * k)
    return (-t.degree, sorted(keys))


def _display_terms(e: Expr) -> list[Term]:
    return sorted(e.terms, key=_term_display_key)


def _factor_key(a: Atom):
    """Within a term: plain variables first, then opaque functions, then
    jets by increasing order, exponentials last."""
    if isinstance(a, IndependentVar):
        return (0, a.name)
    if isinstance(a, OpaqueDeriv):
        return (1, a.order, a.func, a.index)
    if isinstance(a, JetVar):
        return (2, a.order, a.dep, a.index.counts)
    return (3,)


def _factor_order(powers):
    return sorted(powers, key=lambda ak: _factor_key(ak[0]))


# -- coefficient rendering -----------------------------------------------------

def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _mono_text(m) -> list[str]:
    return [f"{p.name}^{k}" if k > 1 else p.name for p, k in m]


def _coeff_pieces(c: Coeff) -> tuple[bool, str]:
    """(negative, text) with the sign pulled out when unambiguous."""
    unit = c.num.as_unit()
    if unit is not None:
        q, m = unit
        neg = q < 0
        q = abs(q)
        parts = [] if q == 1 and m else [_frac_text(q)]
        parts += _mono_text(m)
        text = "*".join(parts) if parts else "1"
    else:
        neg = False
        text = "(" + _poly_text(c.num) + ")"
    for p, k in c.den:
        text += f"/{p.name}^{k}" if k > 1 else f"/{p.name}"
    return neg, text


def _poly_text(p: Poly) -> str:
    parts = []
    for m, q in sorted(p.terms, key=lambda e: (tuple((pp.name, kk) for pp, kk in e[0]),)):
        body = "*".join(_mono_text(m))
        mag = _frac_text(abs(q))
        if body and abs(q) == 1:
            piece = body
        elif body:
            piece = f"{mag}*{body}"
        else:
            piece = mag
        parts.append(("- " if q < 0 else "+ ") + piece)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:] if out.startswith("- ") else out


# -- text -----------------------------------------------------------------------

def _atom_text(a: Atom) -> str:
    if isinstance(a, IndependentVar):
        return a.name
    if isinstance(a, JetVar):
        if a.order == 0:
            return a.dep
        return f"D[{a.dep},{','.join(a.index.to_seq())}]"
    if isinstance(a, OpaqueDeriv):
        if a.order == 0:
            return a.func
        dvars = []
        for arg, k in zip(a.args, a.index):
            dvars.extend([_atom_text(arg)] * k)
        return f"D[{a.func},{','.join(dvars)}]"
    if isinstance(a, ExpAtom):
        return f"exp({expr_text(a.exponent)})"
    if isinstance(a, ExpConst):
        return f"exp({_frac_text(a.value)})"
    raise TypeError(f"unknown atom {a!r}")


def _term_text(t: Term) -> tuple[bool, str]:
    neg, ctext = _coeff_pieces(t.coeff)
    factors = [f"{_atom_text(a)}^{k}" if k > 1 else _atom_text(a)
               for a, k in _factor_order(t.powers)]
    if not factors:
        return neg, ctext
    if ctext == "1":
        return neg, "*".join(factors)
    return neg, "*".join([ctext] + factors)


def expr_text(e: Expr) -> str:
    """Canonical textual form; parses back to the same expression."""
    if e.is_zero:
        return "0"
    out = []
    for i, t in enumerate(_display_terms(e)):
        neg, body = _term_text(t)
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# -- latex ------------------------------------------------------------------------

def _sym_latex(name: str) -> str:
    return f"\\{name}" if name in _GREEK else name


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _mono_latex(m) -> str:
    return " ".join(f"{_sym_latex(p.name)}^{k}" if k > 1 else _sym_latex(p.name)
                    for p, k in m)


def _coeff_latex(c: Coeff) -> tuple[bool, str]:
    unit = c.num.as_unit()
    if unit is not None:
        q, m = unit
        neg = q < 0
        q = abs(q)
        if c.den:
            num = (_mono_latex(m) or "1") if q == 1 else \
                (f"{_frac_latex(q)} {_mono_latex(m)}".strip())
            return neg, f"\\frac{{{num}}}{{{_mono_latex(c.den)}}}"
        parts = []
        if q != 1 or not m:
            parts.append(_frac_latex(q))
        if m:
            parts.append(_mono_latex(m))
        return neg, " ".join(parts) if parts else "1"
    body = _poly_latex(c.num)
    if c.den:
        return False, f"\\frac{{{body}}}{{{_mono_latex(c.den)}}}"
    return False, f"\\big({body}\\big)"


def _poly_latex(p: Poly) -> str:
    parts = []
    for m, q in sorted(p.terms, key=lambda e: (tuple((pp.name, kk) for pp, kk in e[0]),)):
        body = _mono_latex(m)
        if body and abs(q) == 1:
            piece = body
        elif body:
            piece = f"{_frac_latex(abs(q))} {body}"
        else:
            piece = _frac_latex(abs(q))
        parts.append(("-" if q < 0 else "+") + piece)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def _exponent_latex(e: Expr) -> str:
    """Exponent with the rational content factored out, e.g.
    2(\\gamma u+\\alpha t+\\beta x)."""
    if len(e.terms) > 1:
        content = common_content(t.coeff.num for t in e.terms)
        if content != 1:
            inner = e.scale(1 / content)
            return f"{_frac_latex(content)}({expr_latex(inner)})"
    return expr_latex(e)


def _atom_latex(a: Atom) -> str:
    if isinstance(a, IndependentVar):
        return _sym_latex(a.name)
    if isinstance(a, JetVar):
        base = _sym_latex(a.dep)
        if a.order == 0:
            return base
        return f"{base}_{{{''.join(a.index.to_seq())}}}"
    if isinstance(a, OpaqueDeriv):
        base = _sym_latex(a.func)
        has_dep_arg = any(isinstance(arg, JetVar) for arg in a.args)
        if len(a.args) == 1 and has_dep_arg:
            primes = "'" * a.order if a.order <= 3 else f"^{{({a.order})}}"
            return f"{base}{primes}({_atom_latex(a.args[0])})"
        if a.order == 0:
            return base
        subs = "".join(_atom_latex(arg) * k for arg, k in zip(a.args, a.index))
        return f"{base}_{{{subs}}}"
    if isinstance(a, ExpAtom):
        return f"e^{{{_exponent_latex(a.exponent)}}}"
    if isinstance(a, ExpConst):
        return f"e^{{{_frac_latex(a.value)}}}"
    raise TypeError(f"unknown atom {a!r}")


def expr_latex(e: Expr) -> str:
    if e.is_zero:
        return "0"
    out = []
    for i, t in enumerate(_display_terms(e)):
        neg, ctext = _coeff_latex(t.coeff)
        factors = [f"{_atom_latex(a)}^{k}" if k > 1 else _atom_latex(a)
                   for a, k in _factor_order(t.powers)]
        if factors and ctext == "1":
            body = " ".join(factors)
        elif factors:
            body = " ".join([ctext] + factors)
        else:
            body = ctext
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)


# -- session printing -------------------------------------------------------------

def _tuple_text(comps, bare: bool) -> str:
    if bare and len(comps) == 1:
        return expr_text(comps[0])
    return "(" + ", ".join(expr_text(c) for c in comps) + ")"


def _stmt_text(st, solved: dict) -> str:
    if isinstance(st, DeclStmt):
        flag = " nonzero" if st.nonzero else ""
        return f"{st.kind} {' '.join(st.names)}{flag}"
    if isinstance(st, FuncStmt):
        return f"func {st.name}({','.join(st.arg_names)})"
    if isinstance(st, EquationStmt):
        eq, lead = solved[st.name]
        return f"eq {st.name}: {expr_text(eq)} = 0 leading {_atom_text(lead)}"
    if isinstance(st, RuleStmt):
        return f"rule {_atom_text(st.rule.lhs)} -> {expr_text(st.rule.rhs)}"
    if isinstance(st, CharStmt):
        return f"char {st.name} = {_tuple_text(st.components, True)}"
    if isinstance(st, GenStmt):
        return (f"gen {st.name}: xi = {_tuple_text(st.xi, False)}, "
                f"eta = {_tuple_text(st.eta, False)}")
    if isinstance(st, VectorStmt):
        return f"vector {st.name} = {_tuple_text(st.components, True)}"
    parts = ["cmd", st.name]   # a CommandStmt
    for label, val in st.args:
        text = val if isinstance(val, str) else expr_text(val)
        parts.append(text if label is None else f"{label}={text}")
    if st.expect != "zero":
        parts.append(f"expect {st.expect}")
    return " ".join(parts)


def print_session_source(session) -> str:
    """Canonical session file for a resolved session: its statements in
    source order, equations in solved form.  Reparsing it yields an
    equivalent session (declarations, system, rules, named objects and
    commands are preserved; comments and formatting are not)."""
    solved = {}
    if session.system is not None:
        sysm = session.system
        solved = dict(zip(sysm.eq_names, zip(sysm.equations, sysm.leading)))
    return "".join(_stmt_text(st, solved) + ";\n"
                   for st in session.statements) or "\n"
