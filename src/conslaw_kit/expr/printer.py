"""The one text notation of expressions, and its LaTeX form.

`expr_text` writes the canonical session notation: the session parser
reads it back to the same expression.  `atom_text` and `poly_text` write
an atom and a parameter polynomial in the same notation.  Every string
the engine shows names its expressions through this module: reports,
`str(Expr)`, the side conditions of the ansatz solver and the atoms
named in error messages.  `expr_latex` writes the journal's notation
(derivative subscripts, primes for derivatives of single-argument
functions, factored exponents).

Display order is the printer's own, not the internal order by power
product: higher-degree terms come first, ties broken by most-derived jet
content, with independent variables last, which reproduces the familiar
shapes (u^2*u_xx + u*u_x^2, exponents gamma*u + alpha*t + beta*x).

A caller that prints many expressions, as a report does, may pass one
memo dict per notation, which it owns, so each is rendered once.

An integer longer than `str(int)` converts raises `ConslawError`: no
shorter text would read back to the same number.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .atoms import (Atom, ExpAtom, IndependentVar, JetVar, OpaqueDeriv,
                    Parameter)
from .coeff import Coeff, Poly, as_poly, common_content
from .errors import ConslawError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .expression import Expr

__all__ = ["atom_text", "poly_text", "expr_text", "expr_latex"]

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
    if isinstance(a, ExpAtom):
        return (2,)
    if isinstance(a, IndependentVar):
        return (3, a.name)
    return (4, atom_text(a))


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


# -- shared shapes -------------------------------------------------------------

def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:   # longer than str() converts
        raise ConslawError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for printing an integer") from None


def _power(base: str, k: int, brace: bool = False) -> str:
    """base^k; with `brace` (LaTeX) a multi-digit exponent is braced."""
    if k == 1:
        return base
    return f"{base}^{{{k}}}" if brace and k > 9 else f"{base}^{k}"


def _signed_sum(pieces, pad: str) -> str:
    """(negative, text) pieces as a sum: the first sign bare, the others
    padded by `pad`."""
    return "".join((("-" if neg else "") if i == 0 else
                    f"{pad}{'-' if neg else '+'}{pad}") + text
                   for i, (neg, text) in enumerate(pieces))


def _scaled(mag: str, body: str, times: str) -> str:
    """A magnitude times a product, a magnitude of 1 left out."""
    if not body:
        return mag
    return body if mag == "1" else f"{mag}{times}{body}"


def _poly_pieces(p: Poly, mono, frac, times: str):
    """(negative, text) per term, the terms ordered by parameter names."""
    for m, q in sorted(p.terms,
                       key=lambda t: tuple((a.name, k) for a, k in t[0])):
        yield q < 0, _scaled(frac(abs(q)), mono(m), times)


def _terms(e: Expr, coeff, factor, times: str, pad: str, memo: dict) -> str:
    """The sum of the terms of `e` in display order; `coeff` gives a
    coefficient's (negative, text), a unit coefficient is left out.
    A term sorts by degree descending, then by its factors' sorted
    (display key, -count) pairs, the counts of a key that atoms share
    (`f(u)`, `f(v)`) merged.  `memo` keeps each expression's text, each
    atom's (display key, factor key) and each (atom, power)'s text.
    Factors are rendered in display order, so of two that cannot be
    rendered the first one shown raises."""
    if e.is_zero:
        return "0"
    out = memo.get(e)
    if out is not None:
        return out
    keys = {}
    for powers, _ in e.terms:
        for a, _ in powers:
            if a not in keys:
                keys[a] = memo.get(a) or memo.setdefault(
                    a, (_atom_display_key(a), _factor_key(a)))
    shared = len({d for d, _ in keys.values()}) < len(keys)

    def display(t):
        pairs = sorted([(keys[a][0], -k) for a, k in t[0]])
        if shared:
            counts: dict = {}
            for d, n in pairs:
                counts[d] = counts.get(d, 0) + n
            pairs = list(counts.items())
        return (sum(n for _, n in pairs), pairs)

    pieces = []
    for t in sorted(e.terms, key=display):
        neg, ctext = coeff(t[1])
        factors = [memo.get(ak) or memo.setdefault(ak, factor(*ak))
                   for ak in sorted(t[0], key=lambda ak: keys[ak[0]][1])]
        if ctext != "1" or not factors:
            factors.insert(0, ctext)
        pieces.append((neg, times.join(factors)))
    return memo.setdefault(e, _signed_sum(pieces, pad))


# -- text -----------------------------------------------------------------------

def _frac_text(q: Fraction) -> str:
    num = _int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_text(q.denominator)}"


def _mono_text(m) -> str:
    return "*".join(_power(p.name, k) for p, k in m)


def _coeff_text(c: Coeff) -> tuple[bool, str]:
    """(negative, text) with the sign pulled out when unambiguous."""
    if c.__class__ is not Poly:
        return c < 0, _frac_text(abs(c))
    num, den = c.num_den()
    unit = num.as_unit()
    if unit is not None:
        q, m = unit
        neg, text = q < 0, _scaled(_frac_text(abs(q)), _mono_text(m), "*")
    else:
        neg, text = False, f"({poly_text(num)})"
    return neg, text + "".join("/" + _power(p.name, k) for p, k in den)


def poly_text(p: Poly) -> str:
    """A parameter polynomial as the session parser reads it."""
    pieces = _poly_pieces(p, _mono_text, _frac_text, "*")
    return _signed_sum(pieces, " ") or "0"


def atom_text(a: Atom) -> str:
    """An atom as the session parser reads it, e.g. D[u,t,t]."""
    if isinstance(a, (IndependentVar, Parameter)):
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
            dvars.extend([atom_text(arg)] * k)
        return f"D[{a.func},{','.join(dvars)}]"
    if isinstance(a, ExpAtom):
        return f"exp({expr_text(a.exponent)})"
    raise TypeError(f"unknown atom {a!r}")


def expr_text(e: Expr, memo: dict | None = None) -> str:
    """Canonical textual form; parses back to the same expression.
    `memo`: see `_terms`, not shared with `expr_latex`."""
    return _terms(e, _coeff_text, lambda a, k: _power(atom_text(a), k),
                  "*", " ", {} if memo is None else memo)


# -- latex ------------------------------------------------------------------------

def _sym_latex(name: str) -> str:
    return f"\\{name}" if name in _GREEK else name


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_text(q.numerator)
    sign = "-" if q < 0 else ""
    return (f"{sign}\\frac{{{_int_text(abs(q.numerator))}}}"
            f"{{{_int_text(q.denominator)}}}")


def _mono_latex(m) -> str:
    return " ".join(_power(_sym_latex(p.name), k, True) for p, k in m)


def _coeff_latex(c: Coeff) -> tuple[bool, str]:
    if c.__class__ is not Poly:
        return c < 0, _frac_latex(abs(c))
    num, den = c.num_den()
    unit = num.as_unit()
    if unit is None:
        neg, text = False, _signed_sum(
            _poly_pieces(num, _mono_latex, _frac_latex, " "), "")
        if not den:
            return neg, f"\\big({text}\\big)"
    else:
        q, m = unit
        neg, mag, mono = q < 0, _frac_latex(abs(q)), _mono_latex(m)
        if not den:
            return neg, _scaled(mag, mono, " ")
        text = (mono or "1") if mag == "1" else f"{mag} {mono}".strip()
    return neg, f"\\frac{{{text}}}{{{_mono_latex(den)}}}"


def _exponent_latex(e: Expr) -> str:
    """Exponent with the rational content factored out, e.g.
    2(\\gamma u+\\alpha t+\\beta x)."""
    if len(e.terms) > 1:
        content = common_content(as_poly(c) for _, c in e.terms)
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
    raise TypeError(f"unknown atom {a!r}")


def expr_latex(e: Expr, memo: dict | None = None) -> str:
    """LaTeX in the journal's notation; `memo` as for `expr_text`."""
    return _terms(e, _coeff_latex,
                  lambda a, k: _power(_atom_latex(a), k, True), " ", "",
                  {} if memo is None else memo)
