"""Exact coefficient arithmetic.

Coefficients of the term algebra are rational functions in the declared
parameters: a multivariate polynomial over Q divided by a monomial in
parameters that are flagged nonzero.  Restricting denominators to such
monomials keeps the representation canonical (no multivariate gcd needed)
while covering every division the engine performs.

Only the public constructors `Poly(...)` and `Coeff(...)` normalise:
they merge duplicate monomials, drop zeros, coerce coefficients to
`Fraction`, sort the terms and cancel the denominator.  Arithmetic and the
one-term `const`/`param` build their results canonical by construction
through `_poly` and `_coeff`, which do no work: a sum or product is
merged in a dict and sorted once, a negation or a nonzero rational
scaling keeps every monomial, and `mul_mono`/`div_mono` keep the order
because it is a monomial order (m < m' implies m*n < m'*n).  When both
operands are nonzero constants, `Coeff` `+` and `scale` skip `Poly`
altogether: one `Fraction` operation, and `_const` builds the result.  A
product with a constant factor is a `scale`, which returns the other
factor itself when the constant is 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..record import Record
from .atoms import Parameter
from .errors import ExprError

__all__ = ["Monomial", "Poly", "Coeff", "common_content"]

# Monomial over parameters: sorted tuple of (Parameter, positive exponent).
Monomial = tuple[tuple[Parameter, int], ...]


def mono(*pairs: tuple[Parameter, int]) -> Monomial:
    acc: dict[Parameter, int] = {}
    for p, k in pairs:
        acc[p] = acc.get(p, 0) + k
    return tuple(sorted((p, k) for p, k in acc.items() if k))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return mono(*a, *b)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for p, k in b:
        acc[p] = max(acc.get(p, 0), k)
    return tuple(sorted(acc.items()))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; requires b to divide a."""
    if not b:
        return a
    acc = dict(a)
    for p, k in b:
        acc[p] = acc.get(p, 0) - k
        if acc[p] < 0:
            raise ValueError("monomial does not divide")
    return tuple(sorted((p, k) for p, k in acc.items() if k))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    db = dict(b)
    out = [(p, min(k, db[p])) for p, k in a if p in db]
    return tuple(sorted((p, k) for p, k in out if k))


def _term_key(term):
    """Sort key of a term for `sort(..., reverse=True)`: ascending total
    degree, then ascending exponent vectors over the parameters in their
    tuple order (name, then flag).  Within one degree no
    monomial's (parameter, -k) list is a proper prefix of another's, so
    comparing those lists decides the order reversed: a smaller parameter,
    or a larger exponent, at the first difference is the larger monomial."""
    m = term[0]
    return (-sum(k for _, k in m), tuple((p, -k) for p, k in m))


def _sorted_terms(kept: list) -> tuple:
    """Merged nonzero terms in canonical order."""
    if len(kept) > 1:
        kept.sort(key=_term_key, reverse=True)   # reverse=True is stable too
    return tuple(kept)


def _poly(terms: tuple) -> "Poly":
    """A Poly from terms that are already canonical; no normalisation."""
    p = _new(Poly)
    _poly_terms(p, terms)
    return p


def _coeff(num: "Poly", den: Monomial) -> "Coeff":
    """A Coeff from a canonical num and den; no cancellation."""
    c = _new(Coeff)
    _coeff_num(c, num)
    _coeff_den(c, den)
    return c


class Poly(Record):
    """Multivariate polynomial over Q in declared parameters.

    Terms are a sorted tuple of (monomial, nonzero Fraction) pairs; the
    empty tuple is the zero polynomial.  Terms sort by total degree, then
    exponents by parameter (name, then flag): a monomial order, as
    `exact_div` and the trusted `mul_mono` need.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Monomial, Fraction], ...] = ()
                 ) -> None:
        acc: dict[Monomial, Fraction] = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + Fraction(c)
        object.__setattr__(self, "terms", _sorted_terms(
            [t for t in acc.items() if t[1]]))

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def const(q) -> "Poly":
        if type(q) is not Fraction:
            q = Fraction(q)
        return _poly((((), q),)) if q else _P_ZERO

    @staticmethod
    def param(p: Parameter, k: int = 1) -> "Poly":
        return _poly(((mono((p, k)), Fraction(1)),))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_fraction(self) -> Fraction | None:
        """The value if constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0][0]:
            return self.terms[0][1]
        return None

    def as_unit(self) -> tuple[Fraction, Monomial] | None:
        """(q, m) if the polynomial is the single term q*m, else None."""
        if len(self.terms) == 1:
            m, c = self.terms[0]
            return (c, m)
        return None

    def parameters(self) -> set[Parameter]:
        out: set[Parameter] = set()
        for m, _ in self.terms:
            out.update(p for p, _ in m)
        return out

    def mono_content(self) -> Monomial:
        """Gcd of all term monomials (the whole poly for zero is ())."""
        if not self.terms:
            return ()
        acc = self.terms[0][0]
        for m, _ in self.terms[1:]:
            acc = mono_gcd(acc, m)
            if not acc:
                break
        return acc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for m, c in other.terms:
            c0 = acc.get(m)
            acc[m] = c if c0 is None else c0 + c
        return _poly(_sorted_terms([t for t in acc.items() if t[1]]))

    def __neg__(self) -> "Poly":
        return _poly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _P_ZERO
        if len(other.terms) == 1 and not other.terms[0][0]:
            return self.scale(other.terms[0][1])
        if len(self.terms) == 1 and not self.terms[0][0]:
            return other.scale(self.terms[0][1])
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c0 = acc.get(m)
                acc[m] = c1 * c2 if c0 is None else c0 + c1 * c2
        return _poly(_sorted_terms([t for t in acc.items() if t[1]]))

    def scale(self, q) -> "Poly":
        if not self.terms:
            return self
        if type(q) is not Fraction:
            q = Fraction(q)
        if not q:
            return _P_ZERO
        if q == 1:
            return self
        return _poly(tuple((m, c * q) for m, c in self.terms))

    def mul_mono(self, m: Monomial) -> "Poly":
        if not m:
            return self
        return _poly(tuple((mono_mul(tm, m), c) for tm, c in self.terms))

    def div_mono(self, m: Monomial) -> "Poly":
        if not m:
            return self
        return _poly(tuple((mono_div(tm, m), c) for tm, c in self.terms))

    def leading(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[-1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact polynomial division; raises if the division has a remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q_acc: dict[Monomial, Fraction] = {}
        rem = self
        lm, lc = other.leading()
        while not rem.is_zero:
            rm, rc = rem.leading()
            try:
                qm = mono_div(rm, lm)
            except ValueError:
                raise ArithmeticError("inexact polynomial division") from None
            qc = rc / lc
            q_acc[qm] = q_acc.get(qm, Fraction(0)) + qc
            rem = rem - other.mul_mono(qm).scale(qc)
        return Poly(tuple(q_acc.items()))


_new = object.__new__
# the slots' own setters: faster than `object.__setattr__`
_poly_terms = Poly.terms.__set__
_P_ZERO = _poly(())


def common_content(polys) -> Fraction:
    """Positive rational c with every p/c having integer coefficients,
    coprime over all of them; 0 when every poly is zero."""
    num, den = 0, 1
    for p in polys:
        for _, c in p.terms:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


def _constant(c: "Coeff") -> Fraction | None:
    """The value of a nonzero constant coefficient (no denominator, one
    term over the empty monomial), else None."""
    if c.den:
        return None
    terms = c.num.terms
    if len(terms) == 1 and not terms[0][0]:
        return terms[0][1]
    return None


def _const(q: Fraction) -> "Coeff":
    """The constant coefficient q, built canonical."""
    return _coeff(_poly((((), q),)), ()) if q else _C_ZERO


class Coeff(Record):
    """Rational-function coefficient num/den with a monomial denominator.

    Canonical form: zero has an empty denominator, and den shares no
    parameter power with the monomial content of num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly = _P_ZERO, den: Monomial = ()) -> None:
        if den:
            if num.is_zero:
                den = ()
            else:
                common = mono_gcd(num.mono_content(), den)
                if common:
                    num, den = num.div_mono(common), mono_div(den, common)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not Coeff:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Coeff":
        return _C_ZERO

    @staticmethod
    def one() -> "Coeff":
        return _C_ONE

    @staticmethod
    def const(q) -> "Coeff":
        return _coeff(Poly.const(q), ())

    @staticmethod
    def param(p: Parameter, k: int = 1) -> "Coeff":
        return _coeff(Poly.param(p, k), ())

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def as_fraction(self) -> Fraction | None:
        if self.den:
            return None
        return self.num.as_fraction()

    def as_unit(self) -> tuple[Fraction, Monomial, Monomial] | None:
        """(q, num-monomial, den-monomial) when a single term, else None."""
        u = self.num.as_unit()
        if u is None:
            return None
        return (u[0], u[1], self.den)

    def parameters(self) -> set[Parameter]:
        out = self.num.parameters()
        out.update(p for p, _ in self.den)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Coeff") -> "Coeff":
        if ((a := _constant(self)) is not None
                and (b := _constant(other)) is not None):
            return _const(a + b)
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        if not self.den and not other.den:
            return _coeff(self.num + other.num, ())
        den = mono_lcm(self.den, other.den)
        n = (self.num.mul_mono(mono_div(den, self.den))
             + other.num.mul_mono(mono_div(den, other.den)))
        return Coeff(n, den)

    def __neg__(self) -> "Coeff":
        return _coeff(-self.num, self.den)

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        b = _constant(other)
        if b is not None:
            return self.scale(b)
        a = _constant(self)
        if a is not None:
            return other.scale(a)
        if not self.num.terms or not other.num.terms:
            return _C_ZERO
        if not self.den and not other.den:
            return _coeff(self.num * other.num, ())
        return Coeff(self.num * other.num, mono_mul(self.den, other.den))

    def scale(self, q) -> "Coeff":
        a = _constant(self)
        if a is not None:
            if type(q) is not Fraction:
                q = Fraction(q)
            return self if q == 1 else _const(a * q)
        num = self.num.scale(q)
        if num is self.num:
            return self
        return _coeff(num, self.den) if num.terms else _C_ZERO

    def invert_unit(self) -> "Coeff":
        """Inverse, defined only for q * monomial-in-nonzero-parameters."""
        u = self.as_unit()
        if u is None:
            raise ExprError(
                "division is only defined for products of nonzero parameters "
                "and literal rationals")
        q, nm, dm = u
        if q == 0:
            raise ExprError("zero denominator")
        bad = [p.name for p, _ in nm if not p.nonzero]
        if bad:
            raise ExprError(
                f"division by parameter(s) not declared nonzero: {', '.join(bad)}")
        return Coeff(Poly.const(1 / q).mul_mono(dm), nm)

    def __truediv__(self, other: "Coeff") -> "Coeff":
        return self * other.invert_unit()


_coeff_num = Coeff.num.__set__
_coeff_den = Coeff.den.__set__
_C_ZERO = _coeff(_P_ZERO, ())
_C_ONE = Coeff.const(1)
