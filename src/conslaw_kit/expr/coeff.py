"""Exact coefficient arithmetic.

The coefficients of the term algebra are Laurent polynomials over Q in the
declared parameters: a parameter flagged nonzero may carry a negative
exponent.  That is a polynomial over a monomial in nonzero parameters,
which covers every division the engine performs, and a merged, sorted
term tuple is canonical for it with no cancellation step (no
multivariate gcd).  `num_den` splits a coefficient back into that
numerator and its least denominator, where a denominator is printed or
cleared.

A coefficient value is canonical by value (`coeff_value`): an `int` when
it is an integer, otherwise a `Fraction` whose denominator is greater
than 1.  Most coefficients are integers, and `int` arithmetic runs in C.
An integral `Fraction` result becomes its `int`, and a quotient is built
as `Fraction(a, b)`, never as the float `int / int`.  `int` has
`numerator` and `denominator` too, and `hash(n) == hash(Fraction(n))`,
so readers of a value need not test its type.

The coefficient of an expression term (`Coeff`) is such a value when it
holds no parameter, and a `Poly` only when it does: a term never carries
a constant `Poly`, so `1 * 1` is one `int` product.  `coeff_add` and
`coeff_mul` keep that form: a number times a `Poly` is `Poly.scale`, and
a `Poly` result that comes out constant becomes its value (`term_coeff`).
`as_poly` lifts a term coefficient back to a `Poly` where a `Poly` is
needed: `Expr.as_coeff`, the ansatz rows, the printer's polynomial
paths.

Only the public constructor `Poly(...)` normalises: it merges duplicate
monomials, drops zeros, makes coefficients canonical values and sorts the
terms.  Arithmetic and the one-term `const`/`param` build their results
canonical by construction through `_poly`, which does no work: a sum or
product is merged in a dict and sorted once, and a negation or a nonzero
rational scaling keeps every monomial.  Two single terms over one
monomial add by one rational addition.  A product with a constant factor
is a `scale`, which returns the other factor itself when the constant is
1.

The term order is a monomial order (m < m' implies m*n < m'*n) on
polynomials, those with no negative exponent, and only there: so
`mul_mono`, `div_mono`, `mono_content`, `leading` and `exact_div` are
used on polynomials only.

A monomial is built and combined only by the sorted-monomial helpers of
`atoms` (`mono`, `mono_mul`, `mono_div`, `mono_gcd`), which multi-indices
and power products share.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

from ..cancel import checkpoint
from ..record import Record
from .atoms import Parameter, mono, mono_div, mono_gcd, mono_mul
from .errors import ExprError

__all__ = ["Monomial", "Poly", "Coeff", "coeff_value", "common_content",
           "primitive", "term_coeff", "as_poly", "coeff_add", "coeff_mul"]

# Monomial over parameters: sorted tuple of (Parameter, nonzero exponent),
# the exponent negative only for a parameter flagged nonzero.
Monomial = tuple[tuple[Parameter, int], ...]
# A coefficient value: an `int`, or a `Fraction` that is not an integer.
Rational = int | Fraction


def coeff_value(q):
    """The canonical coefficient value of q: q if it is an `int`, else a
    `Fraction` (its `int` when it is one); a float is a `TypeError`."""
    if q.__class__ is int:
        return q
    if q.__class__ is not Fraction:
        raise TypeError(f"coefficient {q!r} is not an int or a Fraction")
    return q.numerator if q.denominator == 1 else q


def _term_key(term):
    """Sort key of a term for `sort(..., reverse=True)`: ascending total
    degree, then ascending exponent vectors over the parameters in their
    tuple order (name, then flag).  Within one degree no
    monomial's (parameter, -k) list is a proper prefix of another's, so
    comparing those lists decides the order reversed: a smaller parameter,
    or a larger exponent, at the first difference is the larger monomial.
    With negative exponents the key is still a total order, but no longer
    a monomial order."""
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


class Poly(Record):
    """Laurent polynomial over Q in declared parameters.

    Terms are a sorted tuple of (monomial, nonzero coefficient) pairs,
    each coefficient an `int` or a non-integral `Fraction` (`coeff_value`);
    the empty tuple is zero.  Terms sort by total degree, then exponents by
    parameter (name, then flag).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Monomial, Rational], ...] = ()
                 ) -> None:
        acc: dict[Monomial, Rational] = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + coeff_value(c)
        object.__setattr__(self, "terms", _sorted_terms(
            [(m, coeff_value(c)) for m, c in acc.items() if c]))

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
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def const(q) -> "Poly":
        q = coeff_value(q)
        return _poly((((), q),)) if q else _P_ZERO

    @staticmethod
    def param(p: Parameter, k: int = 1) -> "Poly":
        return _poly(((mono((p, k)), 1),))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_unit(self) -> tuple[Rational, Monomial] | None:
        """(q, m) if this is the single term q*m, else None."""
        if len(self.terms) == 1:
            m, c = self.terms[0]
            return (c, m)
        return None

    def parameters(self) -> set[Parameter]:
        out: set[Parameter] = set()
        for m, _ in self.terms:
            out.update(p for p, _ in m)
        return out

    def num_den(self) -> tuple["Poly", Monomial]:
        """(num, den) with self = num / den: num a polynomial, its terms
        in polynomial order, and den the least monomial that clears the
        negative exponents."""
        low: dict[Parameter, int] = {}
        for m, _ in self.terms:
            for p, k in m:
                if k < 0 and k < low.get(p, 0):
                    low[p] = k
        if not low:
            return self, ()
        den = mono(*((p, -k) for p, k in low.items()))
        return _poly(_sorted_terms(
            [(mono_mul(m, den), c) for m, c in self.terms])), den

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
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            c = a[0][1] + b[0][1]
            return _poly(((a[0][0], coeff_value(c)),)) if c else _P_ZERO
        acc = dict(a)
        for m, c in b:
            c0 = acc.get(m)
            acc[m] = c if c0 is None else coeff_value(c0 + c)
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
        acc: dict[Monomial, Rational] = {}
        for m1, c1 in self.terms:
            checkpoint()
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c0 = acc.get(m)
                acc[m] = c1 * c2 if c0 is None else c0 + c1 * c2
        return _poly(_sorted_terms(
            [(m, coeff_value(c)) for m, c in acc.items() if c]))

    def scale(self, q) -> "Poly":
        if not self.terms:
            return self
        q = coeff_value(q)
        if not q:
            return _P_ZERO
        if q == 1:
            return self
        return _poly(tuple((m, coeff_value(c * q)) for m, c in self.terms))

    def invert_unit(self) -> "Poly":
        """Inverse, defined only for q * monomial-in-nonzero-parameters."""
        if not self.terms:
            raise ExprError("zero denominator")
        if len(self.terms) > 1:
            raise ExprError(
                "division is only defined for products of nonzero parameters "
                "and literal rationals")
        (m, q), = self.terms
        bad = [p.name for p, _ in m if not p.nonzero]
        if bad:
            raise ExprError(
                f"division by parameter(s) not declared nonzero: {', '.join(bad)}")
        return _poly(((tuple((p, -k) for p, k in m),
                       coeff_value(Fraction(1, q))),))

    def __truediv__(self, other: "Poly") -> "Poly":
        return self * other.invert_unit()

    def mul_mono(self, m: Monomial) -> "Poly":
        if not m:
            return self
        return _poly(tuple((mono_mul(tm, m), c) for tm, c in self.terms))

    def div_mono(self, m: Monomial) -> "Poly":
        if not m:
            return self
        return _poly(tuple((mono_div(tm, m), c) for tm, c in self.terms))

    def leading(self) -> tuple[Monomial, Rational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[-1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact polynomial division; raises if the division has a remainder.
        The heap holds the remainder's monomials by `_term_key`, a
        cancelled one with coefficient 0 until it comes off; the quotient
        is built leading term first, with one `checkpoint()` per term."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lm, lc = other.leading()
        rem = dict(self.terms)
        heap = [(_term_key(t), t[0]) for t in reversed(self.terms)]  # sorted
        quotient = []
        while heap:
            m = heappop(heap)[1]
            rc = rem.pop(m)
            if not rc:
                continue
            checkpoint()
            try:
                qm = mono_div(m, lm)
            except ValueError:
                raise ArithmeticError("inexact polynomial division") from None
            qc = coeff_value(Fraction(rc, lc))
            quotient.append((qm, qc))
            for tm, tc in other.terms[:-1]:   # the leading term cancels m
                pm = mono_mul(tm, qm)
                if pm not in rem:
                    heappush(heap, (_term_key((pm,)), pm))
                rem[pm] = coeff_value(rem.get(pm, 0) - qc * tc)
        return _poly(tuple(reversed(quotient)))


_new = object.__new__
# the slots' own setters: faster than `object.__setattr__`
_poly_terms = Poly.terms.__set__
_P_ZERO = _poly(())
_P_ONE = Poly.const(1)


# The coefficient of an expression term: a value if it holds no
# parameter, else a `Poly` that is not constant.
Coeff = int | Fraction | Poly


def term_coeff(p: Poly) -> Coeff:
    """p as a term coefficient: its value if it is constant, else p."""
    t = p.terms
    if not t:
        return 0
    return t[0][1] if len(t) == 1 and not t[0][0] else p


def as_poly(c: Coeff) -> Poly:
    """A term coefficient as a `Poly`."""
    return c if c.__class__ is Poly else Poly.const(c)


def coeff_add(a: Coeff, b: Coeff) -> Coeff:
    """a + b as a term coefficient, 0 when they cancel."""
    if a.__class__ is Poly or b.__class__ is Poly:
        return term_coeff(as_poly(a) + as_poly(b))
    return coeff_value(a + b)


def coeff_mul(a: Coeff, b: Coeff) -> Coeff:
    """a * b as a term coefficient; a value scales a `Poly` directly."""
    if a.__class__ is Poly:
        return term_coeff(a * b) if b.__class__ is Poly else a.scale(b)
    if b.__class__ is Poly:
        return b.scale(a)
    return coeff_value(a * b)


def _content(polys) -> tuple[int, int]:
    """(g, l): the gcd of the coefficients' numerators and the lcm of
    their denominators, coprime; (0, 1) when every poly is zero."""
    num, den = 0, 1
    for p in polys:
        for _, c in p.terms:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
    return num, den


def common_content(polys) -> Fraction:
    """Positive rational c with every p/c having integer coefficients,
    coprime over all of them; 0 when every poly is zero."""
    return Fraction(*_content(polys))


def primitive(polys: Sequence[Poly]) -> Sequence[Poly]:
    """The polys divided by their `common_content`, in `int` arithmetic:
    a coefficient n/d becomes (n // g) * (l // d), exactly, for (g, l)
    the content's numerator and denominator.  The monomials are kept, so
    the terms stay in order."""
    g, l = _content(polys)
    if g < 2 and l == 1:
        return polys
    return [_poly(tuple((m, c.numerator // g * (l // c.denominator))
                        for m, c in p.terms)) for p in polys]
