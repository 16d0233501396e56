"""Atomic symbols of the term algebra.

Atoms are the indivisible multiplicative factors expressions are built
from: independent variables, declared parameters, jet coordinates (a
dependent variable together with a derivative multi-index), formal
derivatives of opaque functions, and exponential factors e^q, an
`ExpAtom` whatever the exponent q, constant or not.  Mixed partials
commute, so multi-indices are kept in a canonical sorted form and u_{xt}
and u_{tx} denote the same atom.

Atoms and `MultiIndex` are `record.KeyRecord`s: each is the tuple of its
sort key, a rank per atom type first, then the fields in the order they
compare by.  So `==`, hash and `<` are the tuple's and run in C; a power
product, a tuple of (atom, exponent) pairs, hashes and sorts with no
Python call per factor, and nothing is cached on an atom.  Only
`ExpAtom` hashes in Python, one frame that reads its exponent's cached
hash, for the reason in its docstring.

Three kinds of monomial share one format, a tuple of (key, exponent)
pairs sorted by key, each key once and no exponent zero: the counts of
a `MultiIndex` (string keys), the parameter monomials of coefficients
(`Parameter` keys, `coeff.Monomial`) and the power products of
expression terms (atom keys).  `mono` builds one from any pairs, and
`mono_mul`, `mono_div`, `mono_gcd` and `mono_lcm` combine two in one
pass, so no other module sorts or merges these tuples itself.
`mono_mul` also takes negative exponents, those of a Laurent monomial;
the other three take positive exponents only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter

from ..record import KeyRecord

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from .expression import Expr

__all__ = [
    "MultiIndex",
    "Atom",
    "IndependentVar",
    "Parameter",
    "OpaqueDeriv",
    "JetVar",
    "ExpAtom",
    "mono",
    "mono_mul",
    "mono_div",
    "mono_gcd",
    "mono_lcm",
]


_new = tuple.__new__


def _field(i: int) -> property:
    return property(itemgetter(i))


# -- sorted monomials --------------------------------------------------------

def mono(*pairs: tuple) -> tuple:
    """The sorted monomial of (key, exponent) pairs: exponents of one key
    summed, zeros dropped.  The reference for the merges below."""
    acc = {}
    for p, k in pairs:
        acc[p] = acc.get(p, 0) + k
    return tuple(sorted((p, k) for p, k in acc.items() if k))


def mono_mul(a: tuple, b: tuple) -> tuple:
    """a * b for sorted monomials, by one merge that drops the exponents
    that cancel: each factor of b is placed in a by bisection."""
    if not a:
        return b
    if not b:
        return a
    out = ()
    lo = 0
    for q, n in b:
        i = bisect_left(a, (q,), lo)   # the first key >= q
        if i < len(a) and a[i][0] == q:
            k = a[i][1] + n
            out += a[lo:i] + ((q, k),) if k else a[lo:i]
            lo = i + 1
        else:
            out += a[lo:i] + ((q, n),)
            lo = i
    return out + a[lo:]


def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b for monomials with positive exponents, by one merge as in
    `mono_mul`; `ValueError` at the first exponent of b that a does not
    reach."""
    out = ()
    lo = 0
    for q, n in b:
        i = bisect_left(a, (q,), lo)
        if i == len(a) or a[i][0] != q or a[i][1] < n:
            raise ValueError("monomial does not divide")
        k = a[i][1] - n
        out += a[lo:i] + ((q, k),) if k else a[lo:i]
        lo = i + 1
    return out + a[lo:]


def mono_gcd(a: tuple, b: tuple) -> tuple:
    """The greatest common divisor of monomials with positive exponents."""
    db = dict(b)
    return tuple((p, min(k, db[p])) for p, k in a if p in db)


def mono_lcm(a: tuple, b: tuple) -> tuple:
    """The least common multiple of monomials with positive exponents."""
    if not a:
        return b
    if not b:
        return a
    return mono_mul(a, mono_div(b, mono_gcd(a, b)))


class MultiIndex(KeyRecord):
    """Multiset of differentiation variables, e.g. {x: 1, t: 2} for u_{xtt}.

    Stored as a sorted tuple of (variable name, count) pairs with counts >= 1,
    which makes the representation independent of differentiation order.
    The record is the tuple (order, counts).
    """

    __slots__ = ()
    _fields = ("counts",)
    order = _field(0)
    counts = _field(1)

    def __new__(cls, counts: tuple[tuple[str, int], ...] = ()) -> "MultiIndex":
        if any(c < 0 for _, c in counts):
            raise ValueError("negative derivative count")
        counts = mono(*counts)
        return _new(cls, (sum(c for _, c in counts), counts))

    @staticmethod
    def of(*names: str) -> "MultiIndex":
        return MultiIndex(tuple((n, 1) for n in names))

    def get(self, name: str) -> int:
        for n, c in self.counts:
            if n == name:
                return c
        return 0

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.counts)

    def bump(self, name: str) -> "MultiIndex":
        """self + {name: 1}."""
        order, counts = self
        return _new(MultiIndex, (order + 1, mono_mul(counts, ((name, 1),))))

    def drop(self, name: str) -> "MultiIndex":
        """self - {name: 1}; `ValueError` if self has no `name`."""
        order, counts = self
        return _new(MultiIndex, (order - 1, mono_div(counts, ((name, 1),))))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        """self - other; `ValueError` unless self contains other."""
        return _new(MultiIndex, (self.order - other.order,
                                 mono_div(self.counts, other.counts)))

    def contains(self, other: "MultiIndex") -> bool:
        return all(self.get(n) >= c for n, c in other.counts)

    def to_seq(self) -> tuple[str, ...]:
        """Expanded sorted sequence, e.g. ('t', 't', 'x') for {t:2, x:1}."""
        out: list[str] = []
        for n, c in self.counts:
            out.extend([n] * c)
        return tuple(out)

    def multiplicity(self) -> int:
        """Number of ordered differentiation sequences realizing this index."""
        m = math.factorial(self.order)
        for _, c in self.counts:
            m //= math.factorial(c)
        return m


_M_ZERO = MultiIndex()


class Atom(KeyRecord):
    """Base class for atomic factors.  Each atom is the tuple of its sort
    key, a rank per type first, so tuple order is the deterministic total
    order of atoms."""
    __slots__ = ()


class IndependentVar(Atom):
    __slots__ = ()
    _fields = ("name",)
    name = _field(1)

    def __new__(cls, name: str) -> "IndependentVar":
        return _new(cls, (0, name))


class Parameter(Atom):
    """Declared constant; `nonzero` marks it legal to divide by.  The flag
    is part of the key: one name may carry both flags."""

    __slots__ = ()
    _fields = ("name", "nonzero")
    name = _field(1)
    nonzero = _field(2)

    def __new__(cls, name: str, nonzero: bool = False) -> "Parameter":
        return _new(cls, (1, name, nonzero))


class OpaqueDeriv(Atom):
    """Formal derivative of an opaque function, e.g. g'(u) or f_{xt}.

    `args` fixes the function's argument atoms; `index` counts derivatives
    per argument slot.  An all-zero index denotes the function value itself.
    The record is (2, func, order, index, args).
    """

    __slots__ = ()
    _fields = ("func", "args", "index")
    func = _field(1)
    order = _field(2)
    index = _field(3)
    args = _field(4)

    def __new__(cls, func: str, args: tuple[Atom, ...],
                index: tuple[int, ...] = ()) -> "OpaqueDeriv":
        idx = index or (0,) * len(args)
        if len(idx) != len(args):
            raise ValueError(f"index/arity mismatch for {func}")
        if any(k < 0 for k in idx):
            raise ValueError("negative derivative count")
        return _new(cls, (2, func, sum(idx), tuple(idx), args))

    def bump(self, slot: int) -> "OpaqueDeriv":
        idx = list(self.index)
        idx[slot] += 1
        return OpaqueDeriv(self.func, self.args, tuple(idx))


class JetVar(Atom):
    """Jet coordinate: dependent variable `dep` differentiated by `index`.
    The record is (3, dep, index)."""

    __slots__ = ()
    _fields = ("dep", "index")
    dep = _field(1)
    index = _field(2)

    def __new__(cls, dep: str, index: MultiIndex = _M_ZERO) -> "JetVar":
        return _new(cls, (3, dep, index))

    @property
    def order(self) -> int:
        return self.index.order

    def bump(self, name: str) -> "JetVar":
        return _new(JetVar, (3, self.dep, self.index.bump(name)))


class ExpAtom(Atom):
    """Exponential factor e^q; `exponent` is a nonzero canonical
    expression (e^0 folds to 1), a constant one included.

    The record is (4, exponent.sort_key(), exponent): the exponent
    itself breaks the ties of its sort key, which drops parameter flags
    (`Expr.__lt__`).  A constant exponent's key has degree 0, so e^q for
    a constant q sorts below every other exponential, by q.  It hashes
    as its exponent: hashing the key would walk every coefficient in it,
    in Python.  `__new__` fills the exponent's cached hash, so `__hash__`
    only reads it; pickle and copy rebuild through `__new__`.
    """

    __slots__ = ()
    _fields = ("exponent",)
    exponent = _field(2)

    def __new__(cls, exponent: Expr) -> "ExpAtom":
        if not exponent.terms:
            raise ValueError("e^0 folds to 1; ExpAtom must be nonzero")
        hash(exponent)
        return _new(cls, (4, exponent.sort_key(), exponent))

    def __hash__(self) -> int:
        return self[2]._hash
