"""Atomic symbols of the term algebra.

Atoms are the indivisible multiplicative factors expressions are built
from: independent variables, declared parameters, jet coordinates (a
dependent variable together with a derivative multi-index), formal
derivatives of opaque functions, and exponential factors.  Mixed partials
commute, so multi-indices are kept in a canonical sorted form and u_{xt}
and u_{tx} denote the same atom.

Atoms and `MultiIndex` are `record.KeyRecord`s: each is the tuple of its
sort key, a rank per atom type first, then the fields in the order they
compare by.  So `==`, hash and `<` are the tuple's and run in C; a power
product, a tuple of (atom, exponent) pairs, hashes and sorts with no
Python call per factor, and nothing is cached on an atom.  Only
`ExpAtom` hashes in Python, for the reason in its docstring.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
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
    "ExpConst",
]


_new = tuple.__new__


def _field(i: int) -> property:
    return property(itemgetter(i))


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
        cleaned = tuple(sorted((n, c) for n, c in counts if c != 0))
        if any(c < 0 for _, c in cleaned):
            raise ValueError("negative derivative count")
        return _new(cls, (sum(c for _, c in cleaned), cleaned))

    @staticmethod
    def of(*names: str) -> "MultiIndex":
        acc: dict[str, int] = {}
        for n in names:
            acc[n] = acc.get(n, 0) + 1
        return MultiIndex(tuple(acc.items()))

    def get(self, name: str) -> int:
        for n, c in self.counts:
            if n == name:
                return c
        return 0

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.counts)

    def bump(self, name: str) -> "MultiIndex":
        """self + {name: 1}: the count raised in place, or (name, 1)
        inserted at its sorted place, so no re-sort is needed."""
        order, counts = self
        for i, (n, c) in enumerate(counts):
            if n == name:
                counts = counts[:i] + ((n, c + 1),) + counts[i + 1:]
                break
            if n > name:
                counts = counts[:i] + ((name, 1),) + counts[i:]
                break
        else:
            counts += ((name, 1),)
        return _new(MultiIndex, (order + 1, counts))

    def drop(self, name: str) -> "MultiIndex":
        """self - {name: 1}, the count lowered in place."""
        order, counts = self
        for i, (n, c) in enumerate(counts):
            if n == name:
                kept = ((n, c - 1),) if c > 1 else ()
                return _new(MultiIndex,
                            (order - 1, counts[:i] + kept + counts[i + 1:]))
        raise ValueError(f"{self!r} does not contain {name}")

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        acc = dict(self.counts)
        for n, c in other.counts:
            acc[n] = acc.get(n, 0) + c
        return MultiIndex(tuple(acc.items()))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        acc = dict(self.counts)
        for n, c in other.counts:
            acc[n] = acc.get(n, 0) - c
            if acc[n] < 0:
                raise ValueError(f"{self!r} does not contain {other!r}")
        return MultiIndex(tuple(acc.items()))

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

    def sub_indices(self) -> Iterator[tuple["MultiIndex", int]]:
        """All K <= J componentwise, with the product-of-binomials weight."""
        items = self.counts
        if not items:
            yield MultiIndex(), 1
            return

        def rec(i: int, acc: list[tuple[str, int]], weight: int):
            if i == len(items):
                yield MultiIndex(tuple(acc)), weight
                return
            name, cnt = items[i]
            for k in range(cnt + 1):
                acc.append((name, k))
                yield from rec(i + 1, acc, weight * math.comb(cnt, k))
                acc.pop()

        yield from rec(0, [], 1)


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
    """Exponential factor e^q; `exponent` is a canonical expression that is
    not a rational constant (constant exponents live in ExpConst).

    The record is (4, 1, exponent.sort_key(), exponent): the exponent
    itself breaks the ties of its sort key, which drops parameter flags
    (`Expr.__lt__`).  It hashes as its exponent, whose hash is cached:
    hashing the key would walk every coefficient in it, in Python.
    """

    __slots__ = ()
    _fields = ("exponent",)
    exponent = _field(3)

    def __new__(cls, exponent: Expr) -> "ExpAtom":
        return _new(cls, (4, 1, exponent.sort_key(), exponent))

    def __hash__(self) -> int:
        return hash(self[3])


class ExpConst(Atom):
    """Opaque constant e^q for a nonzero rational q; kept symbolic so that
    exactness is preserved when a substitution collapses an exponent.
    The record is (4, 0, value)."""

    __slots__ = ()
    _fields = ("value",)
    value = _field(2)

    def __new__(cls, value) -> "ExpConst":
        value = Fraction(value)
        if value == 0:
            raise ValueError("e^0 folds to 1; ExpConst must be nonzero")
        return _new(cls, (4, 0, value))
