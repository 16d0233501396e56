"""Atomic symbols of the term algebra.

Atoms are the indivisible multiplicative factors expressions are built
from: independent variables, declared parameters, jet coordinates (a
dependent variable together with a derivative multi-index), formal
derivatives of opaque functions, and exponential factors.  Mixed partials
commute, so multi-indices are kept in a canonical sorted form and u_{xt}
and u_{tx} denote the same atom.

Atoms are slotted records (`record.Record`) with their own `__init__`,
`==` and hash; `==` compares field tuples, which skip the `__eq__` call
for a field that is the same object on both sides.  `MultiIndex`, `JetVar`, `OpaqueDeriv` and `ExpAtom` fill
a hash slot once, lazily (`lazy_slot`): a hash of the fields re-walks
every field (an exponent down to each `Fraction`) on each dict lookup.
`JetVar` fills its `sort_key()` the same way, since every term sort and
every `Term.raised` in a total derivative compares jet atoms by it.  Hashing eagerly at construction was slower:
+2-11% benchmark run time on every workload (2-core x86, 3 seeds).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from ..record import Record

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


_set = object.__setattr__


def lazy_slot(slot: str, compute):
    """A method returning compute(self), computed on the first call and
    then kept in `slot`, a cache slot (its name begins with `_`)."""
    def method(self):
        value = getattr(self, slot, None)   # an unfilled slot reads None
        if value is None:
            value = compute(self)
            _set(self, slot, value)
        return value
    return method


class MultiIndex(Record):
    """Multiset of differentiation variables, e.g. {x: 1, t: 2} for u_{xtt}.

    Stored as a sorted tuple of (variable name, count) pairs with counts >= 1,
    which makes the representation independent of differentiation order.
    """

    __slots__ = ("counts", "_hash")
    __hash__ = lazy_slot("_hash", lambda s: hash(s.counts))

    def __init__(self, counts: tuple[tuple[str, int], ...] = ()) -> None:
        cleaned = tuple(sorted((n, c) for n, c in counts if c != 0))
        if any(c < 0 for _, c in cleaned):
            raise ValueError("negative derivative count")
        _set(self, "counts", cleaned)

    def __eq__(self, other):
        if other.__class__ is not MultiIndex:
            return NotImplemented
        return self.counts == other.counts

    @staticmethod
    def of(*names: str) -> "MultiIndex":
        acc: dict[str, int] = {}
        for n in names:
            acc[n] = acc.get(n, 0) + 1
        return MultiIndex(tuple(acc.items()))

    @property
    def order(self) -> int:
        return sum(c for _, c in self.counts)

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
        counts = self.counts
        for i, (n, c) in enumerate(counts):
            if n == name:
                return _multi_index(counts[:i] + ((n, c + 1),)
                                    + counts[i + 1:])
            if n > name:
                return _multi_index(counts[:i] + ((name, 1),) + counts[i:])
        return _multi_index(counts + ((name, 1),))

    def drop(self, name: str) -> "MultiIndex":
        """self - {name: 1}, the count lowered in place."""
        counts = self.counts
        for i, (n, c) in enumerate(counts):
            if n == name:
                kept = ((n, c - 1),) if c > 1 else ()
                return _multi_index(counts[:i] + kept + counts[i + 1:])
        raise ValueError(f"{self} does not contain {name}")

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
                raise ValueError(f"{self} does not contain {other}")
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

    def sort_key(self):
        return (self.order, self.counts)

    def __str__(self) -> str:
        return "".join(self.to_seq()) or "0"


def _multi_index(counts: tuple[tuple[str, int], ...]) -> MultiIndex:
    """A MultiIndex from counts that are already canonical (sorted, every
    count >= 1); no normalisation."""
    m = object.__new__(MultiIndex)
    object.__setattr__(m, "counts", counts)
    return m


_M_ZERO = MultiIndex()


class Atom(Record):
    """Base class for atomic factors; provides the deterministic total order."""
    __slots__ = ()

    def sort_key(self):
        raise NotImplementedError


class IndependentVar(Atom):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not IndependentVar:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def sort_key(self):
        return (0, self.name)

    def __str__(self) -> str:
        return self.name


class Parameter(Atom):
    """Declared constant; `nonzero` marks it legal to divide by."""

    __slots__ = ("name", "nonzero")

    def __init__(self, name: str, nonzero: bool = False) -> None:
        _set(self, "name", name)
        _set(self, "nonzero", nonzero)

    def __eq__(self, other):
        if other.__class__ is not Parameter:
            return NotImplemented
        return (self.name, self.nonzero) == (other.name, other.nonzero)

    def __hash__(self) -> int:
        return hash((self.name, self.nonzero))

    def sort_key(self):
        return (1, self.name, self.nonzero)   # total: a name may carry both flags

    def __str__(self) -> str:
        return self.name


class OpaqueDeriv(Atom):
    """Formal derivative of an opaque function, e.g. g'(u) or f_{xt}.

    `args` fixes the function's argument atoms; `index` counts derivatives
    per argument slot.  An all-zero index denotes the function value itself.
    """

    __slots__ = ("func", "args", "index", "_hash")
    __hash__ = lazy_slot("_hash", lambda s: hash((s.func, s.args, s.index)))

    def __init__(self, func: str, args: tuple[Atom, ...],
                 index: tuple[int, ...] = ()) -> None:
        idx = index or (0,) * len(args)
        if len(idx) != len(args):
            raise ValueError(f"index/arity mismatch for {func}")
        if any(k < 0 for k in idx):
            raise ValueError("negative derivative count")
        _set(self, "func", func)
        _set(self, "args", args)
        _set(self, "index", tuple(idx))

    def __eq__(self, other):
        if other.__class__ is not OpaqueDeriv:
            return NotImplemented
        return ((self.func, self.args, self.index)
                == (other.func, other.args, other.index))

    @property
    def order(self) -> int:
        return sum(self.index)

    def bump(self, slot: int) -> "OpaqueDeriv":
        idx = list(self.index)
        idx[slot] += 1
        return OpaqueDeriv(self.func, self.args, tuple(idx))

    def sort_key(self):
        return (2, self.func, self.order, self.index,
                tuple(a.sort_key() for a in self.args))

    def __str__(self) -> str:
        base = self.func
        if self.order == 0:
            return base
        subs = "".join(
            str(a) * k for a, k in zip(self.args, self.index) if k
        )
        return f"{base}_{subs}"


class JetVar(Atom):
    """Jet coordinate: dependent variable `dep` differentiated by `index`."""

    __slots__ = ("dep", "index", "_hash", "_key")
    __hash__ = lazy_slot("_hash", lambda s: hash((s.dep, s.index)))
    sort_key = lazy_slot("_key", lambda s: (3, s.dep, s.index.sort_key()))

    def __init__(self, dep: str, index: MultiIndex = _M_ZERO) -> None:
        _set(self, "dep", dep)
        _set(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is not JetVar:
            return NotImplemented
        return (self.dep, self.index) == (other.dep, other.index)

    @property
    def order(self) -> int:
        return self.index.order

    def bump(self, name: str) -> "JetVar":
        return JetVar(self.dep, self.index.bump(name))

    def __str__(self) -> str:
        if self.index.order == 0:
            return self.dep
        return f"{self.dep}_{''.join(self.index.to_seq())}"


class ExpAtom(Atom):
    """Exponential factor e^q; `exponent` is a canonical expression that is
    not a rational constant (constant exponents live in ExpConst)."""

    __slots__ = ("exponent", "_hash")
    __hash__ = lazy_slot("_hash", lambda s: hash(s.exponent))

    def __init__(self, exponent: Expr) -> None:
        _set(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is not ExpAtom:
            return NotImplemented
        return (self.exponent,) == (other.exponent,)

    def sort_key(self):
        return (4, 1, self.exponent.sort_key())

    def __str__(self) -> str:
        return f"exp({self.exponent})"


class ExpConst(Atom):
    """Opaque constant e^q for a nonzero rational q; kept symbolic so that
    exactness is preserved when a substitution collapses an exponent."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        value = Fraction(value)
        if value == 0:
            raise ValueError("e^0 folds to 1; ExpConst must be nonzero")
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is not ExpConst:
            return NotImplemented
        return (self.value,) == (other.value,)

    def __hash__(self) -> int:
        return hash(self.value)

    def sort_key(self):
        return (4, 0, self.value)

    def __str__(self) -> str:
        return f"exp({self.value})"
