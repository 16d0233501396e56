"""Canonical-form expressions.

An expression is a finite sum of terms; each term is the pair
(powers, coeff), the shape of `Poly.terms`: a power product of atoms with
positive integer exponents and an exact coefficient (`coeff.Coeff`).  A
coefficient that holds no parameter is a plain number, an `int` or a
`Fraction` that is not an integer; only one that holds a parameter is a
`Poly` (a Laurent polynomial in the declared parameters), and never a
constant one.  Terms are kept in descending power-product order, so the
representation is unique and structural equality of normal forms decides
semantic equality within the term algebra.  Display order belongs to the
printer.

Arithmetic operators keep expressions canonical at every step:

  * products distribute, one `_product` merge per pair of terms, and sort;
  * parameters are folded into the coefficient field (`atom_expr`);
  * exponential factors merge, e^a * e^b -> e^(a+b), and e^0 folds to
    1; any other constant exponent stays, e^q an opaque constant;
  * zero is the empty sum and no term carries a zero coefficient;
  * a coefficient is a plain number unless it holds a parameter.

Every sum goes through one fold, `_gather`: it merges terms by power
product and sorts once.  `sum_exprs` runs it over the terms of all its
pieces and `+` is the two-piece case; `*` folds the distributed products
with the same pass, and `substitute` feeds it each rebuilt term's
products with its image next to the terms it leaves as they are.  A sum
of many pieces never re-sorts a growing partial sum.

An `Expr` is a slotted record and a term a plain tuple; atoms compare
and hash as tuples (see `atoms`), so a gather builds no per-term object
and sorts in C.  An `Expr` fills its hash and `sort_key()` once, lazily
(`lazy_slot`): hashing one walks every coefficient down to each value (an
`int` hashes in C, a `Fraction` in Python, a `Poly` through its terms).
Only an exponent is hashed when built, by its `ExpAtom`, whose every
lookup reads that hash.  Hashing every expression eagerly at
construction was slower: +2-11% benchmark run time on every workload
(2-core x86, 3 seeds).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import itemgetter

from ..cancel import checkpoint
from ..record import Record
from .atoms import (Atom, ExpAtom, IndependentVar, JetVar, MultiIndex,
                    OpaqueDeriv, Parameter, mono_mul)
from .coeff import (Coeff, Poly, as_poly, coeff_add, coeff_mul, coeff_value,
                    term_coeff)
from .errors import ExprError
from .printer import atom_text, expr_text

__all__ = [
    "Expr", "atom_expr", "rational", "ivar", "param", "jet",
    "jet_atom", "opaque", "exp_of", "normalize",
    "partial", "jet_gradient", "substitute", "collect", "sum_exprs",
]

Powers = tuple[tuple[Atom, int], ...]
Term = tuple[Powers, Coeff]

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


def graded_key(powers: Powers):
    """(degree, powers), the graded term order.  An expression keeps its
    terms by power product alone; this key ranks them by degree first
    where that order shows: `Expr.sort_key`, the ansatz row order and the
    candidate scale of `compare_vectors`."""
    return (sum(k for _, k in powers), powers)


def lowered(term: Term, i: int) -> Term:
    """The partial derivative of a term by the atom of its factor i:
    k * coeff times the power product with that exponent lowered by one."""
    powers, coeff = term
    a, k = powers[i]
    if k == 1:
        return (powers[:i] + powers[i + 1:], coeff)
    return (powers[:i] + ((a, k - 1),) + powers[i + 1:], coeff_mul(coeff, k))


def raised(term: Term, a: Atom) -> Term:
    """The term times one plain atom `a` (not a `Parameter` or an
    `ExpAtom`)."""
    powers, coeff = term
    return (mono_mul(powers, ((a, 1),)), coeff)


def _coeff_key(c: Coeff):
    """The coefficient's part of `sort_key`: a value q keys as the
    constant `Poly` q did."""
    if c.__class__ is not Poly:
        return ((((), c),), ())
    num, den = c.num_den()
    return (tuple((tuple((p.name, k) for p, k in m), q) for m, q in num.terms),
            tuple((p.name, k) for p, k in den))


class Expr(Record):
    __slots__ = ("terms", "_hash", "_key")
    __hash__ = lazy_slot("_hash", lambda s: hash(s.terms))

    def __init__(self, terms: tuple[Term, ...] = ()) -> None:
        _expr_terms(self, terms)

    def __eq__(self, other):
        if other.__class__ is not Expr:
            return NotImplemented
        return self.terms == other.terms

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return _E_ZERO

    @staticmethod
    def const(q) -> "Expr":
        q = coeff_value(q)
        return Expr((((), q),)) if q else _E_ZERO

    @staticmethod
    def from_coeff(c: Coeff) -> "Expr":
        """The atom-free expression c, from any `Poly` or value."""
        c = term_coeff(c) if c.__class__ is Poly else coeff_value(c)
        return Expr((((), c),)) if c else _E_ZERO

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_coeff(self) -> Poly | None:
        """The coefficient if the expression is atom-free, else None."""
        if not self.terms:
            return Poly.zero()
        if len(self.terms) == 1 and not self.terms[0][0]:
            return as_poly(self.terms[0][1])
        return None

    def atoms(self) -> set[Atom]:
        """All factor atoms, including those nested in exponents."""
        out: set[Atom] = set()
        for powers, _ in self.terms:
            for a, _ in powers:
                out.add(a)
                if isinstance(a, ExpAtom):
                    out.update(a.exponent.atoms())
        return out

    def jet_order(self) -> int:
        """Highest derivative order present, counting opaque-function
        arguments (a function of u_x has order 1)."""
        best = 0
        for a in self.atoms():
            if isinstance(a, JetVar):
                best = max(best, a.order)
            elif isinstance(a, OpaqueDeriv):
                for arg in a.args:
                    if isinstance(arg, JetVar):
                        best = max(best, arg.order)
        return best

    def parameters(self) -> set[Parameter]:
        out: set[Parameter] = set()
        for powers, c in self.terms:
            if c.__class__ is Poly:
                out.update(c.parameters())
            for a, _ in powers:
                if isinstance(a, ExpAtom):
                    out.update(a.exponent.parameters())
        return out

    # per term (graded_key, coefficient key), in descending graded order
    sort_key = lazy_slot("_key", lambda s: tuple(sorted(
        ((graded_key(p), _coeff_key(c)) for p, c in s.terms), reverse=True)))

    def __lt__(self, other: "Expr") -> bool:
        """`sort_key` order, its ties broken by the coefficients with
        their parameters' nonzero flags, which `sort_key` drops.  Reached
        only through two `ExpAtom`s whose exponents tie in `sort_key`."""
        return _flagged_key(self) < _flagged_key(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Expr":
        return sum_exprs((self, _as_expr(other)))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other) -> "Expr":
        return self + (-_as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return _as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        return _gather(_products(self.terms, _as_expr(other).terms))

    __rmul__ = __mul__

    def scale(self, q) -> "Expr":
        q = coeff_value(q)
        if q == 0:
            return _E_ZERO
        return Expr(tuple((p, coeff_mul(c, q)) for p, c in self.terms))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ExprError("unsupported power")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base if n > 1 else base
            n >>= 1
        return Expr.const(1) if out is None else out

    def __truediv__(self, other) -> "Expr":
        other = _as_expr(other)
        if other.is_zero:
            raise ExprError("zero denominator")
        c = other.as_coeff()
        if c is None:
            raise ExprError(
                "division is only defined for products of nonzero parameters "
                "and literal rationals")
        inv = term_coeff(c.invert_unit())
        return Expr(tuple((p, coeff_mul(q, inv)) for p, q in self.terms))

    def __rtruediv__(self, other) -> "Expr":
        return _as_expr(other) / self

    def __str__(self) -> str:
        return expr_text(self)


_expr_terms = Expr.terms.__set__
_E_ZERO = Expr(())


def _flagged_key(e: Expr):
    return (e.sort_key(), tuple((n.terms, d) for _, (n, d) in sorted(
        ((graded_key(p), as_poly(c).num_den()) for p, c in e.terms),
        reverse=True)))


def _exp_powers(exponent: Expr) -> Powers:
    """e^exponent as a power product: empty for a zero exponent."""
    return ((ExpAtom(exponent), 1),) if exponent.terms else ()


def _product(t1: Term, t2: Term) -> Term:
    """The product of two canonical terms.  Each holds at most one
    exponential, of exponent 1, ranked last: only two ever fold."""
    p1, c1 = t1
    p2, c2 = t2
    coeff = coeff_mul(c1, c2)
    if not p1 or not p2:
        return (p1 or p2, coeff)
    exp: Powers = ()
    e1, e2 = p1[-1][0], p2[-1][0]
    if e1.__class__ is ExpAtom and e2.__class__ is ExpAtom:
        exp = _exp_powers(e1.exponent + e2.exponent)
        p1, p2 = p1[:-1], p2[:-1]
    return (mono_mul(p1, p2) + exp, coeff)


def _products(left: tuple[Term, ...], right: tuple[Term, ...]):
    """The distributed term products, with a `checkpoint()` per left term:
    one large product, (a+b+c)^200 say, is enough to outlast a timeout."""
    for t1 in left:
        checkpoint()
        for t2 in right:
            yield _product(t1, t2)


def _gather(terms: Iterable[Term]) -> Expr:
    """The one term-accumulation loop: merge coefficients by power
    product, drop zeros and sort by power product."""
    acc: dict[Powers, Coeff] = {}
    for p, c in terms:
        c0 = acc.get(p)
        acc[p] = c if c0 is None else coeff_add(c0, c)
    kept = [t for t in acc.items() if t[1]]
    kept.sort(key=itemgetter(0), reverse=True)
    return Expr(tuple(kept))


def sum_exprs(pieces: Iterable[Expr]) -> Expr:
    """Canonical sum of expressions in one pass, whatever their number
    and order."""
    nonzero = [e for e in pieces if e.terms]
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else _E_ZERO
    return _gather(t for e in nonzero for t in e.terms)


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, Atom):
        return atom_expr(x)
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


# -- convenience constructors ------------------------------------------------

def atom_expr(a: Atom) -> Expr:
    if isinstance(a, Parameter):
        return Expr((((), Poly.param(a)),))
    if isinstance(a, ExpAtom):
        return exp_of(a.exponent)
    return Expr(((((a, 1),), 1),))


def rational(p, q=1) -> Expr:
    return Expr.const(Fraction(p, q))


def ivar(name: str) -> Expr:
    return atom_expr(IndependentVar(name))


def param(name: str, nonzero: bool = False) -> Expr:
    return atom_expr(Parameter(name, nonzero))


def jet_atom(dep: str, *dvars: str) -> JetVar:
    return JetVar(dep, MultiIndex.of(*dvars))


def jet(dep: str, *dvars: str) -> Expr:
    return atom_expr(jet_atom(dep, *dvars))


def opaque(func: str, *args: Atom) -> Expr:
    return atom_expr(OpaqueDeriv(func, tuple(args)))


def exp_of(e: Expr) -> Expr:
    """Exponential of an expression, folding constant exponents."""
    return Expr(((_exp_powers(_as_expr(e)), 1),))


# -- kernel operations -------------------------------------------------------

def normalize(x) -> Expr:
    """Rebuild the canonical form from scratch.

    Accepts anything coercible to an expression; on an already-canonical
    expression this re-derives every term (including nested exponents), so
    normalize(normalize(e)) == normalize(e) by construction.
    """
    def image(a: Atom) -> Expr:
        if isinstance(a, ExpAtom):
            return exp_of(normalize(a.exponent))
        return atom_expr(a)
    pieces = []
    for powers, c in _as_expr(x).terms:
        piece = Expr.from_coeff(c)
        for a, k in powers:
            piece = piece * image(a) ** k
        pieces.append(piece)
    return sum_exprs(pieces)


def partial(e: Expr, a: Atom) -> Expr:
    """Formal partial derivative treating all other atoms as constants.

    The chain rule applies through exponential factors; an opaque-function
    atom has zero derivative unless `a` is that exact atom.  A parameter
    lives in the coefficient field and is not an atom to differentiate by.
    """
    if isinstance(a, Parameter):
        raise ExprError("cannot differentiate by a parameter atom")
    e = _as_expr(e)
    pieces = []
    for t in e.terms:
        for i, (atom, _) in enumerate(t[0]):
            if atom == a:
                pieces.append(Expr((lowered(t, i),)))
            elif isinstance(atom, ExpAtom):
                pieces.append(Expr((t,)) * partial(atom.exponent, a))
    return sum_exprs(pieces)


def _chain(acc: dict[Atom, list[Term]], inner: dict[Expr, dict[Atom, Expr]],
           x: Expr, left: tuple[Term, ...], var: str | None) -> None:
    """Add the terms of left * dx/da to acc's entry of each a but the
    independent variables other than `var`; `inner` keeps x's gradient
    for the rest of the walk."""
    grad = inner.get(x)
    if grad is None:
        grad = inner[x] = jet_gradient(x)
    for a, d in grad.items():
        if a.__class__ is not IndependentVar or _kept(a, var):
            acc.setdefault(a, []).extend(_products(left, d.terms))


def _kept(x: IndependentVar, var: str | None) -> bool:
    """Whether the gradient walk keeps the entry of x: always, or only
    for x_var when the walk serves the total derivative by `var`."""
    return var is None or x.name == var


def _gradient_terms(e: Expr, var: str | None = None
                    ) -> dict[Atom, list[Term]]:
    """The unsummed terms of de/da for every jet coordinate and
    independent variable a on which e depends, in one walk of its terms;
    the keys come in term order.  This walk is the engine's chain rule.
    Given `var`, the entries of the other independent variables are left
    out: the total derivative by `var` has no use for them.  The Euler
    operator, which has no use for any, passes "", the name of none.

    A plain factor gives its lowered term.  An opaque factor g gives its
    lowered term raised by g's derivative in each slot: in the entry of the
    slot's atom if that is a variable, and otherwise times the gradient of
    the atom (an exponential, another opaque function).  An exponential
    factor gives the term times the gradient of its exponent.  The
    gradient of an exponent or argument is taken once per call.
    """
    acc: dict[Atom, list[Term]] = {}
    inner: dict[Expr, dict[Atom, Expr]] = {}
    for t in e.terms:
        for i, (f, _) in enumerate(t[0]):
            cls = f.__class__
            if cls is JetVar or cls is IndependentVar and _kept(f, var):
                acc.setdefault(f, []).append(lowered(t, i))
            elif cls is OpaqueDeriv and f.args:
                low = lowered(t, i)
                for k, arg in enumerate(f.args):
                    c = arg.__class__
                    if c is JetVar or c is IndependentVar and _kept(arg, var):
                        acc.setdefault(arg, []).append(raised(low, f.bump(k)))
                    elif c is not IndependentVar:
                        _chain(acc, inner, atom_expr(arg),
                               (raised(low, f.bump(k)),), var)
            elif cls is ExpAtom:
                _chain(acc, inner, f.exponent, (t,), var)
    return acc


def jet_gradient(e: Expr) -> dict[Atom, Expr]:
    """de/da for every jet coordinate and independent variable a on which
    e depends: `_gradient_terms`, one `_gather` per entry.  Zero entries
    are dropped and the keys come in term order.

    Unlike `partial`, the chain rule runs through opaque-function
    arguments: a factor g(u) contributes g'(u) to the entry of u, and
    g(e^u) contributes g'(e^u) e^u.
    """
    grads = {a: _gather(ts) for a, ts in _gradient_terms(e).items()}
    return {a: d for a, d in grads.items() if d.terms}


def substitute(e: Expr, bindings: Mapping[Atom, "Expr | int | Fraction"]) -> Expr:
    """Simultaneous substitution of atoms by expressions.

    Atoms inside exponential exponents are substituted too.  Binding an
    atom that occurs as an opaque-function argument is rejected: the
    argument list of an opaque function is a fixed symbol, not a slot.
    Only moving factors (bound atoms, exponentials whose exponent holds
    one) are rebuilt.  A term without one passes through as is; any other
    is split into its moving key and its rest, and the rest is multiplied
    by the product of the key's images, built once per distinct key in
    this call.  Every term goes into one `_gather`.
    """
    e = _as_expr(e)
    binds = {a: _as_expr(v) for a, v in bindings.items()}
    if not binds:
        return e
    for key in binds:
        if isinstance(key, Parameter):
            raise ExprError("cannot substitute for a parameter atom")
    return _substitute(e, binds, e.atoms())


def _substitute(e: Expr, binds: Mapping[Atom, Expr], atoms: set[Atom]) -> Expr:
    """`substitute` for bindings that are expressions and bind no
    parameter, with `atoms`, `e.atoms()`, walked by the caller."""
    # the first such function in atom order, so the message does not
    # follow the set order of `atoms`
    fixed = sorted(a for a in atoms if isinstance(a, OpaqueDeriv)
                   and not binds.keys().isdisjoint(a.args))
    if fixed:
        arg = next(x for x in fixed[0].args if x in binds)
        raise ExprError(f"cannot substitute into opaque-function argument "
                        f"{atom_text(arg)} of {fixed[0].func}")
    images = {a: binds[a] if a in binds else
              exp_of(substitute(a.exponent, binds)) for a in atoms
              if a in binds or isinstance(a, ExpAtom)
              and not binds.keys().isdisjoint(a.exponent.atoms())}
    if not images:
        return e
    products: dict[Powers, Expr] = {}
    terms: list[Term] = []
    for t in e.terms:
        powers, c = t
        key = tuple((a, k) for a, k in powers if a in images)
        if not key:
            terms.append(t)
            continue
        image = products.get(key)
        if image is None:
            image = products[key] = functools.reduce(
                Expr.__mul__, (images[a] ** k for a, k in key))
        rest = tuple((a, k) for a, k in powers if a not in images)
        terms.extend(_products(((rest, c),), image.terms))
    return _gather(terms)


def collect(e: Expr, selected: Iterable[Atom]) -> dict[Powers, Expr]:
    """Split into buckets keyed by the monomial in `selected` atoms.

    The sum of monomial * bucket over the result reproduces `e` exactly;
    bucket expressions contain no selected atom as a factor.  Occurrences
    nested inside exponential exponents or opaque-function arguments are
    part of composite atoms and are not split.
    """
    e = _as_expr(e)
    sel = set(selected)
    buckets: dict[Powers, list[Term]] = {}
    for powers, c in e.terms:
        key = tuple((a, k) for a, k in powers if a in sel)
        rest = tuple((a, k) for a, k in powers if a not in sel)
        buckets.setdefault(key, []).append((rest, c))
    return {k: _gather(ts) for k, ts in buckets.items()}
