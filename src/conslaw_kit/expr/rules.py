"""Rule-based rewriting of opaque-function derivatives.

A rule replaces one derivative atom of an opaque function by an expression
in strictly lower-order derivatives, e.g. f_{xt} -> -a*f_x - b*f_t for a
function constrained by a linear PDE.  Rewriting closes over higher
derivatives: an atom f_{xxt} is reduced with the rule differentiated along
the x argument, chaining through every other opaque function of x.  The
order-decreasing requirement makes reduction to a fixpoint terminate.

`fixpoint` is the one rewrite loop of the package: `RuleSet.reduce` runs
it with the rule matcher alone, and `PdeSystem.reduce` (in `jet`) runs it
with leading-derivative replacement and the system's rules together.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..cancel import checkpoint
from ..record import Record
from .atoms import Atom, OpaqueDeriv
from .errors import LeadingSolveError, RuleError
from .expression import Expr, _substitute, jet_gradient
from .printer import atom_text

__all__ = ["RewriteRule", "RuleSet", "fixpoint"]


def fixpoint(e: Expr, image: Callable[[Atom], Expr | None]) -> Expr:
    """Substitute every atom that `image` rewrites (None: left alone),
    pass after pass, until no atom is rewritten.

    Orientable rules and pre-reduced replacements make this terminate; the
    guard turns a cyclic leading-derivative system into an error.
    """
    for _ in range(1000):
        checkpoint()
        atoms = e.atoms()
        binds = {a: b for a in atoms if (b := image(a)) is not None}
        if not binds:
            return e
        e = _substitute(e, binds, atoms)
    raise LeadingSolveError("reduction did not terminate")


class RewriteRule(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: OpaqueDeriv, rhs: Expr) -> None:
        if lhs.order == 0:
            raise RuleError("rule left-hand side must be a derivative atom")
        for a in rhs.atoms():
            if isinstance(a, OpaqueDeriv) and a.order >= lhs.order:
                raise RuleError(
                    f"non-orientable rule: {atom_text(a)} in the right-hand "
                    f"side has order >= {atom_text(lhs)}")
        super().__init__(lhs, rhs)


class RuleSet(Record):
    """Validated, ordered collection of rewrite rules."""

    __slots__ = ("rules", "_derived")

    def __init__(self, rules: Iterable[RewriteRule] = ()) -> None:
        rules = tuple(rules)
        seen = set()
        for r in rules:
            key = (r.lhs.func, r.lhs.args, r.lhs.index)
            if key in seen:
                raise RuleError(f"duplicate rule for {atom_text(r.lhs)}")
            seen.add(key)
        super().__init__(rules)
        object.__setattr__(self, "_derived", {})

    def __iter__(self):
        return iter(self.rules)

    def image(self, a: Atom) -> Expr | None:
        """Rewrite of one atom by the first rule whose left-hand side it
        differentiates, or None."""
        if isinstance(a, OpaqueDeriv):
            for i, r in enumerate(self.rules):
                if a.func == r.lhs.func and a.args == r.lhs.args:
                    delta = tuple(k - k0 for k, k0 in zip(a.index, r.lhs.index))
                    if all(d >= 0 for d in delta):
                        return self._derived_rhs(i, delta)
        return None

    def _derived_rhs(self, i: int, delta: tuple[int, ...]) -> Expr:
        """Rule i's right-hand side differentiated `delta[slot]` times along
        each argument slot."""
        rhs = self._derived.get((i, delta))
        if rhs is None:
            rule = self.rules[i]
            rhs = rule.rhs
            for slot, cnt in enumerate(delta):
                for _ in range(cnt):
                    rhs = jet_gradient(rhs).get(rule.lhs.args[slot],
                                                Expr.zero())
            self._derived[(i, delta)] = rhs
        return rhs

    def reduce(self, e: Expr) -> Expr:
        """Rewrite to a fixpoint (terminates by the order argument); with
        no rule, e itself."""
        return fixpoint(e, self.image) if self.rules else e
