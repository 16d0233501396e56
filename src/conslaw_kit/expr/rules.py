"""Rule-based rewriting of opaque-function derivatives.

A rule replaces one derivative atom of an opaque function by an expression
in strictly lower-order derivatives, e.g. f_{xt} -> -a*f_x - b*f_t for a
function constrained by a linear PDE.  Rewriting closes over higher
derivatives: an atom f_{xxt} is reduced with the formally differentiated
rule.  The order-decreasing requirement makes reduction to a fixpoint
terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .atoms import Atom, OpaqueDeriv
from .errors import RuleError
from .expression import Expr, atom_expr, partial, substitute, sum_exprs

__all__ = ["RewriteRule", "RuleSet", "as_ruleset", "is_zero"]


@dataclass(frozen=True)
class RewriteRule:
    lhs: OpaqueDeriv
    rhs: Expr

    def __post_init__(self) -> None:
        if self.lhs.order == 0:
            raise RuleError("rule left-hand side must be a derivative atom")
        for a in self.rhs.atoms():
            if isinstance(a, OpaqueDeriv) and a.order >= self.lhs.order:
                raise RuleError(
                    f"non-orientable rule: {a} in the right-hand side has "
                    f"order >= {self.lhs}")


class RuleSet:
    """Validated, ordered collection of rewrite rules."""

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        rules = tuple(rules)
        seen = set()
        for r in rules:
            key = (r.lhs.func, r.lhs.args, r.lhs.index)
            if key in seen:
                raise RuleError(f"duplicate rule for {r.lhs}")
            seen.add(key)
        self.rules = rules
        self._derived: dict[tuple[int, tuple[int, ...]], Expr] = {}

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def _match(self, a: OpaqueDeriv) -> tuple[int, RewriteRule] | None:
        for i, r in enumerate(self.rules):
            if (a.func == r.lhs.func and a.args == r.lhs.args
                    and all(k >= k0 for k, k0 in zip(a.index, r.lhs.index))):
                return i, r
        return None

    def _derived_rhs(self, i: int, rule: RewriteRule, delta: tuple[int, ...]) -> Expr:
        key = (i, delta)
        cached = self._derived.get(key)
        if cached is not None:
            return cached
        rhs = rule.rhs
        for slot, cnt in enumerate(delta):
            for _ in range(cnt):
                rhs = _arg_derivative(rhs, rule.lhs.args, slot)
        self._derived[key] = rhs
        return rhs

    def reduce(self, e: Expr) -> Expr:
        """Rewrite to a fixpoint (terminates by the order argument)."""
        guard = 0
        while True:
            binds: dict[Atom, Expr] = {}
            for a in e.atoms():
                if not isinstance(a, OpaqueDeriv):
                    continue
                m = self._match(a)
                if m is None:
                    continue
                i, rule = m
                delta = tuple(k - k0 for k, k0 in zip(a.index, rule.lhs.index))
                binds[a] = self._derived_rhs(i, rule, delta)
            if not binds:
                return e
            e = substitute(e, binds)
            guard += 1
            if guard > 10_000:  # unreachable for orientable rule sets
                raise RuleError("rewriting did not reach a fixpoint")


def _arg_derivative(e: Expr, args: tuple[Atom, ...], slot: int) -> Expr:
    """Formal derivative of e along argument `slot` of functions with the
    given argument list: bumps same-signature opaque atoms and picks up
    explicit occurrences of the argument atom itself."""
    return sum_exprs([partial(e, args[slot]), *(
        partial(e, f) * atom_expr(f.bump(slot))
        for f in e.opaque_atoms() if f.args == args)])


def as_ruleset(rules: "RuleSet | Sequence[RewriteRule] | None") -> RuleSet:
    if rules is None:
        return _EMPTY
    if isinstance(rules, RuleSet):
        return rules
    return RuleSet(rules) if rules else _EMPTY


_EMPTY = RuleSet()


def is_zero(e: Expr, rules: "RuleSet | Sequence[RewriteRule]" = ()) -> bool:
    return as_ruleset(rules).reduce(e).is_zero
