"""Rewrite rules on opaque-function derivatives: reduction, derivative
closure, orientation checks, termination."""

import pytest

from conslaw_kit.expr import (IndependentVar, JetVar, OpaqueDeriv,
                              RewriteRule, RuleError, RuleSet, atom_expr,
                              exp_of)

from conftest import Syms as S

XV, TV = IndependentVar("x"), IndependentVar("t")


def f(ix, it):
    return atom_expr(OpaqueDeriv("f", (XV, TV), (ix, it)))


@pytest.fixture()
def f_constraint():
    return RuleSet([
        RewriteRule(OpaqueDeriv("f", (XV, TV), (1, 1)),
                    -S.alpha * f(1, 0) - S.beta * f(0, 1)),
    ])


def test_residual_reduces_to_zero(f_constraint):
    e = f(1, 1) + S.alpha * f(1, 0) + S.beta * f(0, 1)
    assert f_constraint.reduce(e).is_zero


def test_derivative_closure_two_steps(f_constraint):
    # f_xxt -> -a f_xx - b f_xt -> -a f_xx + b(a f_x + b f_t)
    out = f_constraint.reduce(f(2, 1))
    assert out == -S.alpha * f(2, 0) + S.alpha * S.beta * f(1, 0) + S.beta**2 * f(0, 1)


def test_closure_reaches_inside_exponents(f_constraint):
    e = exp_of(f(1, 1))
    out = f_constraint.reduce(e)
    assert out == exp_of(-S.alpha * f(1, 0) - S.beta * f(0, 1))


def test_is_zero_without_rules():
    assert RuleSet().reduce(S.ux - S.ux).is_zero
    assert not RuleSet().reduce(S.ux - S.ut).is_zero


def test_rule_free_reduce_returns_its_input(f_constraint, monkeypatch):
    """With no rule, reduce looks at no atom; with Thomas's rule on f it
    still rewrites."""
    e = f(2, 1) + S.u * S.ux
    looked_at = []
    monkeypatch.setattr(RuleSet, "image", lambda self, a: looked_at.append(a))
    assert RuleSet().reduce(e) is e
    assert not looked_at
    monkeypatch.undo()
    assert f_constraint.reduce(e) == f_constraint.reduce(f(2, 1)) + S.u * S.ux
    assert f_constraint.reduce(e) != e


def test_non_orientable_rule_rejected():
    with pytest.raises(RuleError, match=r"non-orientable rule: D\[f,x,t\] .* "
                       r"order >= D\[f,x\]$"):
        RewriteRule(OpaqueDeriv("f", (XV, TV), (1, 0)), f(1, 1))
    with pytest.raises(RuleError):
        RewriteRule(OpaqueDeriv("f", (XV, TV), (0, 0)), f(0, 0))


def test_duplicate_rule_rejected():
    r = RewriteRule(OpaqueDeriv("f", (XV, TV), (1, 1)), f(1, 0))
    with pytest.raises(RuleError, match="duplicate"):
        RuleSet([r, r])


def test_rule_with_dependent_argument():
    # g''(u) -> u * g'(u): closure must bump along the u slot.
    gp = atom_expr(OpaqueDeriv("g", (S.u_at,), (1,)))
    gpp_atom = OpaqueDeriv("g", (S.u_at,), (2,))
    gppp = atom_expr(OpaqueDeriv("g", (S.u_at,), (3,)))
    rules = RuleSet([RewriteRule(gpp_atom, S.u * gp)])
    # d/du (u g') = g' + u g'' -> g' + u^2 g'
    out = rules.reduce(gppp)
    assert out == gp + S.u**2 * gp


def test_closure_chains_through_other_functions():
    # f_xt -> h(t, x): differentiating the rule along x must bump h in
    # its own x slot, whatever h's argument order.
    h = OpaqueDeriv("h", (TV, XV))
    rules = RuleSet([RewriteRule(OpaqueDeriv("f", (XV, TV), (1, 1)),
                                 atom_expr(h))])
    assert rules.reduce(f(2, 1)) == atom_expr(h.bump(1))
    assert rules.reduce(f(2, 2)) == atom_expr(h.bump(1).bump(0))


def test_termination_on_high_order_atoms(f_constraint):
    e = f(3, 2) + f(2, 2) * S.u
    out = f_constraint.reduce(e)
    for atom in out.atoms():
        if isinstance(atom, OpaqueDeriv):
            assert atom.index[0] == 0 or atom.index[1] == 0
