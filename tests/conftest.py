"""Shared fixtures: the corpus systems, atom shortcuts, and seeded random
expression generators used by the property suites."""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from conslaw_kit.expr import (Expr, IndependentVar, JetVar, MultiIndex,
                              OpaqueDeriv, Parameter, atom_expr, exp_of,
                              ivar, param, rational)
from conslaw_kit.expr.expression import jet, jet_atom
from conslaw_kit.jet import PdeSystem, solve_leading
from conslaw_kit.variational import Characteristic
from conslaw_kit.expr.rules import RewriteRule, RuleSet


def child_env(env: dict[str, str]) -> dict[str, str]:
    """`env`, built from scratch for a child Python process, with
    PYTHONDONTWRITEBYTECODE carried over when this process has it: a run
    that writes no bytecode caches then leaves none from its children."""
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return env if flag is None else {**env, "PYTHONDONTWRITEBYTECODE": flag}


class Syms:
    """Atom/expression shortcuts for the (t, x; u) jet space."""

    t = ivar("t")
    x = ivar("x")
    u = jet("u")
    ux = jet("u", "x")
    ut = jet("u", "t")
    uxx = jet("u", "x", "x")
    uxt = jet("u", "x", "t")
    utt = jet("u", "t", "t")
    alpha = param("alpha", nonzero=True)
    beta = param("beta", nonzero=True)
    gamma = param("gamma", nonzero=True)

    u_at = jet_atom("u")
    ux_at = jet_atom("u", "x")
    ut_at = jet_atom("u", "t")
    uxx_at = jet_atom("u", "x", "x")
    utt_at = jet_atom("u", "t", "t")
    uxt_at = jet_atom("u", "x", "t")
    x_at = IndependentVar("x")
    t_at = IndependentVar("t")


@pytest.fixture(scope="session")
def S():
    return Syms


@pytest.fixture(scope="session")
def wave():
    s = Syms
    E = s.utt - s.u**2 * s.uxx - s.u * s.ux**2
    return solve_leading(["t", "x"], ["u"], [E], eq_names=["wave"])


@pytest.fixture(scope="session")
def thomas():
    s = Syms
    G = s.uxt + s.alpha * s.ux + s.beta * s.ut + s.gamma * s.ux * s.ut
    return solve_leading(["t", "x"], ["u"], [G], eq_names=["thomas"])


@pytest.fixture(scope="session")
def klein_gordon():
    s = Syms
    gfun = atom_expr(OpaqueDeriv("g", (s.u_at,)))
    E = s.utt - s.uxx - gfun
    return solve_leading(["t", "x"], ["u"], [E], eq_names=["kg"])


@pytest.fixture(scope="session")
def thomas_theta():
    s = Syms
    return s.gamma * s.u + s.alpha * s.t + s.beta * s.x


@pytest.fixture(scope="session")
def f_rule():
    xv, tv = IndependentVar("x"), IndependentVar("t")
    fx = atom_expr(OpaqueDeriv("f", (xv, tv), (1, 0)))
    ft = atom_expr(OpaqueDeriv("f", (xv, tv), (0, 1)))
    lhs = OpaqueDeriv("f", (xv, tv), (1, 1))
    return RuleSet([RewriteRule(lhs, -Syms.alpha * fx - Syms.beta * ft)])


def _under(sys: PdeSystem, rules: RuleSet) -> PdeSystem:
    """The same system with `rules` constraining its opaque functions."""
    return solve_leading(sys.indep, sys.dep, sys.equations, sys.leading,
                         sys.eq_names, rules)


@pytest.fixture(scope="session")
def thomas_f(thomas, f_rule):
    """Thomas under the constraint f_xt = -alpha f_x - beta f_t."""
    return _under(thomas, f_rule)


@pytest.fixture(scope="session")
def b_rule():
    xv, tv = IndependentVar("x"), IndependentVar("t")
    bx = atom_expr(OpaqueDeriv("B", (xv, tv), (1, 0)))
    bt = atom_expr(OpaqueDeriv("B", (xv, tv), (0, 1)))
    lhs = OpaqueDeriv("B", (xv, tv), (1, 1))
    return RuleSet([RewriteRule(lhs, Syms.alpha * bx + Syms.beta * bt)])


@pytest.fixture(scope="session")
def thomas_b(thomas, b_rule):
    """Thomas under the constraint B_xt = alpha B_x + beta B_t."""
    return _under(thomas, b_rule)


# -- random expression generation ---------------------------------------------

DEFAULT_POOL = (
    Syms.u_at, Syms.ux_at, Syms.ut_at, Syms.uxx_at,
    Syms.x_at, Syms.t_at,
)


def random_expr(rng: random.Random, pool=DEFAULT_POOL, max_terms: int = 3,
                max_factors: int = 3, allow_exp: bool = False) -> Expr:
    """Small random polynomial (optionally with an exponential factor) in
    the given atoms, with random small rational coefficients."""
    e = Expr.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        term = Expr.const(coeff) if coeff else Expr.const(1)
        for _ in range(rng.randint(0, max_factors)):
            term = term * atom_expr(rng.choice(pool))
        if allow_exp and rng.random() < 0.25:
            inner = atom_expr(rng.choice(pool[:3])).scale(rng.randint(1, 2))
            term = term * exp_of(inner)
        e = e + term
    return e


def random_tree(rng: random.Random, depth: int = 5, pool=DEFAULT_POOL) -> Expr:
    """Random operator tree (the raw-expression path of normalize)."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.5:
            return atom_expr(rng.choice(pool))
        if kind < 0.8:
            return Expr.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return exp_of(atom_expr(rng.choice(pool[:3])))
    op = rng.random()
    a = random_tree(rng, depth - 1, pool)
    b = random_tree(rng, depth - 1, pool)
    if op < 0.45:
        return a + b
    if op < 0.85:
        return a * b
    if op < 0.95:
        return a - b
    return a ** rng.randint(0, 2)
