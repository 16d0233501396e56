"""Differential oracle: the kernel against sympy on random expressions.

Each case converts `conftest.random_expr` output to sympy, applies one
operation on both sides and compares after `sympy.expand`.  Jet
coordinates and parameters are plain sympy symbols; the total derivative
is spelled out on the sympy side as d/dx plus the sum over jet
coordinates u_J of u_{J+x} d/du_J.  sympy is a test-only dependency: the
module is skipped without it.  Seeds are printed in assertion messages.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from conslaw_kit.expr import (ExpAtom, Expr, IndependentVar,  # noqa: E402
                              JetVar, Parameter, atom_expr, exp_of,
                              partial, substitute)
from conslaw_kit.expr.coeff import as_poly  # noqa: E402
from conslaw_kit.expr.printer import atom_text  # noqa: E402
from conslaw_kit.jet import total_derivative  # noqa: E402

from conftest import Syms as S, random_expr  # noqa: E402

ALPHA = Parameter("alpha", nonzero=True)
KAPPA = Parameter("kappa")  # not flagged nonzero
JETS = (S.u_at, S.ux_at, S.ut_at, S.uxx_at)
VARIABLES = JETS + (S.x_at, S.t_at)   # the atoms a derivative is taken by
# random_expr draws exponents from the first three atoms of its pool
POOL = VARIABLES + (ALPHA, KAPPA)
SEEDS = range(150)


def to_sympy(e: Expr):
    return sympy.Add(*(_term(t) for t in e.terms))


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _monomial(pairs):
    return sympy.Mul(*(_atom(a) ** k for a, k in pairs))


def _term(t):
    powers, coeff = t
    num, den = as_poly(coeff).num_den()
    num = sympy.Add(*(_rational(q) * _monomial(m) for m, q in num.terms))
    return num / _monomial(den) * _monomial(powers)


def _atom(a):
    if isinstance(a, ExpAtom):
        return sympy.exp(to_sympy(a.exponent))
    if isinstance(a, Parameter):
        return sympy.Symbol(f"{a.name}_{'nonzero' if a.nonzero else 'plain'}")
    if isinstance(a, (IndependentVar, JetVar)):
        return sympy.Symbol(atom_text(a))
    raise TypeError(f"no sympy image for {a!r}")


def total_derivative_oracle(f, var: str):
    out = sympy.diff(f, sympy.Symbol(var))
    for j in JETS:
        out += sympy.diff(f, _atom(j)) * _atom(j.bump(var))
    return out


def assert_agrees(got: Expr, want, seed: int, what: str):
    assert sympy.expand(to_sympy(got) - want) == 0, (
        f"seed {seed}: {what} gave {got}, sympy {sympy.expand(want)}")


def _cases(allow_exp: bool = True):
    """(seed, its generator, a, b) for every seed."""
    for seed in SEEDS:
        rng = random.Random(seed)
        yield (seed, rng, random_expr(rng, POOL, allow_exp=allow_exp),
               random_expr(rng, POOL, allow_exp=allow_exp))


def test_ring_operations():
    for seed, rng, a, b in _cases():
        A, B = to_sympy(a), to_sympy(b)
        n = rng.randint(0, 3)
        assert_agrees(a + b, A + B, seed, "a + b")
        assert_agrees(a - b, A - B, seed, "a - b")
        assert_agrees(a * b, A * B, seed, "a * b")
        assert_agrees(a ** n, A ** n, seed, f"a ** {n}")
        al = atom_expr(ALPHA)
        assert_agrees(a / al + b / al ** 2, A / _atom(ALPHA)
                      + B / _atom(ALPHA) ** 2, seed, "a / alpha + b / alpha^2")


def test_partial_derivatives():
    for seed, _, a, _ in _cases():
        for e in (a, a / atom_expr(ALPHA)):   # a denominator too
            E = to_sympy(e)
            for at in VARIABLES:
                assert_agrees(partial(e, at), sympy.diff(E, _atom(at)), seed,
                              f"partial of {e} by {atom_text(at)}")


def test_total_derivatives():
    for seed, _, a, _ in _cases():
        A = to_sympy(a)
        for var in ("x", "t"):
            assert_agrees(total_derivative(a, var),
                          total_derivative_oracle(A, var), seed, f"D_{var}")


def test_substitution():
    for seed, rng, a, _ in _cases():
        slots = rng.sample(VARIABLES, 2)
        images = [random_expr(rng, POOL, max_terms=2) for _ in slots]
        got = substitute(a, dict(zip(slots, images)))
        want = to_sympy(a).subs(
            {_atom(s): to_sympy(v) for s, v in zip(slots, images)},
            simultaneous=True)
        assert_agrees(got, want, seed,
                      f"substitute {[atom_text(s) for s in slots]}")


def test_exponential_folding():
    for seed, rng, a, b in _cases(allow_exp=False):
        A, B = to_sympy(a), to_sympy(b)
        q = rng.randint(-3, 3)
        assert_agrees(exp_of(a) * exp_of(b), sympy.exp(A) * sympy.exp(B),
                      seed, "exp(a) * exp(b)")
        assert_agrees(exp_of(a) ** 2 * exp_of(-a), sympy.exp(A), seed,
                      "exp(a)^2 exp(-a)")
        assert_agrees(exp_of(Expr.const(q)) * exp_of(a - a), sympy.exp(q),
                      seed, f"exp({q}) exp(0)")
        assert_agrees(exp_of(a) * exp_of(Expr.const(q)), sympy.exp(A + q),
                      seed, f"exp(a) exp({q})")
