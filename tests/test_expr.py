"""Expression kernel: canonical forms, formal partials, substitution,
coefficient collection."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conslaw_kit

from conslaw_kit.expr import (ExpAtom, Expr, ExprError, JetVar, OpaqueDeriv,
                              atom_expr, collect, exp_of, normalize, param,
                              partial, rational, substitute)

from conftest import Syms as S, random_tree


class TestNormalize:
    def test_binomial_expansion(self):
        assert (S.ux + S.ut) ** 2 == S.ux**2 + 2 * S.ux * S.ut + S.ut**2

    def test_exponential_merge(self):
        e = exp_of(S.gamma * S.u) * exp_of(2 * S.alpha * S.t) * exp_of(S.gamma * S.u)
        assert e == exp_of(2 * S.gamma * S.u + 2 * S.alpha * S.t)

    def test_cancellation_to_empty_sum(self):
        z = S.gamma * S.u - S.gamma * S.u
        assert z.is_zero
        assert z == Expr.zero()

    def test_zero_coefficients_never_stored(self):
        e = S.u * 0 + S.ux
        assert len(e.terms) == 1

    def test_parameters_fold_into_coefficients(self):
        e = S.alpha * S.u
        ((powers, _),) = e.terms
        assert all(not isinstance(a, type(S.alpha)) for a, _ in powers)

    def test_unsupported_power(self):
        with pytest.raises(ExprError):
            S.u ** -1

    def test_zero_denominator(self):
        with pytest.raises(ExprError, match="zero denominator"):
            S.u / (S.gamma - S.gamma)

    def test_division_restricted_to_units(self):
        with pytest.raises(ExprError):
            S.u / S.ux
        ok = (S.alpha * S.u) / (2 * S.gamma)
        assert ok * 2 * S.gamma == S.alpha * S.u

    def test_idempotence_on_random_trees(self):
        rng = random.Random(20260811)
        for i in range(200):
            e = random_tree(rng, depth=6)
            once = normalize(e)
            assert normalize(once) == once, f"case {i} (seed 20260811)"


class TestPartial:
    def test_power_rule(self):
        assert partial(S.u * S.ux**2, S.ux_at) == 2 * S.u * S.ux

    def test_chain_rule_through_exponent(self):
        e = exp_of(2 * (S.gamma * S.u + S.alpha * S.t + S.beta * S.x))
        assert partial(e, S.u_at) == 2 * S.gamma * e

    def test_unrelated_atom(self):
        assert partial(S.x * S.ux, S.u_at).is_zero

    def test_opaque_atoms_are_formally_constant(self):
        g = atom_expr(OpaqueDeriv("g", (S.u_at,)))
        assert partial(g, S.u_at).is_zero
        assert partial(g * S.ux, S.ux_at) == g

    def test_parameter_is_not_a_variable(self):
        # a parameter lives in the coefficient field, not among the atoms
        # a derivative is taken by
        ((_, coeff),) = S.alpha.terms
        (alpha,) = coeff.parameters()
        with pytest.raises(ExprError, match="parameter"):
            partial(S.alpha * S.u, alpha)

    def test_derivation_property_seeded(self):
        rng = random.Random(42)
        for i in range(120):
            a = random_tree(rng, depth=4)
            b = random_tree(rng, depth=4)
            for at in (S.u_at, S.ux_at, S.x_at):
                lhs = partial(a * b, at)
                rhs = partial(a, at) * b + a * partial(b, at)
                assert lhs == rhs, f"case {i} atom {at} (seed 42)"


class TestSubstitute:
    def test_simple(self):
        v = JetVar("v")
        e = atom_expr(v) * S.ux
        out = substitute(e, {v: S.u - S.x * S.ux})
        assert out == S.u * S.ux - S.x * S.ux**2

    def test_wave_reduction_shape(self):
        e = S.utt - S.u**2 * S.uxx
        out = substitute(e, {S.utt_at: S.u**2 * S.uxx + S.u * S.ux**2})
        assert out == S.u * S.ux**2

    def test_exponent_collapse_to_one(self):
        out = substitute(exp_of(S.gamma * S.u), {S.u_at: Expr.zero()})
        assert out == Expr.const(1)
        with pytest.raises(ValueError, match=r"e\^0 folds to 1"):
            ExpAtom(Expr.zero())

    def test_exponent_collapse_to_exp_const(self):
        e = exp_of(2 * S.u)
        out = substitute(e, {S.u_at: rational(1, 2)})
        ((powers, _),) = out.terms
        assert powers[0][0] == ExpAtom(Expr.const(1))

    def test_simultaneous_not_sequential(self):
        out = substitute(S.u * S.ux, {S.u_at: S.ux, S.ux_at: S.u})
        assert out == S.ux * S.u

    def test_opaque_argument_guard(self):
        g = atom_expr(OpaqueDeriv("g", (S.u_at,)))
        with pytest.raises(ExprError, match="opaque-function argument"):
            substitute(g, {S.u_at: S.x})

    def test_opaque_argument_guard_message_ignores_hash_seed(self):
        """With f(u) + g(v) and both bound, the message names the first
        function in atom order, whatever the set order of the atoms."""
        code = (
            "from conslaw_kit.expr import ExprError, IndependentVar, "
            "OpaqueDeriv, atom_expr, substitute\n"
            "u, v = IndependentVar('u'), IndependentVar('v')\n"
            "e = atom_expr(OpaqueDeriv('f', (u,))) "
            "+ atom_expr(OpaqueDeriv('g', (v,)))\n"
            "try:\n"
            "    substitute(e, {u: 1, v: 2})\n"
            "except ExprError as exc:\n"
            "    print(exc)\n")
        src = str(Path(conslaw_kit.__file__).resolve().parents[1])
        outs = {subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": str(seed),
                 "PYTHONPATH": os.pathsep.join(
                     [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        ).stdout for seed in range(6)}
        assert outs == {
            "cannot substitute into opaque-function argument u of f\n"}


class TestCollect:
    def test_linear_split(self):
        e = S.alpha * S.ux + S.beta * S.x * S.ux + S.beta * S.u
        buckets = collect(e, {S.u_at, S.ux_at})
        assert buckets[((S.ux_at, 1),)] == S.alpha + S.beta * S.x
        assert buckets[((S.u_at, 1),)] == S.beta

    def test_collect_zero(self):
        assert collect(Expr.zero(), {S.u_at}) == {}

    def test_exactness(self):
        rng = random.Random(7)
        for i in range(50):
            e = random_tree(rng, depth=4)
            buckets = collect(e, {S.u_at, S.ux_at, S.ut_at})
            total = Expr.zero()
            for key, val in buckets.items():
                mono = Expr.const(1)
                for a, k in key:
                    mono = mono * atom_expr(a) ** k
                total = total + mono * val
            assert total == e, f"case {i} (seed 7)"


class TestAlgebraicLaws:
    def test_ring_distributivity_seeded(self):
        rng = random.Random(99)
        for i in range(150):
            a = random_tree(rng, depth=4)
            b = random_tree(rng, depth=4)
            c = random_tree(rng, depth=4)
            assert a * (b + c) == a * b + a * c, f"case {i} (seed 99)"

    def test_exp_homomorphism_seeded(self):
        rng = random.Random(123)
        for i in range(150):
            a = random_tree(rng, depth=3)
            b = random_tree(rng, depth=3)
            assert exp_of(a) * exp_of(b) == exp_of(a + b), f"case {i} (seed 123)"

    def test_structural_equality_decides_semantic_equality(self):
        lhs = (S.u + S.ux) * (S.u - S.ux)
        rhs = S.u**2 - S.ux**2
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    def test_exponents_differing_only_in_a_flag_sum_in_any_order(self):
        # _coeff_key drops the nonzero flag, so these two exponents tie in
        # Expr.sort_key; their order used to follow insertion
        e1 = exp_of(param("a", True) * S.x)
        e2 = exp_of(param("a", False) * S.x)
        for lhs, rhs in ((e1 + e2, e2 + e1),
                         (e1 * S.x + e2 * S.x, e2 * S.x + e1 * S.x),
                         (e1 * S.u + e2, e2 + S.u * e1)):
            assert lhs == rhs and hash(lhs) == hash(rhs)
            assert str(lhs) == str(rhs)
