"""Variational calculus: Euler operator, formal Lagrangian, adjoint system,
linearization tables and the self-adjointness test."""

import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.dsl import load_session, run_session_command
from conslaw_kit.expr import (Expr, JetVar, MultiIndex, OpaqueDeriv,
                              atom_expr, exp_of, rational)
from conslaw_kit.expr.expression import jet, sum_exprs
from conslaw_kit.jet import derivatives, solve_leading, total_derivative
from conslaw_kit.variational import (Characteristic, _operator_table,
                                     adjoint_linearize, adjoint_system,
                                     adjoint_variables, euler,
                                     formal_lagrangian, is_variational,
                                     linearize, linearize_table)

from conftest import Syms as S, random_expr
from test_jet import PLAIN_POOL, WIDE_POOL, ref_jet_partial, ref_multi


V = jet("v")
VT, VX = jet("v", "t"), jet("v", "x")
VTT, VXX, VXT = jet("v", "t", "t"), jet("v", "x", "x"), jet("v", "x", "t")
GP = atom_expr(OpaqueDeriv("g", (S.u_at,), (1,)))
GFUN = atom_expr(OpaqueDeriv("g", (S.u_at,)))


def sub_indices(J):
    """All K <= J componentwise, with the product-of-binomials weight."""
    names = J.names()
    for ks in itertools.product(*(range(c + 1) for _, c in J.counts)):
        yield (MultiIndex(tuple(zip(names, ks))),
               math.prod(math.comb(c, k) for (_, c), k in zip(J.counts, ks)))


def leibniz_adjoint(table):
    """Formal adjoint of an operator table, in the same shape: entry
    (a, r) collects, from entry (r, a), the Leibniz expansion of
    (-1)^|J| D_J(c * .) = sum_{K <= J} (-1)^|J| binom(J, K) D_{J-K} c D_K.
    A reference for the table `is_variational` reads off the adjoint
    system."""
    acc = [[{} for _ in table] for _ in (table[0] if table else ())]
    for r, row in enumerate(table):
        for a, pairs in enumerate(row):
            for J, c in pairs:
                sign = -1 if J.order % 2 else 1
                dc = derivatives(c)
                for K, w in sub_indices(J):
                    acc[a][r].setdefault(K, []).append(
                        dc(J - K).scale(sign * w))
    return tuple(
        tuple(normal_pairs((K, sum_exprs(p)) for K, p in entry.items())
              for entry in row)
        for row in acc)


def normal_pairs(pairs):
    """(J, c) pairs in an operator table's form: sorted by J, no zero c."""
    return tuple(sorted((J, c) for J, c in pairs if not c.is_zero))


def apply_table(table, comp):
    """sum_{r, J} c * D_J comp[r] for each row of an operator table."""
    tables = [derivatives(c) for c in comp]
    return [sum_exprs(c * tables[r](J)
                      for r, pairs in enumerate(row) for J, c in pairs)
            for row in table]


class TestEuler:
    def test_klein_gordon_adjoint_shape(self):
        lagr = V * (S.utt - S.uxx - GFUN)
        assert euler(lagr, "u") == VTT - VXX - GP * V

    def test_annihilates_total_x_derivative(self):
        assert euler(total_derivative(S.u * S.ux, "x"), "u").is_zero

    def test_wave_action_gives_minus_equation(self):
        # Kinetic-minus-potential Lagrangian for u_tt = u^2 u_xx + u u_x^2.
        action = rational(1, 2) * S.ut**2 - rational(1, 2) * S.u**2 * S.ux**2
        E = S.utt - S.u**2 * S.uxx - S.u * S.ux**2
        assert euler(action, "u") == -E

    def test_truncates_at_orders_present(self):
        assert euler(S.u**2, "u") == 2 * S.u
        assert euler(Expr.zero(), "u").is_zero

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_definition(self, seed):
        """sum_J (-1)^|J| D_J(de/du_J), one index at a time, over every
        u_J in e: a factor, an opaque argument, or inside an exponent."""
        e = random_expr(random.Random(seed), pool=WIDE_POOL, max_terms=3,
                        max_factors=3, allow_exp=True)
        atoms = e.atoms() | set(PLAIN_POOL)
        atoms |= {arg for f in atoms if isinstance(f, OpaqueDeriv)
                  for arg in f.args}
        want = sum_exprs(
            ref_multi(ref_jet_partial(e, a), a.index).scale((-1) ** a.order)
            for a in atoms if isinstance(a, JetVar) and a.dep == "u")
        assert euler(e, "u") == want


class TestFormalLagrangian:
    def test_fresh_variable_names(self, wave, thomas):
        assert adjoint_variables(wave) == ("v",)
        assert adjoint_variables(thomas) == ("v",)

    def test_wave_lagrangian(self, wave):
        assert formal_lagrangian(wave) == V * wave.equations[0]

    def test_thomas_mixed_atom_is_single(self, thomas):
        # u_xt and u_tx are the same atom, so v*G is already symmetric.
        lagr = formal_lagrangian(thomas)
        assert lagr == V * thomas.equations[0]

    def test_name_collision_avoided(self):
        E = S.utt - jet("v") * S.uxx
        sys_v = __import__("conslaw_kit.jet", fromlist=["solve_leading"]) \
            .solve_leading(["t", "x"], ["u"], [E])
        assert adjoint_variables(sys_v)[0] not in ("v",)


class TestAdjointSystem:
    def test_klein_gordon(self, klein_gordon):
        (adj,) = adjoint_system(klein_gordon)
        assert adj == VTT - VXX - GP * V

    def test_thomas_reduced_structure(self, thomas):
        (adj,) = adjoint_system(thomas)
        want = (VXT - S.alpha * VX - S.beta * VT - S.gamma * S.ut * VX
                - S.gamma * S.ux * VT
                + 2 * S.gamma * (S.alpha * S.ux + S.beta * S.ut
                                 + S.gamma * S.ux * S.ut) * V)
        assert thomas.reduce(adj) == want

    def test_wave_two_code_paths_agree(self, wave):
        # euler(v*E) versus the alternating-sign adjoint sum at omega = v.
        exprs = adjoint_linearize(wave, Characteristic.of(V))
        assert exprs[0] == adjoint_system(wave)[0]


class TestLinearize:
    def test_wave_operator_table(self, wave):
        assert linearize_table(wave) == (((
            (MultiIndex(), -2 * S.u * S.uxx - S.ux**2),
            (MultiIndex.of("x"), -2 * S.u * S.ux),
            (MultiIndex.of("t", "t"), Expr.const(1)),
            (MultiIndex.of("x", "x"), -S.u**2)),),)

    def test_thomas_applied_to_characteristic(self, thomas):
        phi = Characteristic.of(S.u * S.ux)
        exprs = linearize(thomas, phi)
        c = phi.components[0]
        want = (total_derivative(total_derivative(c, "t"), "x")
                + (S.alpha + S.gamma * S.ut) * total_derivative(c, "x")
                + (S.beta + S.gamma * S.ux) * total_derivative(c, "t"))
        assert exprs[0] == want

    def test_zero_characteristic(self, wave):
        exprs = linearize(wave, Characteristic.of(Expr.zero()))
        assert exprs[0].is_zero

    def test_operator_apply_matches_exprs(self, thomas):
        omega = Characteristic.of(S.x * S.ut + exp_of(S.gamma * S.u))
        exprs = adjoint_linearize(thomas, omega)
        op = leibniz_adjoint(linearize_table(thomas))
        assert apply_table(op, list(omega)) == exprs


@pytest.fixture(scope="module")
def kdv():
    E = S.ut + S.u * S.ux + jet("u", "x", "x", "x")
    return solve_leading(["t", "x"], ["u"], [E], [S.ut_at], ["kdv"])


@pytest.fixture(scope="module")
def kdv5():
    E = (S.ut + 30 * S.u**2 * S.ux + 20 * S.ux * S.uxx
         + 10 * S.u * jet("u", "x", "x", "x") + jet("u", *"xxxxx"))
    return solve_leading(["t", "x"], ["u"], [E], [S.ut_at], ["kdv5"])


SYSTEMS = ["wave", "thomas", "klein_gordon", "kdv", "kdv5"]


class TestAdjointOperator:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_adjoint_system_table_matches_leibniz(self, name, request):
        """The formal adjoint read off the adjoint system, linear in the
        adjoined variables, against the Leibniz expansion of the
        linearization."""
        sys = request.getfixturevalue(name)
        read = _operator_table(adjoint_system(sys), adjoint_variables(sys))
        assert read == leibniz_adjoint(linearize_table(sys))

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_expressions_match_operator_adjoint(self, name, request):
        """`alternating_sum` over the linearization against the Leibniz
        normal form of its formal adjoint, applied to seeded random
        characteristics."""
        sys = request.getfixturevalue(name)
        op = leibniz_adjoint(linearize_table(sys))
        rng = random.Random(2718)
        for i in range(8):
            omega = Characteristic.of(
                random_expr(rng, max_terms=2)
                + random_expr(rng, max_terms=1) * exp_of(S.gamma * S.ux))
            assert (adjoint_linearize(sys, omega)
                    == apply_table(op, list(omega))), \
                f"{name} case {i} (seed 2718)"

    def test_constant_omega_definition_instance(self, wave):
        exprs = adjoint_linearize(wave, Characteristic.of(Expr.const(1)))
        want = ((-2 * S.u * S.uxx - S.ux**2)
                - total_derivative(-2 * S.u * S.ux, "x")
                + total_derivative(total_derivative(-S.u**2, "x"), "x"))
        assert exprs[0] == want

    def test_wave_self_adjoint_on_characteristics(self, wave):
        for comp in (S.u - S.x * S.ux, S.ut, S.u * S.ux):
            ch = Characteristic.of(comp)
            le = linearize(wave, ch)
            ae = adjoint_linearize(wave, ch)
            assert le[0] == ae[0]

    def test_adjoint_of_adjoint_identity_random(self):
        rng = random.Random(777)
        for i in range(30):
            op = ((normal_pairs(
                (J, random_expr(rng, max_terms=2))
                for J in (MultiIndex(), MultiIndex.of("x"),
                          MultiIndex.of("t"), MultiIndex.of("x", "x"),
                          MultiIndex.of("x", "t", "t"))
                if rng.random() < 0.6),),)
            assert leibniz_adjoint(leibniz_adjoint(op)) == op, \
                f"case {i} (seed 777)"

    def test_divergence_pairing(self, wave, thomas):
        rng = random.Random(31415)
        for i, sys in enumerate((wave, thomas)):
            for j in range(10):
                eta = Characteristic.of(random_expr(rng, max_terms=2))
                omega = Characteristic.of(random_expr(rng, max_terms=2))
                le = linearize(sys, eta)
                ae = adjoint_linearize(sys, omega)
                pairing = omega.components[0] * le[0] - eta.components[0] * ae[0]
                assert euler(pairing, "u").is_zero, \
                    f"system {i} case {j} (seed 31415)"


class TestIsVariational:
    def test_wave(self, wave):
        assert is_variational(wave).ok

    def test_klein_gordon(self, klein_gordon):
        assert is_variational(klein_gordon).ok

    def test_thomas_with_witness(self, thomas):
        verdict = is_variational(thomas)
        assert not verdict.ok
        a, r, J, diff = verdict.witness
        assert (a, r) == (0, 0)
        assert J == MultiIndex()   # zeroth-order entry differs first
        assert diff == 2 * S.gamma * (S.alpha * S.ux + S.beta * S.ut
                                      + S.gamma * S.ux * S.ut)


ROOT = Path(__file__).resolve().parents[1]
SESSIONS = {
    "wave": ROOT / "src" / "conslaw_kit" / "corpus" / "wave.cl",
    "thomas": ROOT / "src" / "conslaw_kit" / "corpus" / "thomas.cl",
    "klein-gordon": ROOT / "src" / "conslaw_kit" / "corpus" / "klein-gordon.cl",
    "kdv5": ROOT / "perfbench" / "sessions" / "kdv5-conslaw.cl",
}
MEMOIZED = (adjoint_variables, formal_lagrangian, adjoint_system,
            linearize_table)


class TestPerSystemMemo:
    """The adjoint variables, formal Lagrangian, adjoint system and
    linearization table are built once per system, in its memo."""

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_warm_values_equal_fresh_ones(self, name):
        session = load_session(SESSIONS[name].read_text(encoding="utf-8"))
        for cmd in session.commands:
            run_session_command(session, cmd)
        warm = session.require_system()
        fresh = warm.with_solved(warm.solved)
        for f in MEMOIZED:
            value = f(warm)
            assert f(warm) is value, f.__name__
            assert value == f(fresh), f.__name__
        assert type(adjoint_system(warm)) is tuple
        assert type(adjoint_system(fresh)) is tuple

    def test_copy_starts_cold(self, wave):
        for f in MEMOIZED:
            f(wave)
        fresh = wave.with_solved(wave.solved)
        assert fresh._cache == {}
        assert adjoint_system(fresh) is not adjoint_system(wave)
