"""Multi-equation systems: the first-order form of the linear wave
equation, u_t = v_x and v_t = u_x, exercises every m > 1 code path."""

import random

import pytest

from conslaw_kit.ansatz import AnsatzProblem, solve_ansatz
from conslaw_kit.conslaw import Generator, ibragimov_vector, verify_divergence
from conslaw_kit.determining import (adjoint_symmetry_residual, e_decompose,
                                     differential_substitution_residual,
                                     multiplier_residual)
from conslaw_kit.dsl import load_session, run_command
from conslaw_kit.expr import Expr, Poly, rational
from conslaw_kit.expr.expression import jet, jet_atom
from conslaw_kit.jet import solve_leading
from conslaw_kit.variational import adjoint_variables, is_variational

from conftest import random_expr

U, V = jet("u"), jet("v")
UT, UX = jet("u", "t"), jet("u", "x")
VT, VX = jet("v", "t"), jet("v", "x")


@pytest.fixture(scope="module")
def first_order_wave():
    return solve_leading(
        ["t", "x"], ["u", "v"],
        [UT - VX, VT - UX],
        [jet_atom("u", "t"), jet_atom("v", "t")],
        eq_names=["eqU", "eqV"])


def test_leading_forms(first_order_wave):
    sys = first_order_wave
    assert sys.solved == (VX, UX)
    assert sys.reduce(UT) == VX
    assert sys.reduce(jet("u", "t", "t")) == sys.reduce(jet("v", "x", "t")) == UX * 0 + jet("u", "x", "x")


def test_adjoint_variables_are_indexed(first_order_wave):
    # 'v' is taken by the system itself, so the fresh base grows
    assert adjoint_variables(first_order_wave) == ("vv1", "vv2")


def test_not_formally_self_adjoint(first_order_wave):
    # first-order linearization: L = L1*D_t - L2*D_x acting per component;
    # its formal adjoint flips the sign of every first-order entry.
    verdict = is_variational(first_order_wave)
    assert not verdict.ok


def test_energy_multiplier_pair(first_order_wave):
    lam = (U, V)
    res = multiplier_residual(first_order_wave, lam)
    assert all(r.is_zero for r in res)
    assert all(r.is_zero
               for r in adjoint_symmetry_residual(first_order_wave, lam))


def test_substitution_residual_identity_two_components(first_order_wave):
    rng = random.Random(271)
    pool = (jet_atom("u"), jet_atom("v"), jet_atom("u", "x"),
            jet_atom("v", "x"))
    for i in range(20):
        comps = (random_expr(rng, pool=pool, max_terms=2),
                 random_expr(rng, pool=pool, max_terms=2))
        if all(first_order_wave.reduce(c).is_zero for c in comps):
            continue
        a = differential_substitution_residual(first_order_wave, comps)
        b = adjoint_symmetry_residual(first_order_wave, comps)
        assert all((x - y).is_zero for x, y in zip(a, b)), \
            f"case {i} (seed 271)"


def test_e_decompose_two_markers(first_order_wave):
    sys = first_order_wave
    e = U * sys.equations[0] + UX * sys.equations[1] + U * V
    d = e_decompose(e, sys)
    assert d.remainder == U * V
    assert d.reassemble() == e
    by_eq = {b for (b, _J) in d.coeffs}
    assert by_eq == {0, 1}


def test_energy_conserved_vector(first_order_wave):
    sys = first_order_wave
    ct = rational(1, 2) * U**2 + rational(1, 2) * V**2
    cx = -U * V
    rep = verify_divergence(sys, (ct, cx))
    assert rep.ok and rep.nontrivial


def test_pipeline_with_translation_generator(first_order_wave):
    sys = first_order_wave
    gen = Generator.evolutionary(sys, -UT, -VT)
    vec = ibragimov_vector(sys, gen, (U, V))
    assert vec.substitution_ok
    assert verify_divergence(sys, vec).ok


def test_ansatz_over_component_basis(first_order_wave):
    sys = first_order_wave
    basis = ((U, V), (V, U), (U, Expr.zero()))
    res = solve_ansatz(AnsatzProblem(sys, "adjoint-symmetry", basis))
    # (u, v) and (v, u) are adjoint symmetries; (u, 0) is not and cannot
    # be repaired by the other two.
    assert res.dimension == 2
    dirs = set(res.vectors)
    one, zero = Poly.const(1), Poly.zero()
    assert dirs == {(one, zero, zero), (zero, one, zero)}


def test_session_with_two_dependents():
    src = """
indep t x;
dep u v;
eq eqU: D[u,t] - D[v,x] = 0 leading D[u,t];
eq eqV: D[v,t] - D[u,x] = 0 leading D[v,t];
char energy = (u, v);
vector energyVec = (1/2*u^2 + 1/2*v^2, -u*v);
gen trans: eta = (-D[u,t], -D[v,t]);
cmd multiplier-check energy;
cmd verify energyVec;
cmd conslaw trans energy;
"""
    session = load_session(src)
    assert session.system.dep == ("u", "v")
    for cmd in session.commands:
        rep = run_command(session, cmd.name, cmd.args)
        assert rep.status == "zero", (cmd.name, rep.detail)
