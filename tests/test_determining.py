"""Determining-system residuals, E-decomposition, and the mechanized
symmetry / adjoint-symmetry / substitution / multiplier relationships."""

import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import conslaw_kit.determining as determining_module

from conslaw_kit.expr import (Expr, JetVar, MultiIndex, OpaqueDeriv,
                              atom_expr, exp_of)
from conslaw_kit.cancel import deadline
from conslaw_kit.expr.errors import (CancelledComputation,
                                     SubstitutionClassError,
                                     TrivialSubstitutionError)
from conslaw_kit.expr.expression import jet
from conslaw_kit.determining import (TARGETS, adjoint_invariance_conditions,
                                     adjoint_symmetry_residual,
                                     characteristic_residual, e_decompose,
                                     differential_substitution_residual,
                                     multiplier_residual, selfadjoint_lambda,
                                     symmetry_residual)
from conslaw_kit.conslaw import ibragimov_vector
from conslaw_kit.dsl import load_session, run_session_command
from conslaw_kit.jet import derivatives, solve_leading, total_derivative

from conftest import Syms as S, random_expr


class TestEDecompose:
    def test_equation_itself(self, wave):
        d = e_decompose(wave.equations[0], wave)
        assert d.remainder.is_zero and d.is_linear
        assert d.coeffs == {(0, MultiIndex()): Expr.const(1)}

    def test_explicit_factor(self, wave):
        d = e_decompose(S.ut * wave.equations[0], wave)
        assert d.coeffs[(0, MultiIndex())] == S.ut
        assert d.remainder.is_zero

    def test_reassembly_exactness_seeded(self, wave, thomas):
        rng = random.Random(161803)
        pool_w = (S.u_at, S.ux_at, S.utt_at, S.x_at,
                  S.ut_at, S.uxx_at)
        for i in range(60):
            e = random_expr(rng, pool=pool_w, max_terms=3)
            d = e_decompose(e, wave)
            assert d.reassemble() == e, f"wave case {i} (seed 161803)"
            e2 = random_expr(rng, pool=(S.u_at, S.ux_at, S.ut_at, S.uxt_at),
                             max_terms=3)
            d2 = e_decompose(e2, thomas)
            assert d2.reassemble() == e2, f"thomas case {i} (seed 161803)"

    def test_quadratic_content_reported(self, wave):
        d = e_decompose(S.utt**2, wave)
        assert not d.is_linear
        assert d.reassemble() == S.utt**2

    def test_equation_inside_an_exponential(self):
        # the divergence of (exp(E)*u, -u_x) and the multiplier residual
        # of exp(2E + 1/2)*exp(-1/2)*u_x for the heat equation E = 0: the
        # markers inside exp() must leave neither remainder nor coefficient
        heat = solve_leading(["t", "x"], ["u"], [S.ut - S.uxx], [S.ut_at],
                             ["heat"])
        eq = heat.equations[0]
        div = (total_derivative(exp_of(eq) * S.u, "t")
               - total_derivative(S.ux, "x"))
        lam = exp_of(2 * eq + Fraction(1, 2)) * exp_of(Expr.const(
            Fraction(-1, 2))) * S.ux
        res = multiplier_residual(heat, (lam,))[0]
        for e in (div, res):
            d = e_decompose(e, heat)
            assert d.reassemble() == e
            for x in (d.remainder, *d.coeffs.values()):
                assert not any(isinstance(a, JetVar)
                               and a.dep in d.marker_deps
                               for a in x.atoms())
        d = e_decompose(div, heat)
        assert d.remainder.is_zero
        assert d.coeffs == {(0, MultiIndex()): S.uxx + 1,
                            (0, MultiIndex.of("t")): S.u}
        assert e_decompose(res, heat).remainder == \
            adjoint_symmetry_residual(heat, (lam,))[0]

    def test_shadow_system_is_built_once_per_system(self, wave):
        sys = solve_leading(wave.indep, wave.dep, wave.equations,
                            wave.leading, wave.eq_names)
        built = []
        e = S.ux * total_derivative(wave.equations[0], "x")
        first = e_decompose(e, sys)
        markers, shadow = sys.memo("e_decompose", lambda: built.append(1))
        assert markers == first.marker_deps and not built
        kept = dict(shadow._cache)
        assert kept   # the shadow's replacement cache was filled
        assert e_decompose(e, sys) == first
        assert sys.memo("e_decompose", lambda: built.append(1))[1] is shadow
        assert shadow._cache == kept and not built   # every lookup a hit
        copy = sys.with_solved(sys.solved)
        assert e_decompose(e, copy) == first
        assert copy.memo("e_decompose", lambda: built.append(1))[1] \
            is not shadow

    def test_adjoint_symmetry_is_not_multiplier_shape(self, wave):
        # euler((u - x u_x) * E) has vanishing remainder but a nonzero
        # equation coefficient: adjoint symmetry, not multiplier.
        from conslaw_kit.variational import euler
        res = euler((S.u - S.x * S.ux) * wave.equations[0], "u")
        d = e_decompose(res, wave)
        assert d.remainder.is_zero
        assert any(not c.is_zero for c in d.coeffs.values())


class TestSymmetryResidual:
    def test_wave_scaling_symmetry(self, wave):
        assert symmetry_residual(wave, S.u - S.x * S.ux)[0].is_zero

    def test_wave_time_translation(self, wave):
        assert symmetry_residual(wave, S.ut)[0].is_zero

    def test_thomas_opaque_family(self, thomas, thomas_f):
        f = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at)))
        eta = f * exp_of(-S.gamma * S.u)
        res = symmetry_residual(thomas_f, eta)
        assert res[0].is_zero
        res_no = symmetry_residual(thomas, eta)
        assert not res_no[0].is_zero

    def test_nonsymmetry(self, wave):
        assert not symmetry_residual(wave, S.x * S.u)[0].is_zero


class TestAdjointSymmetryResidual:
    def test_wave_self_adjoint_scaling(self, wave):
        assert adjoint_symmetry_residual(
            wave, S.u - S.x * S.ux)[0].is_zero

    def test_thomas_example1(self, thomas, thomas_theta):
        phi = exp_of(2 * thomas_theta) * (S.ut + S.alpha / S.gamma)
        assert adjoint_symmetry_residual(thomas, phi)[0].is_zero

    def test_thomas_family_member(self, thomas, thomas_theta):
        phi = exp_of(2 * thomas_theta) * (
            S.x * S.ux - S.t * S.ut + (S.beta * S.x - S.alpha * S.t) / S.gamma)
        assert adjoint_symmetry_residual(thomas, phi)[0].is_zero

    def test_published_example3_constant_is_a_typo(self, thomas, thomas_theta):
        # (beta*t - alpha*x)/gamma, as printed, fails the determining system;
        # the family-consistent constant is (beta*x - alpha*t)/gamma.
        phi = exp_of(2 * thomas_theta) * (
            S.x * S.ux - S.t * S.ut + (S.beta * S.t - S.alpha * S.x) / S.gamma)
        assert not adjoint_symmetry_residual(thomas, phi)[0].is_zero

    def test_thomas_opaque_substitution(self, thomas_b):
        B = atom_expr(OpaqueDeriv("B", (S.x_at, S.t_at)))
        phi = B * exp_of(S.gamma * S.u)
        assert adjoint_symmetry_residual(thomas_b, phi)[0].is_zero


class TestDifferentialSubstitution:
    def test_agrees_with_adjoint_residual_on_solutions_of_it(self, wave):
        phi = S.u - S.x * S.ux
        a = differential_substitution_residual(wave, phi)
        b = adjoint_symmetry_residual(wave, phi)
        assert a[0].is_zero and b[0].is_zero
        assert (a[0] - b[0]).is_zero

    def test_identity_even_for_non_solutions(self, wave, thomas):
        rng = random.Random(424242)
        for i, sys in enumerate((wave, thomas)):
            for j in range(25):
                comp = random_expr(rng, pool=(S.u_at, S.ux_at, S.ut_at,
                                              S.x_at, S.t_at),
                                   max_terms=2, allow_exp=True)
                if sys.reduce(comp).is_zero:
                    continue
                a = differential_substitution_residual(sys, comp)
                b = adjoint_symmetry_residual(sys, comp)
                assert (a[0] - b[0]).is_zero, \
                    f"system {i} case {j} (seed 424242)"

    def test_trivial_substitution_rejected(self, thomas):
        with pytest.raises(TrivialSubstitutionError):
            differential_substitution_residual(thomas, Expr.zero())
        # vanishing only on solutions is also trivial
        with pytest.raises(TrivialSubstitutionError):
            differential_substitution_residual(thomas, thomas.equations[0])


class TestSelfAdjointLambda:
    def test_thomas_point_substitution(self, thomas_b):
        B = atom_expr(OpaqueDeriv("B", (S.x_at, S.t_at)))
        phi = B * exp_of(S.gamma * S.u)
        lam = selfadjoint_lambda(thomas_b, phi)
        assert lam[0][0] == -S.gamma * phi

    def test_wave_strict_substitution_fails_consistently(self, wave):
        # v = u is not a point substitution for the wave equation; the
        # failure, a None factor matrix, must agree with the
        # adjoint-symmetry residual being nonzero.
        residual = adjoint_symmetry_residual(wave, S.u)
        assert not residual[0].is_zero
        assert selfadjoint_lambda(wave, S.u) is None

    def test_derivative_dependence_rejected(self, thomas, thomas_theta):
        phi = exp_of(2 * thomas_theta) * (S.ut + S.alpha / S.gamma)
        with pytest.raises(SubstitutionClassError,
                           match="requires differential substitution"):
            selfadjoint_lambda(thomas, phi)


class TestMultiplier:
    def test_wave_energy_multiplier(self, wave):
        assert multiplier_residual(wave, S.ut)[0].is_zero

    def test_wave_energy_conserved_vector_oracle(self, wave):
        # Independent identity: D_t(u_t^2/2 + u^2 u_x^2/2) + D_x(-u^2 u_x u_t)
        # equals u_t * E for arbitrary u.
        from conslaw_kit.expr import rational
        ct = rational(1, 2) * S.ut**2 + rational(1, 2) * S.u**2 * S.ux**2
        cx = -S.u**2 * S.ux * S.ut
        div = total_derivative(ct, "t") + total_derivative(cx, "x")
        assert div == S.ut * wave.equations[0]

    def test_wave_momentum_multiplier(self, wave):
        assert multiplier_residual(wave, S.ux)[0].is_zero

    def test_wave_scaling_is_not_multiplier(self, wave):
        res = multiplier_residual(wave, S.u - S.x * S.ux)
        assert res[0] == 3 * wave.equations[0]

    def test_zero_is_trivial_multiplier(self, wave):
        assert multiplier_residual(wave, Expr.zero())[0].is_zero


class TestSymbolicMultiplierSplit:
    """The multiplier determining system for a symbolic first-order
    Lambda(x,t,u,u_x,u_t) separates into the adjoint-symmetry part plus a
    single equation-proportional coefficient."""

    ARGS = (S.x_at, S.t_at, S.u_at, S.ux_at, S.ut_at)

    def lam(self, *index):
        return atom_expr(OpaqueDeriv("Lam", self.ARGS,
                                     index or (0,) * len(self.ARGS)))

    def test_split_shape_and_remainder(self, wave):
        from conslaw_kit.variational import euler
        res = euler(self.lam() * wave.equations[0], "u")
        d = e_decompose(res, wave)
        assert d.is_linear
        assert set(d.coeffs) == {(0, MultiIndex())}
        assert d.remainder == adjoint_symmetry_residual(wave, self.lam())[0]
        assert d.reassemble() == res

    def test_extra_condition_closed_form(self, wave):
        # Unique since residual = M0*E + S with both leading-free: the
        # u_tt coefficients pin M0.  Note the + sign on the Dt term; the
        # hand-expanded u*u_t case below confirms it.
        from conslaw_kit.variational import euler
        res = euler(self.lam() * wave.equations[0], "u")
        d = e_decompose(res, wave)
        lu = self.lam(0, 0, 1, 0, 0)
        lux = self.lam(0, 0, 0, 1, 0)
        lut = self.lam(0, 0, 0, 0, 1)
        want = (2 * lu + wave.reduce(total_derivative(lut, "t"))
                - total_derivative(lux, "x"))
        assert d.coeffs[(0, MultiIndex())] == want

    def test_hand_expanded_concrete_case(self, wave):
        # euler(u u_t E, u) expanded by hand:
        #   3 u_t u_tt - u^2 u_t u_xx - 2 u u_t u_x^2 - 2 u^2 u_x u_xt
        # = (3 u_t) E + (2 u^2 u_t u_xx + u u_t u_x^2 - 2 u^2 u_x u_xt).
        from conslaw_kit.variational import euler
        res = euler(S.u * S.ut * wave.equations[0], "u")
        hand = (3 * S.ut * S.utt - S.u**2 * S.ut * S.uxx
                - 2 * S.u * S.ut * S.ux**2 - 2 * S.u**2 * S.ux * S.uxt)
        assert res == hand
        d = e_decompose(res, wave)
        assert d.coeffs[(0, MultiIndex())] == 3 * S.ut
        assert d.remainder == (2 * S.u**2 * S.ut * S.uxx
                               + S.u * S.ut * S.ux**2
                               - 2 * S.u**2 * S.ux * S.uxt)

    def test_collect_split_on_scaling_multiplier(self, wave):
        from conslaw_kit.expr import collect
        from conslaw_kit.variational import euler
        res = euler((S.u - S.x * S.ux) * wave.equations[0], "u")
        buckets = collect(res, {S.utt_at})
        assert buckets[((S.utt_at, 1),)] == Expr.const(3)
        assert buckets[()] == -3 * (S.u**2 * S.uxx + S.u * S.ux**2)


class TestAdjointInvariance:
    def test_wave_scaling_witness_constant_three(self, wave):
        _, parts, extras = adjoint_invariance_conditions(
            wave, S.u - S.x * S.ux)
        assert parts[0].is_zero
        assert len(extras) == 1
        (key, coeff) = extras[0]
        assert key == (0, 0, MultiIndex())
        assert coeff == Expr.const(3)

    def test_oracle_hand_evaluation(self, wave):
        # 2 L_u - Dt(L_{u_t}) - Dx(L_{u_x}) at L = u - x u_x:
        # 2*1 - 0 - Dx(-x) = 3.
        lam = S.u - S.x * S.ux
        from conslaw_kit.expr import partial
        cond = (2 * partial(lam, S.u_at)
                - wave.reduce(total_derivative(partial(lam, S.ut_at), "t"))
                - total_derivative(partial(lam, S.ux_at), "x"))
        assert cond == Expr.const(3)

    def test_multipliers_pass_both(self, wave):
        for comp in (S.ut, S.ux):
            _, parts, extras = adjoint_invariance_conditions(wave, comp)
            assert parts[0].is_zero
            assert not extras

    def test_arbitrary_u_vs_on_solution_consistency(self, wave):
        rng = random.Random(271828)
        for i in range(25):
            comp = random_expr(rng, pool=(S.u_at, S.ux_at, S.ut_at, S.x_at),
                               max_terms=2)
            if comp.is_zero:
                continue
            lhs = wave.reduce(multiplier_residual(wave, comp)[0])
            rhs = adjoint_symmetry_residual(wave, comp)[0]
            assert lhs == rhs, f"case {i} (seed 271828)"

    def test_multipliers_are_adjoint_symmetries_not_conversely(self, wave):
        # Every multiplier is an adjoint symmetry; the converse fails on
        # the scaling characteristic.
        for comp in (S.ut, S.ux):
            assert adjoint_symmetry_residual(wave, comp)[0].is_zero
        scaling = S.u - S.x * S.ux
        assert adjoint_symmetry_residual(wave, scaling)[0].is_zero
        assert not multiplier_residual(wave, scaling)[0].is_zero


ROOT = Path(__file__).resolve().parents[1]
THOMAS = ROOT / "src" / "conslaw_kit" / "corpus" / "thomas.cl"
MEMO_SESSIONS = (THOMAS, ROOT / "src" / "conslaw_kit" / "corpus" / "wave.cl",
                 ROOT / "src" / "conslaw_kit" / "corpus" / "klein-gordon.cl",
                 ROOT / "perfbench" / "sessions" / "kdv5-conslaw.cl")


def characteristic_keys(sys):
    """The memo keys that name a characteristic: (target, phi) and
    ("derivatives", phi)."""
    return [k for k in sys._cache
            if isinstance(k, tuple) and isinstance(k[0], str)]


def run_named(session, name):
    """Run every command whose arguments name `name`; their reports."""
    return [run_session_command(session, cmd) for cmd in session.commands
            if name in [v for _, v in cmd.args]]


class TestCharacteristicMemo:
    """The residuals of a declared characteristic, and a substitution's
    D_J phi tables, are built once per system and shared by the commands
    that name it."""

    def test_one_substitution_residual_for_three_commands(self, monkeypatch):
        """`adjoint-check`, `substitution-check` and `conslaw` of `sub3`
        read one adjoint-symmetry residual; none takes the substitution
        path."""
        calls, substituted = [], []
        original = determining_module._substitution_residual

        def counted(sys, phi):
            calls.append(phi)
            return adjoint_symmetry_residual(sys, phi)

        def spy(*args):
            substituted.append(args)
            return original(*args)

        monkeypatch.setitem(TARGETS, "adjoint-symmetry", counted)
        monkeypatch.setattr(determining_module, "_substitution_residual", spy)
        session = load_session(THOMAS.read_text(encoding="utf-8"))
        reports = run_named(session, "sub3")
        assert [r.command for r in reports] == [
            "adjoint-check", "substitution-check", "conslaw"]
        assert [r.status for r in reports] == ["zero"] * 3
        assert "warning" not in reports[2].extra
        phi = session.chars["sub3"]
        assert calls == [phi] and substituted == []
        keys = characteristic_keys(session.require_system())
        assert {("adjoint-symmetry", phi), ("derivatives", phi)} <= set(keys)
        assert ("differential-substitution", phi) not in keys

    def test_one_adjoint_residual_for_adjoint_and_multiplier_check(
            self, monkeypatch):
        calls = []

        def counted(sys, phi):
            calls.append(phi)
            return adjoint_symmetry_residual(sys, phi)

        monkeypatch.setitem(TARGETS, "adjoint-symmetry", counted)
        session = load_session(MEMO_SESSIONS[3].read_text(encoding="utf-8"))
        m1 = session.chars["m1"]
        reports = [run_session_command(session, cmd)
                   for cmd in session.commands[1:3]]
        assert [(r.command, r.status) for r in reports] == [
            ("adjoint-check", "zero"), ("multiplier-check", "zero")]
        assert calls == [m1]

    @pytest.mark.parametrize("path", MEMO_SESSIONS, ids=lambda p: p.name)
    def test_entries_equal_a_cold_copy(self, path):
        session = load_session(path.read_text(encoding="utf-8"))
        for cmd in session.commands:
            run_session_command(session, cmd)
        sys = session.require_system()
        keys = characteristic_keys(sys)
        assert keys
        for twin in (sys.with_solved(sys.solved), pickle.loads(
                pickle.dumps(sys)), copy.copy(sys), copy.deepcopy(sys)):
            assert characteristic_keys(twin) == []
        cold = sys.with_solved(sys.solved)
        for target, phi in keys:
            value = sys._cache[target, phi]
            if target == "derivatives":
                for table, c in zip(value, phi):
                    fresh = derivatives(c)
                    for J in (MultiIndex(), MultiIndex.of("x"),
                              MultiIndex.of("t", "x"),
                              MultiIndex.of("x", "x", "x")):
                        assert table(J) == fresh(J)
                continue
            assert (target, phi) not in cold._cache
            assert value == TARGETS[target](cold, phi)
            assert characteristic_residual(cold, target, phi) == value

    def test_trivial_substitution_raises_every_time_and_leaves_no_key(self):
        session = load_session(THOMAS.read_text(encoding="utf-8"))
        sys = session.require_system()
        phi = sys.equations
        for _ in range(2):
            with pytest.raises(TrivialSubstitutionError):
                characteristic_residual(sys, "differential-substitution", phi)
            with pytest.raises(TrivialSubstitutionError):
                selfadjoint_lambda(sys, Expr.zero())
            with pytest.raises(TrivialSubstitutionError):
                ibragimov_vector(sys, session.gens["timeTrans"], phi)
        assert characteristic_keys(sys) == []

    @pytest.mark.parametrize("target", ("symmetry", "adjoint-symmetry",
                                        "differential-substitution"))
    def test_cancelled_build_stores_no_residual(self, thomas, target):
        phi = (S.ut,)
        with pytest.raises(CancelledComputation):
            with deadline(0):
                characteristic_residual(thomas, target, phi)
        assert (target, phi) not in thomas._cache
        assert ("derivatives", phi) not in thomas._cache
        fresh = thomas.with_solved(thomas.solved)
        assert characteristic_residual(thomas, target, phi) == \
            TARGETS[target](fresh, phi)

    def test_substitution_cancelled_after_its_tables_stores_neither(
            self, monkeypatch):
        """The deadline passes inside the adjoint-symmetry residual that a
        substitution's residual reads; the next call equals one on a cold
        copy."""
        def late(sys, phi):
            with deadline(0):
                return adjoint_symmetry_residual(sys, phi)

        session = load_session(THOMAS.read_text(encoding="utf-8"))
        sys, phi = session.require_system(), session.chars["sub3"]
        with monkeypatch.context() as m:
            m.setitem(TARGETS, "adjoint-symmetry", late)
            with pytest.raises(CancelledComputation):
                characteristic_residual(sys, "differential-substitution", phi)
        assert characteristic_keys(sys) == []
        cold = sys.with_solved(sys.solved)
        assert characteristic_residual(
            sys, "differential-substitution", phi) == \
            characteristic_residual(cold, "differential-substitution", phi)

    def test_selfadjoint_check_leaves_no_characteristic_key(self):
        session = load_session(THOMAS.read_text(encoding="utf-8"))
        reports = run_named(session, "subB")
        assert [r.command for r in reports] == [
            "adjoint-check", "selfadjoint-check"]
        sys = session.require_system()
        assert characteristic_keys(sys) == [
            ("adjoint-symmetry", session.chars["subB"])]

    def test_ansatz_leaves_no_characteristic_key(self):
        text = (ROOT / "src" / "conslaw_kit" / "corpus" / "wave.cl"
                ).read_text(encoding="utf-8")
        for target in sorted(TARGETS):
            session = load_session(
                text + f"cmd ansatz {target} scaleChar timeChar spaceChar;\n")
            report = run_session_command(session, session.commands[-1])
            assert report.command == "ansatz" and report.status == "zero"
            assert characteristic_keys(session.require_system()) == []
