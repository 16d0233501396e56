"""Acceptance criteria.

Every check is an exact symbolic identity (the tolerance is literal
equality of canonical forms); each criterion prints one pass/fail line
with its runtime against the stated budget.  Randomized parts print their
seed so failures are reproducible.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from conslaw_kit.ansatz import AnsatzProblem, entry_exprs, solve_ansatz
from conslaw_kit.conslaw import (Generator, compare_vectors, ibragimov_vector,
                                 verify_divergence)
from conslaw_kit.determining import (adjoint_invariance_conditions,
                                     adjoint_symmetry_residual,
                                     differential_substitution_residual,
                                     multiplier_residual)
from conslaw_kit.dsl import load_session, print_session_source
from conslaw_kit.expr import (Expr, MultiIndex, OpaqueDeriv, atom_expr,
                              exp_of, rational)
from conslaw_kit.expr.expression import jet
from conslaw_kit.jet import total_derivative
from conslaw_kit.variational import adjoint_system, euler, is_variational

from conftest import Syms as S, child_env, random_expr

PKG_ROOT = Path(__file__).resolve().parents[1]
CORPUS = PKG_ROOT / "src" / "conslaw_kit" / "corpus"
SCHEMA = json.loads(
    (PKG_ROOT / "src" / "conslaw_kit" / "schema" / "report-v1.json").read_text())

V = jet("v")
ETA = jet("eta")


class _Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.start = time.monotonic()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {status}  "
              f"{elapsed:6.2f}s / {self.seconds:g}s  {self.description}")
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.seconds}s")
        return False


def thomas_theta():
    return S.gamma * S.u + S.alpha * S.t + S.beta * S.x


def test_criterion_01_wave_conserved_vector(wave):
    with _Budget(1, "wave conserved vector matches the printed pair", 5):
        vec = ibragimov_vector(wave, Generator.evolutionary(wave, -S.ut),
                               S.u - S.x * S.ux)
        rep = verify_divergence(wave, vec)
        assert rep.ok and rep.decomposition.remainder.is_zero
        ct = (S.u - S.x * S.ux) * (S.u**2 * S.uxx + S.u * S.ux**2) \
            - S.ut * (S.ut - S.x * S.uxt)
        cx = S.u**2 * (S.x * S.ux - S.u) * S.uxt - S.x * S.u**2 * S.uxx * S.ut
        res = compare_vectors(wave, vec.components, (ct, cx))
        assert res.equivalent and res.exact
        assert res.scale in (Expr.const(1), Expr.const(-1))


def test_criterion_02_thomas_proposition_exact(thomas):
    with _Budget(2, "Thomas general pair with both 1/2 coefficients", 5):
        vec = ibragimov_vector(thomas, Generator.evolutionary(thomas, ETA))
        half = rational(1, 2)
        want_ct = (S.gamma * S.ux * V + S.beta * V - half * jet("v", "x")) * ETA \
            + half * V * jet("eta", "x")
        want_cx = (S.gamma * S.ut * V + S.alpha * V - half * jet("v", "t")) * ETA \
            + half * V * jet("eta", "t")
        assert vec.raw_components == (want_ct, want_cx)


def test_criterion_03_thomas_examples(thomas, thomas_f):
    with _Budget(3, "Thomas Examples 1-3 reproduced and verified", 20):
        theta = thomas_theta()
        e2 = exp_of(2 * theta)
        one = Expr.const(1)

        # Example 1
        phi1 = e2 * (S.ut + S.alpha / S.gamma)
        vec1 = ibragimov_vector(thomas, Generator.evolutionary(thomas, -S.ux),
                                phi1)
        assert verify_divergence(thomas, vec1).decomposition.remainder.is_zero
        ct1 = -e2 * (S.alpha * S.gamma * S.ux**2 + S.alpha * S.uxx
                     + S.gamma * (S.beta * S.ux + S.gamma * S.ux**2 + S.uxx) * S.ut)
        cx1 = e2 * (S.gamma * S.ux * S.utt + S.alpha**2 * S.ux
                    + S.alpha * (2 * S.gamma * S.ux + S.beta) * S.ut
                    + S.gamma * (S.gamma * S.ux + S.beta) * S.ut**2)
        r1 = compare_vectors(thomas, vec1.components, (ct1, cx1))
        assert r1.equivalent and r1.exact

        # Example 2, with and without the f constraint
        f = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at)))
        fx = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (1, 0)))
        ft = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (0, 1)))
        fxt = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (1, 1)))
        eg = exp_of(S.gamma * S.u + 2 * S.alpha * S.t + 2 * S.beta * S.x)
        phi2 = e2 * (S.ux + S.beta / S.gamma)
        eta2 = f * exp_of(-S.gamma * S.u)
        vec2 = ibragimov_vector(thomas, Generator.evolutionary(thomas, eta2),
                                phi2)
        factor = (fxt + S.alpha * fx + S.beta * ft) \
            * (S.gamma * S.ux + S.beta) * eg
        rep_norule = verify_divergence(thomas, vec2)
        assert rep_norule.decomposition.remainder == factor / S.gamma
        assert verify_divergence(thomas_f, vec2).decomposition.remainder.is_zero
        ct2 = eg * (fx * (S.gamma * S.ux + S.beta)
                    - S.gamma * f * (S.beta * S.ux + S.gamma * S.ux**2 + S.uxx))
        cx2 = eg * (ft * (S.gamma * S.ux + S.beta)
                    + S.alpha * S.gamma * f * S.ux)
        r2 = compare_vectors(thomas_f, vec2.components, (ct2, cx2))
        assert r2.equivalent and r2.exact

        # Example 3 (family-consistent substitution; printed C^t corrected
        # by the missing u_t factor)
        phi3 = e2 * (S.x * S.ux - S.t * S.ut
                     + (S.beta * S.x - S.alpha * S.t) / S.gamma)
        vec3 = ibragimov_vector(thomas, Generator.evolutionary(thomas, -S.ut),
                                phi3)
        assert verify_divergence(thomas, vec3).decomposition.remainder.is_zero
        bracket_rest = (
            S.alpha * (S.gamma * S.x * S.ux - S.alpha * S.t + S.beta * S.x) * S.ux
            + S.gamma * (2 * S.beta * S.x - S.alpha * S.t + one) * S.ux * S.ut
            + S.beta * (S.beta * S.x - S.alpha * S.t + one) * S.ut)
        ct3 = -e2 * (S.gamma * S.x * S.uxx * S.ut
                     + S.gamma**2 * S.x * S.ux**2 * S.ut + bracket_rest)
        cx3 = e2 * ((S.gamma * S.x * S.ux - S.alpha * S.t + S.beta * S.x) * S.utt
                    + S.alpha * (S.gamma * S.x * S.ux + one) * S.ut
                    + S.gamma * (S.gamma * S.x * S.ux + S.beta * S.x + one)
                    * S.ut**2)
        r3 = compare_vectors(thomas, vec3.components, (ct3, cx3))
        assert r3.equivalent and r3.exact


def test_criterion_04_substitution_adjoint_equivalence(wave, thomas):
    with _Budget(4, "substitution residual == adjoint residual (6 corpus "
                    "+ 2x50 random characteristics)", 60):
        theta = thomas_theta()
        e2 = exp_of(2 * theta)
        corpus = [
            (wave, S.u - S.x * S.ux),
            (wave, S.ut),
            (wave, S.ux),
            (thomas, e2 * (S.ut + S.alpha / S.gamma)),
            (thomas, e2 * (S.ux + S.beta / S.gamma)),
            (thomas, e2 * (S.x * S.ux - S.t * S.ut
                           + (S.beta * S.x - S.alpha * S.t) / S.gamma)),
        ]
        for sys, comp in corpus:
            a = differential_substitution_residual(sys, comp)
            b = adjoint_symmetry_residual(sys, comp)
            assert (a[0] - b[0]).is_zero
            assert a[0].is_zero  # all six are adjoint symmetries

        seed = 8675309
        rng = random.Random(seed)
        pool = (S.u_at, S.ux_at, S.ut_at, S.x_at, S.t_at)
        for sys in (wave, thomas):
            done = 0
            while done < 50:
                comp = random_expr(rng, pool=pool, max_terms=2, allow_exp=True)
                if sys.reduce(comp).is_zero:
                    continue
                a = differential_substitution_residual(sys, comp)
                b = adjoint_symmetry_residual(sys, comp)
                assert (a[0] - b[0]).is_zero, \
                    f"{sys.eq_names[0]} case {done} (seed {seed})"
                done += 1


def test_criterion_05_multiplier_subset_witness(wave):
    with _Budget(5, "u - x u_x: adjoint symmetry, not multiplier, extra "
                    "condition = 3", 10):
        scaling = S.u - S.x * S.ux
        assert adjoint_symmetry_residual(wave, scaling)[0].is_zero
        assert not multiplier_residual(wave, scaling)[0].is_zero
        _, parts, extras = adjoint_invariance_conditions(wave, scaling)
        assert parts[0].is_zero
        assert len(extras) == 1
        assert extras[0][1] == Expr.const(3)
        for comp in (S.ut, S.ux):
            assert adjoint_symmetry_residual(wave, comp)[0].is_zero
            assert multiplier_residual(wave, comp)[0].is_zero
            _, parts, extras = adjoint_invariance_conditions(wave, comp)
            assert parts[0].is_zero and not extras


def test_criterion_06_variational_classification(wave, thomas, klein_gordon):
    with _Budget(6, "variational: wave yes, Klein-Gordon yes, Thomas no "
                    "with witness", 5):
        assert is_variational(wave).ok
        assert is_variational(klein_gordon).ok
        verdict = is_variational(thomas)
        assert not verdict.ok
        witness = verdict.witness[3]
        assert witness == 2 * S.gamma * (S.alpha * S.ux + S.beta * S.ut
                                         + S.gamma * S.ux * S.ut)


def test_criterion_07_substitution_family(thomas, thomas_b):
    with _Budget(7, "exponential ansatz family: dimension 4 + B-piece "
                    "under its rule", 30):
        theta = thomas_theta()
        e2 = exp_of(2 * theta)
        basis = (e2, e2 * S.t * S.ut, e2 * S.ut, e2 * S.x * S.ux, e2 * S.ux,
                 e2 * S.x, e2 * S.t, Expr.const(1))
        problem = AnsatzProblem(thomas, "adjoint-symmetry", basis)
        result = solve_ansatz(problem)   # soundness check runs inside
        assert result.dimension == 4
        for vec in result.vectors:
            comp = Expr.zero()
            for entry, b in zip(entry_exprs(vec), basis):
                comp = comp + entry * b
            assert adjoint_symmetry_residual(thomas, comp)[0].is_zero
        B = atom_expr(OpaqueDeriv("B", (S.x_at, S.t_at)))
        phiB = B * exp_of(S.gamma * S.u)
        assert adjoint_symmetry_residual(thomas_b, phiB)[0].is_zero
        assert not adjoint_symmetry_residual(thomas, phiB)[0].is_zero


def test_criterion_08_property_suites():
    with _Budget(8, "algebraic-law property suites (see "
                    "test_properties.py)", 120):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest",
             str(PKG_ROOT / "tests" / "test_properties.py"), "-q",
             "--no-header", "-p", "no:cacheprovider"],
            capture_output=True, text=True, cwd=PKG_ROOT, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_criterion_09_klein_gordon_adjoint(klein_gordon):
    with _Budget(9, "Klein-Gordon adjoint equation v_tt - v_xx - g'(u) v", 2):
        (adj,) = adjoint_system(klein_gordon)
        gp = atom_expr(OpaqueDeriv("g", (S.u_at,), (1,)))
        assert adj == jet("v", "t", "t") - jet("v", "x", "x") - gp * V


def test_criterion_10_cli_contract():
    with _Budget(10, "corpus sessions, exit codes, JSON schema, parser "
                     "round-trip", 30):
        env = child_env({"CONSLAW_COLOR": "0", "PATH": "/usr/bin:/bin",
                         "PYTHONPATH": str(PKG_ROOT / "src")})
        for name in ("wave.cl", "thomas.cl", "klein-gordon.cl"):
            text = (CORPUS / name).read_text()
            canon = print_session_source(load_session(text))
            assert print_session_source(load_session(canon)) == canon
            proc = subprocess.run(
                [sys.executable, "-m", "conslaw_kit", "run", "--session",
                 str(CORPUS / name)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, f"{name}: {proc.stdout}{proc.stderr}"
        wave_cl = str(CORPUS / "wave.cl")
        checks = [
            (["multiplier-check", "scaleChar", "--session", wave_cl], 1),
            (["symmetry-check", "timeChar", "--session", wave_cl], 0),
            (["symmetry-check", "char=D[u,", "--session", wave_cl], 2),
        ]
        for args, code in checks:
            proc = subprocess.run(
                [sys.executable, "-m", "conslaw_kit", *args],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == code, (args, proc.returncode)
        proc = subprocess.run(
            [sys.executable, "-m", "conslaw_kit", "conslaw", "timeTrans",
             "scaleChar", "--session", wave_cl, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60)
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, SCHEMA)
        assert proc.returncode == 0 and doc["status"] == "zero"
