"""The record contract, for every record type of the package, and the
modules a CLI start-up imports.

Each record type is a `Record` subclass, or a `KeyRecord` subclass (the
atoms and `MultiIndex`, tuples of their sort keys): equal means the same
type and equal fields, equal records hash alike, fields cannot be
reassigned (except on the two mutable records), and pickle and copy
rebuild a record from its fields, so no cache slot travels.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conslaw_kit.ansatz import AnsatzProblem, Row, solve_ansatz
from conslaw_kit.conslaw import (compare_vectors, ibragimov_vector,
                                 verify_divergence)
from conslaw_kit.determining import e_decompose
from conslaw_kit.dsl import load_session, tokenize
from conslaw_kit.dsl.commands import run_session_command
from conslaw_kit.dsl.report import Report
from conslaw_kit.dsl.session import CommandStmt, Session
from conslaw_kit.expr import (Atom, ExpAtom, ExpConst, Expr, IndependentVar,
                              MultiIndex, OpaqueDeriv, Parameter, jet,
                              jet_atom)
from conslaw_kit.jet import PdeSystem, total_derivative
from conslaw_kit.record import KeyRecord, MutableRecord, Record
from conslaw_kit.variational import adjoint_system, is_variational

from conftest import child_env

# every statement kind, parameters, an opaque function under a rule and
# an exponential
SESSION = """
indep t x;
dep u;
param a nonzero;
func f(x);
eq e: D[u,t] = 2*a*D[u,x,x] + exp(u)*f^2 - -u leading D[u,t];
rule D[f,x] -> f;
char c = D[u,t];
gen g: xi = (1, 0), eta = 0;
vector v = (u, -u);
cmd symmetry-check c expect zero;
"""

MUTABLE = (Session, Report)
MEMO_KEYS = ("e_decompose", "adjoint_variables", "formal_lagrangian",
             "adjoint_system", "linearize_table", "bracket_table")


def _record_types() -> set[type]:
    out, todo = set(), [Record, KeyRecord]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out - {MutableRecord, Atom}


def _samples() -> dict[type, Record]:
    """One record of every type, built afresh on each call."""
    session = load_session(SESSION)
    sys_ = session.require_system()
    sys_.reduce(jet("u", "t", "x") + jet("u", "t"))   # fills the memo
    assert sys_._cache and sys_._images and sys_.rules._derived
    gen, char = session.gens["g"], session.chars["c"]
    vec = ibragimov_vector(sys_, gen)
    ibragimov_vector(sys_, gen, char)   # the substitution verdict
    problem = AnsatzProblem(sys_, "symmetry", (char, jet("u")))
    result = solve_ansatz(problem)
    assert result.vectors and result.rows
    expr = sys_.equations[0]
    objs = [
        *tokenize(SESSION), session.commands[0],
        session, session.funcs["f"], sys_, sys_.rules, sys_.rules.rules[0],
        gen, vec, run_session_command(session, session.commands[0]),
        e_decompose(total_derivative(expr, "x"), sys_),
        verify_divergence(sys_, vec), compare_vectors(sys_, vec.components,
                                                      vec.components),
        is_variational(sys_), problem, result,
        result.rows[0], result.vectors[0],
        expr, expr.terms[0][1],
        MultiIndex.of("x", "t"), IndependentVar("x"), Parameter("a", True),
        OpaqueDeriv("f", (IndependentVar("x"),), (1,)),
        jet_atom("u", "x"), ExpConst(2),
        *(a for a in expr.atoms() if isinstance(a, ExpAtom)),
    ]
    # the per-system variational values, which the copies must not carry
    adjoint_system(sys_)
    assert {*MEMO_KEYS, ("substitution_ok", char)} <= sys_._cache.keys()
    return {type(o): o for o in objs}


SAMPLES = _samples()
TWINS = _samples()


def _graph(obj):
    """Every record reachable from obj through fields, tuples, lists and
    dicts."""
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, (Record, KeyRecord)):
            yield o
            todo.extend(getattr(o, f) for f in o._fields)
        elif isinstance(o, (tuple, list)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.keys())
            todo.extend(o.values())


def _cache_slots(rec):
    return [s for c in type(rec).__mro__ for s in c.__dict__.get("__slots__", ())
            if s.startswith("_")]


def _fill_caches(obj):
    for r in _graph(obj):
        if type(r).__hash__ is not None:
            try:
                hash(r)
            except TypeError:   # a dict field
                pass
        if isinstance(r, Expr):
            r.sort_key()


def test_every_record_type_is_sampled():
    assert _record_types() == set(SAMPLES), _record_types() ^ set(SAMPLES)


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
class TestRecordContract:
    def test_equal_by_type_and_fields(self, cls):
        a, b = SAMPLES[cls], TWINS[cls]
        assert a is not b and a == b and not a != b
        for other in SAMPLES.values():
            assert (a == other) == (type(other) is cls), type(other)

    def test_hash_agrees_with_eq(self, cls):
        a, b = SAMPLES[cls], TWINS[cls]
        if cls in MUTABLE:
            with pytest.raises(TypeError):
                hash(a)
            return
        try:
            h = hash(a)
        except TypeError:       # a dict among its fields, as before
            assert any(isinstance(getattr(r, f), dict)
                       for r in _graph(a) for f in r._fields)
            return
        assert h == hash(b) and {a: 1}[b] == 1

    def test_fields_are_read_only(self, cls):
        a = SAMPLES[cls]
        assert a._fields and not hasattr(a, "__dict__")
        for f in a._fields:
            value = getattr(a, f)
            if cls in MUTABLE:
                setattr(a, f, value)
                continue
            with pytest.raises(AttributeError):
                setattr(a, f, value)
            with pytest.raises(AttributeError):
                delattr(a, f)
            assert getattr(a, f) is value

    @pytest.mark.parametrize("route", ["pickle", "deepcopy", "copy"])
    def test_copies_rebuild_from_fields(self, cls, route):
        a = SAMPLES[cls]
        _fill_caches(a)
        c = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
             "deepcopy": copy.deepcopy, "copy": copy.copy}[route](a)
        assert type(c) is cls and c is not a and c == a
        for s in _cache_slots(c):
            value = getattr(c, s, None)
            if s == "_lock":   # not a cache: a fresh, open lock
                assert value is not a._lock and not value.locked()
            else:
                assert value in (None, {}), s
        if route != "copy":
            # every record inside is rebuilt too, so any cache filled
            # there was computed afresh (deepcopy rehashes its dict keys)
            originals = {id(r) for r in _graph(a)}
            assert not any(id(r) in originals for r in _graph(c))


def test_equal_fields_of_two_types_differ():
    assert IndependentVar("a") != Parameter("a")
    assert Parameter("a") != IndependentVar("a")
    assert Row("f", (), ()) != CommandStmt("f", (), ())
    assert CommandStmt("f", (), ()) != Row("f", (), ())


def test_pde_system_copy_compares_by_value_with_an_empty_memo():
    sys_ = SAMPLES[PdeSystem]
    assert set(MEMO_KEYS) <= sys_._cache.keys()
    twin = sys_.with_solved(sys_.solved)
    assert twin == sys_ and twin == TWINS[PdeSystem]
    assert twin._cache == {} and twin._lock is not sys_._lock


def test_cli_import_loads_no_code_generation_modules():
    # -S: no site hooks, so only what the package imports is counted
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys\nimport conslaw_kit.cli\n"
              "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast',"
              " 'typing') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-S", "-c", script],
                       capture_output=True, text=True, timeout=60,
                       env=child_env({"PYTHONPATH": src}))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []
