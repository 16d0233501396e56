"""CLI contract: exit codes, stable JSON, schema validation, corpus runs."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import pytest

from conslaw_kit import cli
from conslaw_kit.dsl import emit, load_session, run_session_command
from conslaw_kit.dsl.report import Report
from conslaw_kit.expr.coeff import Poly
from conslaw_kit.expr.expression import jet

from conftest import child_env

PKG_ROOT = Path(__file__).resolve().parents[1]
CORPUS = PKG_ROOT / "src" / "conslaw_kit" / "corpus"
SCHEMA = json.loads(
    (PKG_ROOT / "src" / "conslaw_kit" / "schema" / "report-v1.json").read_text())

WAVE = str(CORPUS / "wave.cl")
THOMAS = str(CORPUS / "thomas.cl")
KG = str(CORPUS / "klein-gordon.cl")


def _bench_workloads():
    """The benchmark's workloads with their pinned report digests."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PKG_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_WORKLOADS = _bench_workloads()


def run_cli(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "conslaw_kit", *args],
        capture_output=True, text=True, timeout=timeout,
        env=child_env({"CONSLAW_COLOR": "0", "PATH": "/usr/bin:/bin",
                       "PYTHONPATH": str(PKG_ROOT / "src")}),
    )


def validate(doc):
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestExitCodes:
    def test_multiplier_check_failure_exits_1(self):
        r = run_cli("multiplier-check", "scaleChar", "--session", WAVE)
        assert r.returncode == 1
        assert "not a multiplier" in r.stdout

    def test_conslaw_success_exits_0(self):
        r = run_cli("conslaw", "eta=-D[u,t]", "phi=u-x*D[u,x]",
                    "--session", WAVE)
        assert r.returncode == 0
        assert "C[t]" in r.stdout and "C[x]" in r.stdout
        assert "identity" in r.stdout

    def test_variational_check_thomas_exits_1_with_witness(self):
        r = run_cli("variational-check", "--session", THOMAS, "--format", "json")
        assert r.returncode == 1
        doc = validate(json.loads(r.stdout))
        assert doc["status"] == "nonzero"
        assert "witness" in doc["extra"]

    @pytest.mark.parametrize("fmt,prefix", [("text", ""), ("latex", "% ")])
    def test_variational_check_witness_prints_one_line_per_key(self, fmt,
                                                               prefix):
        r = run_cli("variational-check", "--session", THOMAS, "--format", fmt)
        assert r.returncode == 1
        lines = r.stdout.splitlines()
        assert [line for line in lines if "witness" in line] == [
            prefix + line for line in (
                "witness.dependent: u",
                "witness.derivative: ",
                "witness.difference: 2*gamma^2*D[u,t]*D[u,x]"
                " + 2*beta*gamma*D[u,t] + 2*alpha*gamma*D[u,x]",
                "witness.equation: thomas",
                "witness.latex: 2 \\gamma^2 u_{t} u_{x}"
                "+2 \\beta \\gamma u_{t}+2 \\alpha \\gamma u_{x}")]
        assert "{'" not in r.stdout

    def test_variational_check_with_arguments_exits_2(self):
        r = run_cli("variational-check", "bogus", "x=u", "--session", WAVE)
        assert r.returncode == 2, r.stderr
        assert r.stdout == ("command: error\nstatus: error\n"
                            "detail: variational-check takes no arguments\n")
        assert r.stderr == ""

    def test_run_with_arguments_exits_2(self):
        r = run_cli("run", "bogus", "--session", WAVE)
        assert r.returncode == 2, r.stderr
        assert r.stdout == ("command: error\nstatus: error\n"
                            "detail: run takes no arguments\n")
        assert r.stderr == ""

    def test_run_variational_check_with_argument_exits_2(self, tmp_path):
        path = tmp_path / "vc.cl"
        path.write_text(Path(WAVE).read_text() + "cmd variational-check foo;\n")
        r = run_cli("run", "--session", str(path))
        assert r.returncode == 2, r.stderr
        assert r.stdout.endswith("command: error\nstatus: error\n"
                                 "detail: variational-check takes no "
                                 "arguments\n"), r.stdout
        assert r.stderr == ""

    def test_parse_error_exits_2(self):
        r = run_cli("symmetry-check", "char=D[u,]", "--session", WAVE)
        assert r.returncode == 2

    def test_unknown_command_exits_2(self):
        r = run_cli("frobnicate", "--session", WAVE)
        assert r.returncode == 2

    def test_missing_session_exits_2(self):
        r = run_cli("variational-check")
        assert r.returncode == 2

    def test_unknown_name_exits_2(self):
        r = run_cli("symmetry-check", "nosuch", "--session", WAVE)
        assert r.returncode == 2

    @pytest.mark.parametrize("args", [("adjoint-check", "o=D[u,x]"),
                                      ("ansatz", "multiplier", "b=D[u,x]")])
    def test_wrong_component_count_exits_2(self, tmp_path, args):
        two = tmp_path / "two.cl"
        two.write_text(
            "indep t x;\ndep u w;\n"
            "eq eqU: D[u,t] - D[w,x] = 0 leading D[u,t];\n"
            "eq eqW: D[w,t] - D[u,x] = 0 leading D[w,t];\n")
        r = run_cli(*args, "--session", str(two))
        assert r.returncode == 2, r.stderr
        assert "characteristic has 1 components, system has 2" in r.stdout

    def test_inline_generator_component_count_exits_2(self, tmp_path):
        two = tmp_path / "two.cl"
        two.write_text(
            "indep t x;\ndep u w;\n"
            "eq eqU: D[u,t] - D[w,x] = 0 leading D[u,t];\n"
            "eq eqW: D[w,t] - D[u,x] = 0 leading D[w,t];\n"
            "char m = (1, 0);\n")
        r = run_cli("conslaw", "eta=D[u,x]", "m", "--session", str(two))
        assert r.returncode == 2, r.stdout
        assert ("generator has 1 eta components, system has 2 dependent "
                "variables") in r.stdout

    def test_trivial_substitution_in_ansatz_basis_exits_2(self):
        r = run_cli("ansatz", "differential-substitution", "scaleChar",
                    "e=D[u,t,t]-u^2*D[u,x,x]-u*D[u,x]^2", "--session", WAVE)
        assert r.returncode == 2, r.stderr
        assert "trivial substitution" in r.stdout

    @pytest.mark.parametrize("target", ("symmetry", "adjoint-symmetry"))
    def test_trivial_direction_in_ansatz_basis_exits_2(self, target):
        # the second basis element is the equation itself, which vanishes
        # on solutions and would count as a nullspace direction
        r = run_cli("ansatz", target, "scaleChar",
                    "e=D[u,t,t]-u^2*D[u,x,x]-u*D[u,x]^2", "--session", WAVE)
        assert r.returncode == 2, r.stdout
        assert (f"basis element 2 vanishes on solutions: a trivial {target} "
                "direction") in r.stdout

    def test_zero_generator_exits_2(self):
        r = run_cli("conslaw", "eta=0", "--session", WAVE)
        assert r.returncode == 2, r.stderr
        assert "generator must have a nonzero component" in r.stdout

    def test_cyclic_system_exits_2(self, tmp_path):
        cyc = tmp_path / "cyclic.cl"
        cyc.write_text(
            "indep t x;\ndep u w;\n"
            "eq e1: D[u,t] - D[w,x] = 0 leading D[u,t];\n"
            "eq e2: D[w,x] - D[u,t] - u = 0 leading D[w,x];\n")
        r = run_cli("variational-check", "--session", str(cyc))
        assert r.returncode == 2, r.stderr
        assert "reduction did not terminate" in r.stdout

    def test_non_utf8_session_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cl"
        bad.write_bytes(b"indep t x;\xff\xfe\x80 dep u;\n")
        r = run_cli("run", "--session", str(bad))
        assert r.returncode == 2, r.stderr
        assert "can't decode" in r.stdout and "Traceback" not in r.stderr

    @pytest.mark.parametrize("expr, col", [("u^\u00b2", 12), ("\u00b2*u", 10)])
    def test_non_ascii_digit_exits_2(self, tmp_path, expr, col):
        # str.isdigit() takes '\u00b2', int() does not
        path = tmp_path / "digit.cl"
        path.write_text("indep t x;\ndep u;\neq e: D[u,t] = D[u,x];\n"
                        f"char c = {expr};\ncmd symmetry-check c;\n",
                        encoding="utf-8")
        r = run_cli("run", "--session", str(path))
        assert r.returncode == 2, r.stderr
        assert f"4:{col}: unexpected character" in r.stdout
        assert r.stderr == ""

    def test_bad_inline_argument_exits_2_before_any_report(self, tmp_path):
        # inline arguments are resolved with the session, before `run`
        # runs its first command
        text = Path(WAVE).read_text()
        path = tmp_path / "inline.cl"
        path.write_text(text + "cmd symmetry-check eta=w*u;\n")
        r = run_cli("run", "--session", str(path))
        assert r.returncode == 2, r.stderr
        line = len(text.splitlines()) + 1
        assert r.stdout.startswith("command: error\n"), r.stdout
        assert f"detail: {line}:24: unknown symbol 'w'" in r.stdout
        assert "variational-check" not in r.stdout

    NESTED = {
        "parentheses": lambda n: "(" * n + "D[u,t]" + ")" * n,
        "signs": lambda n: "-" * n + "D[u,t]",
        "powers": lambda n: "(" * n + "D[u,t]" + ")^1" * n,
        "exp": lambda n: "exp(" * n + "D[u,t]" + ")" * n,
    }

    @pytest.mark.parametrize("shape", ["parentheses", "signs", "powers"])
    def test_nesting_100_levels_parses(self, shape):
        r = run_cli("symmetry-check", "c=" + self.NESTED[shape](100),
                    "--session", WAVE)
        assert r.returncode == 0, r.stdout + r.stderr

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_nesting_1000_levels_exits_2(self, shape):
        r = run_cli("symmetry-check", "c=" + self.NESTED[shape](1000),
                    "--session", WAVE)
        assert r.returncode == 2, r.stderr
        assert "nested more than 128 levels deep" in r.stdout
        assert "1:" in r.stdout and "Traceback" not in r.stderr

    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_flat_chain_runs(self, tmp_path, op, n):
        # a flat chain parses to a left-nested tree as deep as it is long
        text = ("indep t x;\ndep u;\neq e: D[u,t] - D[u,x] = 0;\n"
                f"char c = {op.join(['u'] * n)};\ncmd symmetry-check c;\n")
        chain = tmp_path / "chain.cl"
        chain.write_text(text)
        r = run_cli("run", "--session", str(chain))
        assert r.returncode == 0, r.stdout + r.stderr[-2000:]
        assert "status: zero" in r.stdout
        u = jet("u")
        assert load_session(text).chars["c"] == (
            (u.scale(n) if op == "+" else u ** n),)

    @pytest.mark.parametrize("fmt, status", [
        ("json", '"status": "zero"'), ("text", "status: zero"),
        ("latex", "% status: zero")])
    def test_huge_exponent_prints(self, tmp_path, fmt, status):
        # a term's display key once listed each factor's key once per unit
        # of its exponent: 10^19 overflowed, 10^8 built an 800 MB list
        path = tmp_path / "huge.cl"
        path.write_text("indep t x;\ndep u;\neq e: D[u,t] = D[u,x];\n"
                        "vector v = (u^10000000000000000000, "
                        "-u^10000000000000000000);\ncmd verify v;\n")
        r = run_cli("run", "--session", str(path), "--format", fmt)
        assert r.returncode == 0, r.stdout + r.stderr[-2000:]
        assert r.stderr == ""
        assert status in r.stdout
        assert "u^9999999999999999999" in r.stdout \
            or "u^{9999999999999999999}" in r.stdout

    def test_not_selfadjoint_point_substitution_is_nonzero(self, tmp_path):
        path = tmp_path / "sa.cl"
        path.write_text("indep t x;\ndep u;\neq wave: D[u,t,t] - "
                        "u^2*D[u,x,x] - u*D[u,x]^2 = 0 leading D[u,t,t];\n"
                        "char c = u;\ncmd selfadjoint-check c expect nonzero;\n")
        r = run_cli("run", "--session", str(path))
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stdout == (
            "command: selfadjoint-check\nstatus: nonzero\n"
            "detail: not nonlinearly self-adjoint with point substitution\n"
            "expected: nonzero (satisfied)\n")
        assert r.stderr == ""

    def test_wrong_substitution_class_exits_2(self):
        r = run_cli("selfadjoint-check", "sub1", "--session", THOMAS)
        assert r.returncode == 2
        assert "requires differential substitution" in r.stdout


class TestRules:
    def test_rule_closure_chains_through_other_functions(self, tmp_path):
        # eta2 is D_x of the symmetry exp(a t)(f_x - g/a); reducing f_xxt
        # needs the x-derivative of the rule, g_x included.
        chain = tmp_path / "chain.cl"
        chain.write_text(
            "indep t x;\ndep u;\nparam a nonzero;\nfunc f(x,t);\n"
            "func g(x);\neq e: D[u,t] = 0;\n"
            "rule D[f,x,t] -> -a*D[f,x] + g;\n"
            "char eta = exp(a*t)*(D[f,x] - g/a);\n"
            "char eta2 = exp(a*t)*(D[f,x,x] - D[g,x]/a);\n")
        for name in ("eta", "eta2"):
            r = run_cli("symmetry-check", name, "--session", str(chain))
            assert r.returncode == 0, r.stdout
            assert "status: zero" in r.stdout


class TestConcurrency:
    def test_shared_session_from_four_threads(self):
        """Four threads run every command of a session on one shared
        system, from cold replacement and rule caches and a cold
        per-system memo, each in its own order; each JSON report equals
        the sequential one.  The sessions are Thomas and fifth-order KdV,
        whose `conslaw` and `multiplier-check` commands fill the memo's
        variational entries."""
        kdv5 = PKG_ROOT / "perfbench" / "sessions" / "kdv5-conslaw.cl"
        for path, n in ((THOMAS, 12), (kdv5, 11)):
            self._four_threads(Path(path).read_text(encoding="utf-8"), n)

    @staticmethod
    def _four_threads(text, commands):
        def reports(session, order):
            return {i: emit(run_session_command(session, session.commands[i]),
                            "json") for i in order}

        n = len(load_session(text).commands)
        sequential = reports(load_session(text), range(n))
        shared = load_session(text)
        start = threading.Barrier(4)

        def worker(shift):
            start.wait(timeout=60)
            return reports(shared, [(k + shift) % n for k in range(n)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch threads often
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(worker, (0, 3, 6, 9), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert n == commands
        for got in results:
            assert got == sequential


class TestCorpusRuns:
    @pytest.mark.parametrize("session", [WAVE, THOMAS, KG],
                             ids=lambda path: Path(path).name)
    def test_full_session_exits_0(self, session):
        r = run_cli("run", "--session", session)
        assert r.returncode == 0, r.stdout + r.stderr

    def test_verify_failure_serializes_residual(self, tmp_path):
        bad = tmp_path / "bad_vec.cl"
        bad.write_text(
            "indep t x;\ndep u;\n"
            "eq wave: D[u,t,t] - u^2*D[u,x,x] - u*D[u,x]^2 = 0 "
            "leading D[u,t,t];\n"
            "vector wrong = (D[u,t], D[u,x]);\n")
        r = run_cli("verify", "wrong", "--session", str(bad),
                    "--format", "json")
        assert r.returncode == 1
        doc = validate(json.loads(r.stdout))
        assert doc["status"] == "nonzero"
        assert doc["residuals"][0]["expr"] != "0"

    def test_identity_is_zero_only_without_a_remainder(self):
        session = load_session(
            "indep t x;\ndep u;\neq heat: D[u,t] = D[u,x,x];\n"
            "vector v = (u, 0);\nvector w = (D[u,x], -D[u,t]);\n"
            "cmd verify v expect nonzero;\ncmd verify w;\n")
        v, w = (run_session_command(session, c) for c in session.commands)
        assert (v.status, w.status) == ("nonzero", "zero")
        lines = emit(v, "text").splitlines()
        assert "identity: div(C) =" in lines
        assert "  + remainder: D[u,t]" in lines
        assert "identity: div(C) = 0 (on solutions)" in \
            emit(w, "text").splitlines()

    def test_expectation_mismatch_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cl"
        bad.write_text(
            "indep t x;\ndep u;\n"
            "eq wave: D[u,t,t] - u^2*D[u,x,x] - u*D[u,x]^2 = 0 "
            "leading D[u,t,t];\n"
            "char scaleChar = u - x*D[u,x];\n"
            "cmd multiplier-check scaleChar;\n")   # expects zero, gets nonzero
        r = run_cli("run", "--session", str(bad))
        assert r.returncode == 1


class TestUnwritableOutput:
    def test_closed_stdout_exits_2_and_writes_nothing_more(self, monkeypatch,
                                                           capsys):
        class ClosedPipe(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                raise BrokenPipeError(32, "Broken pipe")
        out = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["run", "--session", WAVE]) == 2
        assert out.writes == 1
        assert capsys.readouterr().err == ""

    def test_pipe_without_reader_leaves_stderr_empty(self):
        # the interpreter's flush of stdout at exit must not fail either
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "conslaw_kit", "run", "--session", WAVE],
                stdout=write_end, stderr=subprocess.PIPE, timeout=180,
                env=child_env({"PATH": "/usr/bin:/bin",
                               "PYTHONPATH": str(PKG_ROOT / "src")}))
        finally:
            os.close(write_end)
        assert r.returncode == 2 and r.stderr == b""

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_coefficient_too_long_to_print_exits_2(self, fmt, tmp_path):
        path = tmp_path / "big.cl"
        path.write_text("indep t x;\ndep u;\neq e: D[u,t] = D[u,x];\n"
                        "vector v = (2^20000*u, 0);\ncmd verify v;\n")
        r = run_cli("run", "--session", str(path), "--format", fmt)
        assert r.returncode == 2 and r.stderr == ""
        if fmt == "json":
            doc = validate(json.loads(r.stdout))
            assert doc["status"] == "error" and "4300" in doc["detail"]
        else:
            # the message reaches LaTeX too, as a comment line
            assert "status: error" in r.stdout
            assert "more than 4300 digits" in r.stdout


class TestJson:
    def test_deterministic_byte_for_byte(self):
        a = run_cli("adjoint-check", "sub1", "--session", THOMAS,
                    "--format", "json")
        b = run_cli("adjoint-check", "sub1", "--session", THOMAS,
                    "--format", "json")
        assert a.stdout == b.stdout
        validate(json.loads(a.stdout))

    @pytest.mark.parametrize("args", [
        ("variational-check", "--session", WAVE),
        ("symmetry-check", "scaleChar", "--session", WAVE),
        ("multiplier-check", "scaleChar", "--session", WAVE),
        ("conslaw", "timeTrans", "scaleChar", "--session", WAVE),
        ("selfadjoint-check", "subB", "--session", THOMAS),
        ("ansatz", "adjoint-symmetry", "b1", "b2", "b3", "b4", "b5", "b6",
         "b7", "b8", "--session", THOMAS),
    ])
    def test_reports_validate_against_schema(self, args):
        r = run_cli(*args, "--format", "json")
        assert r.returncode in (0, 1)
        doc = validate(json.loads(r.stdout))
        assert doc["schema_version"] == 1

    def test_status_vocabulary(self):
        r = run_cli("symmetry-check", "timeChar", "--session", WAVE,
                    "--format", "json")
        assert json.loads(r.stdout)["status"] == "zero"
        r = run_cli("symmetry-check", "char=x*u", "--session", WAVE,
                    "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["status"] == "nonzero"
        assert doc["residuals"][0]["expr"] != "0"


# SHA-256 of each benchmark workload's text and LaTeX report streams,
# which the benchmark does not pin; JSON is pinned in perfbench/workloads.py
OTHER_DIGESTS = {
    ("text", "corpus"):
        "b120e969bb00865ad9ea6c06840a0243626704770072bc4fa70b0bbf722ec612",
    ("text", "kdv-multiplier-ansatz"):
        "bef85f79254124b884fd2f79f93c6902aaca28fbc9d619c74be048a297f7a479",
    ("text", "kdv5-conslaw"):
        "4ab9c100d4f2200e44e954cec5355445bb9b4b97e4de1812cc79654a355f2b63",
    ("latex", "corpus"):
        "6752c7c7f8f8e7d2d876044c1c6c91baa95ce5b3c738717117aa94b3786dd2eb",
    ("latex", "kdv-multiplier-ansatz"):
        "38ad3cdaaa7d93eb9c4bb241142af8642467ff3ac2e620e2a1f4406e34d1fc43",
    ("latex", "kdv5-conslaw"):
        "667d4d4537eedf1f6e61383b9eef8ccc66d0d1fe4c0296857c0c3a1071d9df9b",
}


class TestBenchDigests:
    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    @pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
    def test_report_stream_matches_pinned_digest(self, name, fmt, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("CONSLAW_COLOR", "0")
        workload = BENCH_WORKLOADS[name]
        for spec in workload.sessions:
            code = cli.main(["run", "--session", str(PKG_ROOT / spec.path),
                             "--format", fmt])
            assert code == 0, spec.path
        stream = capsys.readouterr().out
        want = workload.digest if fmt == "json" else OTHER_DIGESTS[fmt, name]
        assert hashlib.sha256(stream.encode("utf-8")).hexdigest() == want


# SHA-256 of the report streams of tests/data/parametric.cl: printed
# denominators, polynomial coefficients over a monomial, and side
# conditions, which no benchmark session prints
PARAMETRIC = PKG_ROOT / "tests" / "data" / "parametric.cl"
PARAMETRIC_DIGESTS = {
    "json": "85c303a0e082735cf65aa618511baf46b5f2e950526fec04021cd21f8c697193",
    "text": "395729b3165aad8fef7036137800db5b379b66f437a3de2e2ff115339c99259a",
    "latex": "9361cd5c028ab89755541b307da254d791b0894d8b364820477ea58483565ee4",
}


@pytest.mark.parametrize("fmt", sorted(PARAMETRIC_DIGESTS))
def test_parametric_stream_matches_pinned_digest(fmt, capsys, monkeypatch):
    monkeypatch.setenv("CONSLAW_COLOR", "0")
    assert cli.main(["run", "--session", str(PARAMETRIC),
                     "--format", fmt]) == 0
    stream = capsys.readouterr().out
    assert "/g^" in stream or "{g^" in stream
    assert hashlib.sha256(stream.encode("utf-8")).hexdigest() == \
        PARAMETRIC_DIGESTS[fmt]


# SHA-256 of the report streams of tests/data/thomas-scale.cl, the Thomas
# adjoint-symmetry ansatz over 71 elements, as they were when every
# parametric system went through dense Bareiss elimination
THOMAS_SCALE = PKG_ROOT / "tests" / "data" / "thomas-scale.cl"
THOMAS_SCALE_DIGESTS = {
    "json": "d5acd350c3185e4653e86b4b9330655e8ef0e1ab0dce7e564de51213ebe348a3",
    "text": "5636e4d04283cb66e6e77b59750b2fde712d6aa4cca76779fce0ed6e156de41c",
    "latex": "bb00f60f7e4f3694fcb13ab81584e2eb62e29bd9c30dc65443b9339e5912cbaa",
}


@pytest.mark.parametrize("fmt", sorted(THOMAS_SCALE_DIGESTS))
def test_thomas_scale_stream_matches_pinned_digest(fmt, capsys, monkeypatch):
    monkeypatch.setenv("CONSLAW_COLOR", "0")
    assert cli.main(["run", "--session", str(THOMAS_SCALE),
                     "--format", fmt]) == 0
    stream = capsys.readouterr().out
    assert hashlib.sha256(stream.encode("utf-8")).hexdigest() == \
        THOMAS_SCALE_DIGESTS[fmt]


def _exact_div_calls(monkeypatch) -> list:
    """Records the divisor of every `Poly.exact_div` call, which only the
    solver's fraction-free steps make."""
    calls = []
    exact_div = Poly.exact_div

    def spy(self, other):
        calls.append(other)
        return exact_div(self, other)
    monkeypatch.setattr(Poly, "exact_div", spy)
    return calls


@pytest.mark.parametrize("session", [THOMAS_SCALE, THOMAS],
                         ids=["thomas-scale", "thomas"])
def test_unit_pivot_sessions_never_reach_bareiss(session, monkeypatch):
    """Every pivot of these ansatz systems is a unit (a rational times a
    monomial in nonzero parameters), so the unit steps solve them alone
    and no fraction-free step runs."""
    calls = _exact_div_calls(monkeypatch)
    assert cli.main(["run", "--session", str(session)]) == 0
    assert calls == []


# SHA-256 of the report streams of tests/data/fallback.cl, the heat
# equation's symmetry ansatz over eight elements in four generic
# parameters, solved by fraction-free Gauss-Jordan elimination
FALLBACK = PKG_ROOT / "tests" / "data" / "fallback.cl"
FALLBACK_DIGESTS = {
    "json": "38f4c7cc261f26d95f10bd9b8682fa1ee123ef7d66e109807bbf896810653d29",
    "text": "99afb36b473c10c9336c27cace1f26ad8c744f7a6b2bcd9b1e0c18f0b8ecd3d7",
    "latex": "9dd723442a1a86bb1ff89524db115d33dd2ce4b9608279fdca964179de80f584",
}


@pytest.mark.parametrize("fmt", sorted(FALLBACK_DIGESTS))
def test_fallback_stream_matches_pinned_digest(fmt, capsys, monkeypatch):
    monkeypatch.setenv("CONSLAW_COLOR", "0")
    assert cli.main(["run", "--session", str(FALLBACK),
                     "--format", fmt]) == 0
    stream = capsys.readouterr().out
    assert hashlib.sha256(stream.encode("utf-8")).hexdigest() == \
        FALLBACK_DIGESTS[fmt]


# SHA-256 of the report streams of tests/data/coeff-cancel.cl, the KdV
# equation with coefficients that become integers only after
# cancellation (halves that sum to 1, a*u/a), as they were when every
# term coefficient was a `Poly`
COEFF_CANCEL = PKG_ROOT / "tests" / "data" / "coeff-cancel.cl"
COEFF_CANCEL_DIGESTS = {
    "json": "abc075f6252f50e6d9bcd70a592c0146da1194d08286394396884ffd1316e5ef",
    "text": "5202ad897a17f23e9c7dcb9d4e039461d153b72819abb7ac1e11f8fe3cd9823e",
    "latex": "1e1702a1ba493829a1ac59cab8aa2ae0cd70b5656f13e6bb5304652e122ae0e9",
}


@pytest.mark.parametrize("fmt", sorted(COEFF_CANCEL_DIGESTS))
def test_coeff_cancel_stream_matches_pinned_digest(fmt, capsys, monkeypatch):
    monkeypatch.setenv("CONSLAW_COLOR", "0")
    assert cli.main(["run", "--session", str(COEFF_CANCEL),
                     "--format", fmt]) == 0
    stream = capsys.readouterr().out
    assert hashlib.sha256(stream.encode("utf-8")).hexdigest() == \
        COEFF_CANCEL_DIGESTS[fmt]


def test_fallback_session_reaches_bareiss(capsys, monkeypatch):
    """A pivot of this ansatz system is not a unit, so the fraction-free
    elimination solves it, under the side conditions that the
    back-substituting Bareiss elimination reported too, each stated once
    up to sign."""
    calls = _exact_div_calls(monkeypatch)
    assert cli.main(["run", "--session", str(FALLBACK),
                     "--format", "json"]) == 0
    assert calls
    doc = validate(json.loads(capsys.readouterr().out))
    assert doc["side_conditions"] == [
        "-a - b", "a*c + b*c",
        "a*b*c + 2*a*c^2 + 2*b*c^2 + b^2*c",
        "-a*b*c^2 - 2*a*c^3 - 2*b*c^3 - b^2*c^2",
        "8*b*c^3 + 2*b^2*c^2 + 8*c^4"]


class TestLatexOutput:
    def test_thomas_example1_contains_paper_exponent(self):
        r = run_cli("conslaw", "spaceTrans", "sub1", "--session", THOMAS,
                    "--format", "latex")
        assert r.returncode == 0
        assert "e^{2(\\gamma u+\\alpha t+\\beta x)}" in r.stdout

    def test_latex_renders_components(self):
        r = run_cli("conslaw", "timeTrans", "scaleChar", "--session", WAVE,
                    "--format", "latex")
        assert "C^{t} =" in r.stdout and "C^{x} =" in r.stdout

    def test_latex_carries_notes_as_comments(self, tmp_path):
        path = tmp_path / "heat.cl"
        path.write_text("indep t x;\ndep u;\nparam a b;\n"
                        "eq e: D[u,t] = D[u,x,x] + a*u;\n"
                        "char b1 = (a - b)*x;\nchar b2 = u;\nchar b3 = b*x*u;\n"
                        "cmd ansatz symmetry b1 b2 b3;\n")
        r = run_cli("run", "--session", str(path), "--format", "latex")
        assert r.returncode == 0 and r.stderr == ""
        lines = r.stdout.splitlines()
        assert "% detail: nullspace dimension 1" in lines
        assert "% nullspace: (0, (a - b), 0)" in lines
        for cond in ("a*b - a^2", "-a*b^2 + a^2*b"):
            assert f"% side condition (assumed nonzero): {cond}" in lines
        text = run_cli("run", "--session", str(path), "--format", "text")
        assert lines == [f"% {line}" for line in text.stdout.splitlines()]

    def test_every_line_of_a_note_is_a_comment(self):
        rep = Report(command="error", status="error", detail="one\ntwo\rthree",
                     extra={"notes": ["four\nfive"]})
        assert emit(rep, "latex").splitlines() == [
            "% command: error", "% status: error", "% detail: one", "% two",
            "% three", "% notes: four", "% five"]


class TestColorControl:
    def test_color_forced_on(self):
        r = subprocess.run(
            [sys.executable, "-m", "conslaw_kit", "variational-check",
             "--session", WAVE],
            capture_output=True, text=True,
            env=child_env({"CONSLAW_COLOR": "1", "PATH": "/usr/bin:/bin",
                           "PYTHONPATH": str(PKG_ROOT / "src")}))
        assert "\x1b[32m" in r.stdout

    def test_color_off_by_default_when_piped(self):
        r = run_cli("variational-check", "--session", WAVE)
        assert "\x1b[" not in r.stdout


class TestTimeout:
    def test_timeout_exits_2(self):
        r = run_cli("conslaw", "timeTrans", "sub3", "--session", THOMAS,
                    "--timeout", "0.000001")
        assert r.returncode == 2
        assert "timeout" in r.stdout

    def test_timeout_reaches_into_a_large_product(self, tmp_path):
        # 1.4 million terms: without a checkpoint inside the product this
        # ran for more than a minute
        path = tmp_path / "power.cl"
        path.write_text("indep t x;\ndep u;\neq e: D[u,t] = D[u,x];\n"
                        "char c = (u+x+t+D[u,x])^200;\ncmd symmetry-check c;\n")
        start = time.monotonic()
        r = run_cli("run", "--session", str(path), "--timeout", "1",
                    timeout=60)
        elapsed = time.monotonic() - start
        assert r.returncode == 2, r.stderr
        assert "timeout" in r.stdout and r.stderr == ""
        assert elapsed < 15, elapsed

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "soon"])
    def test_unusable_timeout_rejected(self, value):
        r = run_cli("variational-check", "--session", WAVE,
                    f"--timeout={value}")
        assert r.returncode == 2
        assert f"argument --timeout: invalid seconds value: '{value}'" \
            in r.stderr
