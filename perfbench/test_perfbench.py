"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from spans import TRACED, Tracer, conslaw_modules
from workloads import NONZERO, THOMAS, WAVE, WORKLOADS, SessionSpec

DSL = run.import_engine()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings() -> dict:
    """Every value bound in a conslaw_kit module, in a dict table of one,
    or in the dict of a traced class, keyed by where it is bound."""
    out = {}
    owners = [(m.__name__, vars(m)) for m in conslaw_modules()]
    for _, module, path in TRACED:
        if "." in path:
            cls = getattr(sys.modules[module], path.partition(".")[0])
            owners.append((f"{module}.{cls.__name__}", vars(cls)))
    for owner, table in owners:
        for key, value in table.items():
            out[(owner, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    out[(owner, key, k)] = v
    return out


def _texts(specs) -> list[str]:
    return [(run.ROOT / s.path).read_text(encoding="utf-8") for s in specs]


def _once(specs, seed: int = 1) -> tuple[run.Tally, str]:
    tally = run.Tally()
    _, stream = run.repetition(DSL, _texts(specs), specs,
                               random.Random(seed), tally)
    return tally, stream


def test_tracer_restores_every_binding():
    before = _bindings()
    with Tracer() as tracer:
        inside = _bindings()
        _once((WAVE,))
    changed = {k for k in before if inside.get(k) is not before[k]}
    # imported-by-value names, dict tables and method aliases are all wrapped
    assert {("conslaw_kit.conslaw", "total_derivative"),
            ("conslaw_kit.conslaw", "e_decompose"),
            ("conslaw_kit.ansatz", "TARGETS", "multiplier"),
            ("conslaw_kit.expr.expression.Expr", "__radd__"),
            ("conslaw_kit.dsl", "load_session")} <= changed
    assert tracer.calls["Expr.__add__"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("spec, field, wrong", [
    (WAVE, "status", NONZERO),      # variational-check is zero
    (THOMAS, "dimension", 5),       # the ansatz has dimension 4
], ids=["status", "dimension"])
def test_wrong_expectation_is_a_failed_operation(tmp_path, spec, field,
                                                 wrong):
    copy = tmp_path / "session.cl"
    shutil.copy(run.ROOT / spec.path, copy)
    index = 0 if field == "status" else len(spec.expect) - 1
    expect = list(spec.expect)
    expect[index] = replace(expect[index], **{field: wrong})
    bad = SessionSpec(str(copy), tuple(expect))

    tally, _ = _once((bad,))
    assert tally.attempted == len(expect)
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0

    tally, _ = _once((replace(spec, path=str(copy)),))
    assert tally.failed == 0


def test_report_stream_ignores_order_and_tracing():
    specs = WORKLOADS["corpus"].sessions[1:]    # wave and Klein-Gordon
    _, first = _once(specs, seed=1)
    _, second = _once(specs, seed=2)
    with Tracer():
        _, traced = _once(specs, seed=3)
    assert first == second == traced


def test_benchmark_json_names():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert [n for n in names if not NAME.fullmatch(n)] == []
    assert len(names) == len(set(names))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
