#!/usr/bin/env python3
"""conslaw-kit benchmark: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the engine is imported from `src/`.
Each run

1. starts fresh interpreters that import `conslaw_kit.cli` and load the
   workload's sessions (`setup_s`, the median over several);
2. runs `conslaw-kit run --format json` on every session in one fresh
   process (`peak_rss_mb`, that process's peak RSS, and the report
   stream);
3. runs the commands in-process on freshly loaded sessions, in an order
   drawn from the seed, and emits each report as JSON in declared order,
   repeatedly for `--seconds` (`run_s`, the median repetition);
4. with `--trace 1`, spends half of `--seconds` on traced repetitions
   (the per-layer metrics, medians over repetitions).

Every command is checked against the hand-written expectation in
`workloads.py`, and every report stream, whatever the order or tracing,
must hash to the workload's recorded SHA-256.  Times are nominal seconds,
rescaled by a speed probe (see reference.py).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
ones.  The lines before it print every metric with its unit.  Exit code
0: every check passed; 1: a check failed; 2: the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import SpeedProbe, nominal
from spans import METRIC_UNITS, Tracer
from workloads import WORKLOADS, SessionSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
CLI_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **METRIC_UNITS,
    "dsl.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run: no engine sources, or a child failed."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> tuple[int, str, str]:
    """Run `sys.executable args` from the root: (exit code, stdout,
    stderr)."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, encoding="utf-8",
                          errors="replace")
    return proc.returncode, proc.stdout, proc.stderr


def from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup(paths: list[str]) -> list[dict]:
    """One warm-up child, then SETUP_SAMPLES timed ones."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        code, out, err = run_child([str(HERE / "setup_child.py"), *paths])
        if code != 0:
            raise BenchError(f"set-up child exited {code}:\n{err}")
        sample = json.loads(out.splitlines()[-1])
        if not from_src(sample["module"]):
            raise BenchError(f"set-up child imported {sample['module']}")
        samples.append(sample)
    return samples[1:]


def run_cli(paths: list[str]) -> tuple[str, int, list[str]]:
    """`conslaw-kit run` on every session in one fresh process (see
    rss_child.py): (report stream, its peak RSS in KiB, problems)."""
    code, out, err = run_child([str(HERE / "rss_child.py"),
                                str(CLI_TIMEOUT_S), *paths])
    try:
        probe = json.loads(err.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"memory child exited {code}:\n{err[-2000:]}")
    problems = [f"conslaw-kit run {path} exited {c}"
                for path, c in zip(paths, probe["codes"]) if c != 0]
    return out, probe["vmhwm_kib"], problems


def command_tokens(cmd) -> list[str]:
    return [cmd.name] + [v if isinstance(v, str) else str(label)
                         for label, v in cmd.args]


def attempt(dsl, session, index: int, spec: SessionSpec, tally: Tally):
    """Run one command and check it against its expectation; the report,
    or None if the command raised."""
    tally.attempted += 1
    cmd, want = session.commands[index], spec.expect[index]
    where = f"{spec.path} command {index + 1}"
    try:
        rep = dsl.run_session_command(session, cmd)
    except Exception as ex:  # any engine failure is a failed operation
        tally.fail(f"{where} raised {type(ex).__name__}: {ex}")
        return None
    want_tokens = want.command.split()
    if command_tokens(cmd)[:len(want_tokens)] != want_tokens:
        tally.fail(f"{where} is not {want.command!r}")
    elif rep.status != want.status:
        tally.fail(f"{where} ({want.command}) status {rep.status}, "
                   f"expected {want.status}")
    elif (want.dimension is not None
          and rep.extra.get("dimension") != want.dimension):
        tally.fail(f"{where} ({want.command}) dimension "
                   f"{rep.extra.get('dimension')}, expected {want.dimension}")
    return rep


def repetition(dsl, texts: list[str], specs, rng: random.Random,
               tally: Tally) -> tuple[SpeedProbe, str]:
    """Load fresh sessions, run their commands in a seeded order and emit
    the reports in declared order: (the probe around running and
    emitting, the report stream)."""
    sessions = [dsl.load_session(text) for text in texts]
    for spec, session in zip(specs, sessions):
        if len(session.commands) != len(spec.expect):
            raise BenchError(f"{spec.path} has {len(session.commands)} "
                             f"commands, {len(spec.expect)} expectations")
    chunks = []
    with SpeedProbe() as probe:
        for spec, session in zip(specs, sessions):
            order = list(range(len(session.commands)))
            rng.shuffle(order)
            reports = [None] * len(order)
            for i in order:
                reports[i] = attempt(dsl, session, i, spec, tally)
            chunks.extend(dsl.emit(rep, "json") for rep in reports
                          if rep is not None)
    return probe, "".join(chunks)


def repeat(budget_s: float, body) -> list:
    """Call body() until budget_s has passed; at least once."""
    results, start = [], perf_counter()
    while not results or perf_counter() - start < budget_s:
        results.append(body())
    return results


def digest(stream: str) -> str:
    return hashlib.sha256(stream.encode("utf-8")).hexdigest()


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def import_engine():
    if not (SRC / "conslaw_kit" / "__init__.py").is_file():
        raise BenchError(f"no conslaw_kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conslaw_kit.dsl as dsl
    if not from_src(dsl.__file__):
        raise BenchError(f"imported {dsl.__file__}, not the checkout's")
    return dsl


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    specs = workload.sessions
    paths = [spec.path for spec in specs]
    dsl = import_engine()
    texts = [(ROOT / p).read_text(encoding="utf-8") for p in paths]

    setup = measure_setup(paths)
    cli_stream, rss_kib, problems = run_cli(paths)
    streams = {"cli": cli_stream}

    rng, tally = random.Random(seed), Tally()
    reps = repeat(seconds / 2 if trace else seconds,
                  lambda: repetition(dsl, texts, specs, rng, tally))
    streams.update((f"rep {i}", s) for i, (_, s) in enumerate(reps))
    probes = [p for p, _ in reps]

    metrics = {
        "setup_s": statistics.median(
            nominal(s["import_s"] + s["load_s"], s["reference_s"])
            for s in setup),
        "run_s": statistics.median(p.nominal_s for p in probes),
        "peak_rss_mb": rss_kib / 1024,
    }
    if trace:
        def traced():
            with Tracer() as tracer:
                probe, stream = repetition(dsl, texts, specs, rng, tally)
            # spans also hold the probe's handler time: spread it evenly
            scale = probe.nominal_s / probe.total_s
            layer = {k: v * scale if PER_LAYER_UNITS[k] == "s" else v
                     for k, v in tracer.metrics().items()}
            return probe, stream, layer
        runs = repeat(seconds / 2, traced)
        streams.update((f"traced rep {i}", s)
                       for i, (_, s, _) in enumerate(runs))
        metrics.update(medians([layer for _, _, layer in runs]))
        metrics["dsl.import_s"] = statistics.median(
            nominal(s["import_s"], s["reference_s"]) for s in setup)
        metrics["trace.overhead_ratio"] = statistics.median(
            p.nominal_s for p, _, _ in runs) / metrics["run_s"]
        metrics["fail_ratio"] = tally.failed / tally.attempted

    problems += tally.problems
    problems += [f"{label} report stream hashes to {digest(s)}, "
                 f"expected {workload.digest}"
                 for label, s in streams.items()
                 if digest(s) != workload.digest]
    return {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": problems,
        "setup_samples": len(setup),
        "run_samples": len(reps),
        "run_wall_s": statistics.median(p.wall_s for p in probes),
        "reference_s": statistics.median(
            statistics.median(p.samples) for p in probes),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        res = bench(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2

    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    print(f"workload {ns.workload}  seed {ns.seed}  "
          f"setup_s samples {res['setup_samples']}  "
          f"run_s samples {res['run_samples']}  "
          f"median wall {res['run_wall_s']:.4f} s  "
          f"median reference loop {res['reference_s'] * 1e3:.2f} ms")
    for key, value in res["metrics"].items():
        print(f"  {key:32} {value:14.6g} {units[key]}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {res['correct']}")
    for problem in res["problems"]:
        print(f"  FAIL: {problem}")
    shown = PER_LAYER_UNITS if ns.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": shown[k]}
                    for k in shown},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
