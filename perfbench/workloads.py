"""Benchmark workloads and their hand-written expectations.

A workload is a list of session files, run in this order.  Each session
lists one expectation per `cmd`, in declared order: the leading tokens of
the command, the expected report status and, for `ansatz`, the expected
nullspace dimension.  Paths are relative to the root of the checkout.
"""

from __future__ import annotations

from dataclasses import dataclass

ZERO, NONZERO = "zero", "nonzero"


@dataclass(frozen=True)
class Expectation:
    command: str                 # leading tokens of the `cmd` statement
    status: str
    dimension: int | None = None  # ansatz nullspace dimension


@dataclass(frozen=True)
class SessionSpec:
    path: str
    expect: tuple[Expectation, ...]


@dataclass(frozen=True)
class Workload:
    sessions: tuple[SessionSpec, ...]
    digest: str   # SHA-256 of the JSON report stream, declared order


def _e(command: str, status: str = ZERO, dimension: int | None = None
       ) -> Expectation:
    return Expectation(command, status, dimension)


THOMAS = SessionSpec("src/conslaw_kit/corpus/thomas.cl", (
    _e("variational-check", NONZERO),
    _e("adjoint-check sub1"),
    _e("adjoint-check sub2"),
    _e("adjoint-check sub3"),
    _e("adjoint-check subB"),
    _e("selfadjoint-check subB"),
    _e("symmetry-check etaF"),
    _e("substitution-check sub3"),
    _e("conslaw spaceTrans sub1"),
    _e("conslaw etaF sub2"),
    _e("conslaw timeTrans sub3"),
    # the four-constant family of differential substitutions
    _e("ansatz adjoint-symmetry", ZERO, 4),
))

WAVE = SessionSpec("src/conslaw_kit/corpus/wave.cl", (
    _e("variational-check"),
    _e("verify energyVec"),
    _e("symmetry-check scaleChar"),
    _e("symmetry-check timeChar"),
    _e("adjoint-check scaleChar"),
    _e("substitution-check scaleChar"),
    _e("multiplier-check timeChar"),
    _e("multiplier-check spaceChar"),
    _e("multiplier-check scaleChar", NONZERO),
    _e("conslaw timeTrans scaleChar"),
))

KLEIN_GORDON = SessionSpec("src/conslaw_kit/corpus/klein-gordon.cl", (
    _e("variational-check"),
    _e("symmetry-check timeChar"),
    _e("adjoint-check timeChar"),
))

KDV_ANSATZ = SessionSpec("perfbench/sessions/kdv-multiplier-ansatz.cl", (
    # spanned by 1, u, u^2/2 + u_xx and x - t*u
    _e("ansatz multiplier", ZERO, 4),
))

KDV5 = SessionSpec("perfbench/sessions/kdv5-conslaw.cl", (
    _e("variational-check", NONZERO),
    _e("adjoint-check m1"),
    _e("multiplier-check m1"),
    _e("multiplier-check m2"),
    _e("multiplier-check m3"),
    _e("conslaw timeTrans m1"),
    _e("conslaw timeTrans m2"),
    _e("conslaw timeTrans m3"),
    _e("conslaw spaceTrans m1"),
    _e("conslaw spaceTrans m2"),
    _e("conslaw spaceTrans m3"),
))

WORKLOADS = {
    # the paper's examples: parameters, exponentials, opaque functions
    # under rules, and 12 commands sharing one system
    "corpus": Workload(
        (THOMAS, WAVE, KLEIN_GORDON),
        "5763d6a190d5546c37eddd649838859ebebf2cea484684dc180e21f06d0defa3"),
    # solver-bound: 56 unknowns, rational rows, no replacement calls
    "kdv-multiplier-ansatz": Workload(
        (KDV_ANSATZ,),
        "ee45f7671221384d38a31f20ca487711b1d25f79141b88722b3957545d3fa87f"),
    # order-5 reduction chains and formal-Lagrangian assembly, with no
    # solver and no parameters
    "kdv5-conslaw": Workload(
        (KDV5,),
        "d288a2601b3cbcab3b9bdad2c9c1f99f87ffac6d0f4acdc3da5da1a2036b969b"),
}
