"""End-to-end demo runs over the built-in worked examples.

Each demo chains the stages that make sense for its setup (axiom checks,
hypothesis verification, solve, bound audit) and compares every stage
outcome against the documented expectation. Two demos expect a failure by
design: the premetric whose self-distance never vanishes, and the
square-first combiner that loses the dominance axiom for small inputs.
A demo succeeds only when all observations, including expected failures,
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contractions import ContractionSpec, check_F_axioms, verify_contraction
from .partial import PartialProblem, solve_partial, verify_corollary_hypothesis
from .registry import UnknownNameError, get_combiner, get_operator, get_phi, get_space
from .solver import SolveConfig, bound_audit, picard_solve
from .spaces import check_metric_axioms, check_partial_axioms

__all__ = ["DEMOS", "run_demo", "DemoResult"]


@dataclass
class DemoResult:
    demo_id: str
    stages: list

    @property
    def ok(self) -> bool:
        return all(s["ok"] for s in self.stages)

    def to_dict(self) -> dict:
        return {"demo": self.demo_id, "ok": self.ok, "stages": self.stages}


def _stage(name: str, expected: str, observed: str, detail: dict | None = None) -> dict:
    s = {"stage": name, "expected": expected, "observed": observed, "ok": expected == observed}
    if detail is not None:
        s["detail"] = detail
    return s


def _partial_axiom_stage(space_name: str, seed: int, samples: int) -> dict:
    space = get_space(space_name)
    report = check_partial_axioms(space.distance, space.domain, samples, seed)
    return _stage(
        "partial-axioms",
        "pass",
        "pass" if report.all_pass else "fail",
        report.to_dict(),
    )


def _demo_shifted_max(seed, samples, tol):
    return [_partial_axiom_stage("shifted_max_matrix", seed, samples)]


def _demo_absdiff_pair(seed, samples, tol):
    return [_partial_axiom_stage("absdiff_pair", seed, samples)]


def _demo_sum_premetric(seed, samples, tol):
    """Combined contraction on the coordinate-sum premetric, rate 1/2."""
    space = get_space("sum_premetric")
    T = get_operator("halving")
    phi = get_phi("coordinate_pair")
    F = get_combiner("sum")
    spec = ContractionSpec("plain", k=0.5)
    stages = []

    report = check_metric_axioms(space.distance, space.domain, samples, seed)
    self_zero = next(c for c in report.checks if c.axiom == "self-distance-zero")
    stages.append(
        _stage(
            "metric-axioms-self-distance",
            "fail",  # the self-distance never vanishes away from zero
            self_zero.verdict,
            report.to_dict(),
        )
    )

    result = verify_contraction(
        spec, T, space.distance, phi, F, space.domain, samples, seed
    )
    stages.append(
        _stage(
            "contraction-verify",
            "pass",
            "pass" if result.certified else "fail",
            result.to_dict(),
        )
    )

    cert = picard_solve(
        T, space.distance, phi, F, spec, SolveConfig(x0=1.0, tol=tol, domain=space.domain)
    )
    solved = cert.converged and cert.residual_phi <= tol
    stages.append(_stage("solve", "pass", "pass" if solved else "fail", cert.to_dict()))

    audit = bound_audit(cert, space.distance)
    stages.append(
        _stage(
            "bound-audit",
            "pass",
            "pass" if audit["passed"] else "fail",
            {"max_violation": audit["max_violation"]},
        )
    )
    return stages


def _demo_diag_matrix(seed, samples, tol):
    """Weak contraction with the square-first combiner on paired coordinates."""
    space = get_space("diag_absdiff_matrix")
    T = get_operator("halving")
    phi = get_phi("spread_matrix")
    F = get_combiner("square_first")
    spec = ContractionSpec("weak", k=0.5, alpha=4.0)
    stages = []

    f_report = check_F_axioms(F, "matrix", 2, samples, seed)
    dominance = next(c for c in f_report.checks if c.axiom == "dominance")
    stages.append(
        _stage(
            "combiner-dominance",
            "fail",  # squaring shrinks small positive arguments below themselves
            dominance.verdict,
            f_report.to_dict(),
        )
    )

    m_report = check_metric_axioms(space.distance, space.domain, samples, seed)
    stages.append(
        _stage(
            "metric-axioms",
            "pass",
            "pass" if m_report.all_pass else "fail",
            m_report.to_dict(),
        )
    )

    result = verify_contraction(
        spec, T, space.distance, phi, F, space.domain, samples, seed
    )
    stages.append(
        _stage(
            "contraction-verify",
            "pass",
            "pass" if result.certified else "fail",
            result.to_dict(),
        )
    )

    cert = picard_solve(
        T,
        space.distance,
        phi,
        F,
        spec,
        SolveConfig(x0=np.array([1.0, 1.0]), tol=tol, domain=space.domain),
    )
    solved = cert.converged and cert.residual_phi <= tol
    stages.append(_stage("solve", "pass", "pass" if solved else "fail", cert.to_dict()))
    return stages


def _corollary_demo(spec: ContractionSpec, operator_name: str) -> Callable:
    def run(seed, samples, tol):
        space = get_space("max_unit_interval")
        problem = PartialProblem(space.distance, get_operator(operator_name), spec)
        stages = [_partial_axiom_stage("max_unit_interval", seed, samples)]

        result = verify_corollary_hypothesis(problem, space.domain, samples, seed)
        stages.append(
            _stage(
                "hypothesis-verify",
                "pass",
                "pass" if result.certified else "fail",
                result.to_dict(),
            )
        )

        solved = solve_partial(problem, SolveConfig(x0=1.0, tol=tol, domain=space.domain))
        stages.append(
            _stage(
                "solve",
                "pass",
                "pass" if solved.certified else "fail",
                {
                    "z": solved.certificate.to_dict()["z"],
                    "self_distance_norm": solved.self_distance_norm,
                },
            )
        )
        return stages

    return run


DEMOS: dict[str, Callable] = {
    "ex2.3": _demo_shifted_max,
    "ex2.4": _demo_absdiff_pair,
    "ex3.8": _demo_sum_premetric,
    "ex3.13": _demo_diag_matrix,
    "cor4.1": _corollary_demo(ContractionSpec("plain", k=0.5), "halving"),
    "cor4.2": _corollary_demo(ContractionSpec("graphic", k=0.5), "halving"),
    "cor4.3": _corollary_demo(ContractionSpec("weak", k=0.5, alpha=1.0), "halving"),
    "cor4.4": _corollary_demo(ContractionSpec("kannan", k=1.0 / 3.0), "quartering"),
    "cor4.5": _corollary_demo(
        ContractionSpec("reich", alpha=0.5, beta=0.1, gamma=0.1), "halving"
    ),
    "cor4.6": _corollary_demo(ContractionSpec("chatterjea", k=1.0 / 3.0), "quartering"),
}


def run_demo(demo_id: str, seed: int = 0, samples: int = 1000, tol: float = 1e-10) -> DemoResult:
    if demo_id not in DEMOS:
        known = ", ".join(sorted(DEMOS))
        raise UnknownNameError(f"unknown demo {demo_id!r}; known: {known}")
    return DemoResult(demo_id=demo_id, stages=DEMOS[demo_id](seed, samples, tol))
