"""End-to-end demo runs over the built-in worked examples.

Each demo is one row of DEMOS: registry names for its setup, its constants
and start point, and its stages (axiom checks, hypothesis verification,
solve, bound audit) with their documented expectations. STAGES maps each
stage kind to its function. Two demos expect a failure by design: the
premetric whose self-distance never vanishes, and the square-first combiner
that loses the dominance axiom for small inputs. A demo succeeds only when all
observations, including expected failures, match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .contractions import ContractionSpec, check_F_axioms, verify_contraction
from .partial import PartialProblem, solve_partial, verify_corollary_hypothesis
from .registry import _lookup, get_combiner, get_operator, get_phi, get_space
from .solver import SolveConfig, bound_audit, picard_solve
from .spaces import check_metric_axioms, check_partial_axioms, point_repr

__all__ = ["DEMOS", "STAGES", "Demo", "run_demo", "DemoResult", "verify", "solve"]


@dataclass
class DemoResult:
    demo_id: str
    stages: list

    @property
    def ok(self) -> bool:
        return all(s["ok"] for s in self.stages)

    def to_dict(self) -> dict:
        return {"demo": self.demo_id, "ok": self.ok, "stages": self.stages}


class Demo(NamedTuple):
    space: str
    stages: tuple  # (stage name, expected verdict) pairs, in run order
    operator: Optional[str] = None
    spec: Optional[ContractionSpec] = None
    x0: object = None
    phi: Optional[str] = None  # metric mode only; partial mode derives phi and F
    combiner: Optional[str] = None


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _partial_axioms(demo, space, seed, samples, tol, state):
    report = check_partial_axioms(space.distance, space.domain, samples, seed)
    return _verdict(report.all_pass), report.to_dict()


def _metric_axioms(demo, space, seed, samples, tol, state):
    report = check_metric_axioms(space.distance, space.domain, samples, seed)
    return _verdict(report.all_pass), report.to_dict()


def _metric_self_distance(demo, space, seed, samples, tol, state):
    report = check_metric_axioms(space.distance, space.domain, samples, seed)
    verdict = next(c.verdict for c in report.checks if c.axiom == "self-distance-zero")
    return verdict, report.to_dict()


def _combiner_dominance(demo, space, seed, samples, tol, state):
    F = get_combiner(demo.combiner)
    report = check_F_axioms(F, space.distance.kind, space.distance.n, samples, seed)
    verdict = next(c.verdict for c in report.checks if c.axiom == "dominance")
    return verdict, report.to_dict()


def verify(spec, T, space, phi, F, samples: int, seed: int):
    """The sampled hypothesis on a named space: in partial mode (phi None)
    the corollary's, stated in p, else the contraction inequality."""
    if phi is None:
        problem = PartialProblem(space.distance, T, spec)
        return verify_corollary_hypothesis(problem, space.domain, samples, seed)
    return verify_contraction(spec, T, space.distance, phi, F, space.domain, samples, seed)


def solve(spec, T, space, phi, F, cfg: SolveConfig):
    """(certificate, report) of the Picard solve on a named space: the report
    is solve_partial's result in partial mode (phi None), else the certificate."""
    if phi is None:
        solved = solve_partial(PartialProblem(space.distance, T, spec), cfg)
        return solved.certificate, solved
    cert = picard_solve(T, space.distance, phi, F, spec, cfg)
    return cert, cert


def _callables(demo) -> tuple:
    """phi and the combiner of a metric-mode demo; both None in partial mode."""
    if demo.phi is None:
        return None, None
    return get_phi(demo.phi), get_combiner(demo.combiner)


def _verify(demo, space, seed, samples, tol, state):
    T = get_operator(demo.operator)
    result = verify(demo.spec, T, space, *_callables(demo), samples, seed)
    return _verdict(result.certified), result.to_dict()


def _solve(demo, space, seed, samples, tol, state):
    T = get_operator(demo.operator)
    cfg = SolveConfig(x0=demo.x0, tol=tol, domain=space.domain)
    cert, report = solve(demo.spec, T, space, *_callables(demo), cfg)
    if demo.phi is None:
        return _verdict(cert.converged), {"z": point_repr(cert.z),
                                          "self_distance_norm": report.self_distance_norm}
    state["certificate"] = cert
    return _verdict(cert.converged), cert.to_dict()


def _bound_audit(demo, space, seed, samples, tol, state):
    audit = bound_audit(state["certificate"], space.distance)
    return _verdict(audit["passed"]), {"max_violation": audit["max_violation"]}


# Stage kind -> fn(demo, space, seed, samples, tol, state) -> (observed, detail).
# state carries a metric solve's certificate to bound-audit.
STAGES: dict[str, Callable] = {
    "partial-axioms": _partial_axioms,
    "metric-axioms": _metric_axioms,
    "metric-axioms-self-distance": _metric_self_distance,
    "combiner-dominance": _combiner_dominance,
    "contraction-verify": _verify,
    "hypothesis-verify": _verify,
    "solve": _solve,
    "bound-audit": _bound_audit,
}


def _corollary(spec: ContractionSpec, operator: str) -> Demo:
    stages = (("partial-axioms", "pass"), ("hypothesis-verify", "pass"), ("solve", "pass"))
    return Demo("max_unit_interval", stages, operator, spec, x0=1.0)


DEMOS: dict[str, Demo] = {
    "ex2.3": Demo("shifted_max_matrix", (("partial-axioms", "pass"),)),
    "ex2.4": Demo("absdiff_pair", (("partial-axioms", "pass"),)),
    # rate-1/2 contraction on a premetric whose self-distance is not zero
    "ex3.8": Demo(
        "sum_premetric",
        (("metric-axioms-self-distance", "fail"), ("contraction-verify", "pass"),
         ("solve", "pass"), ("bound-audit", "pass")),
        "halving", ContractionSpec("plain", k=0.5), 1.0, "coordinate_pair", "sum",
    ),
    # weak contraction; squaring shrinks small arguments, so F loses dominance
    "ex3.13": Demo(
        "diag_absdiff_matrix",
        (("combiner-dominance", "fail"), ("metric-axioms", "pass"),
         ("contraction-verify", "pass"), ("solve", "pass")),
        "halving", ContractionSpec("weak", k=0.5, alpha=4.0), np.array([1.0, 1.0]),
        "spread_matrix", "square_first",
    ),
    "cor4.1": _corollary(ContractionSpec("plain", k=0.5), "halving"),
    "cor4.2": _corollary(ContractionSpec("graphic", k=0.5), "halving"),
    "cor4.3": _corollary(ContractionSpec("weak", k=0.5, alpha=1.0), "halving"),
    "cor4.4": _corollary(ContractionSpec("kannan", k=1.0 / 3.0), "quartering"),
    "cor4.5": _corollary(ContractionSpec("reich", alpha=0.5, beta=0.1, gamma=0.1), "halving"),
    "cor4.6": _corollary(ContractionSpec("chatterjea", k=1.0 / 3.0), "quartering"),
}


def run_demo(demo_id: str, seed: int = 0, samples: int = 1000, tol: float = 1e-10) -> DemoResult:
    demo = _lookup(DEMOS, demo_id, "demo")
    space = get_space(demo.space)
    state: dict = {}
    stages = []
    for name, expected in demo.stages:
        observed, detail = STAGES[name](demo, space, seed, samples, tol, state)
        stages.append({"stage": name, "expected": expected, "observed": observed,
                       "ok": expected == observed, "detail": detail})
    return DemoResult(demo_id=demo_id, stages=stages)
