"""Fixed-point problems posed directly on a partial metric space.

Each corollary family states its hypothesis in the partial metric p itself.
Problems reduce to the combined-contraction machinery through the induced
metric, the self-distance penalty phi(x) = p(x,x), and the sum combiner;
the hypothesis is nevertheless verified in p directly, and an exact
per-sample identity ties the two views together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement
from .contractions import (
    ContractionSpec,
    FFunction,
    OperatorSpec,
    PhiFunction,
    VerificationResult,
    family_sides,
    sample_check,
    sum_combiner,
    uniform_samples,
)
from .solver import ConvergenceCertificate, SolveConfig, picard_solve
from .spaces import Domain, ValuedDistance, induced_metric, rowwise

__all__ = [
    "PartialProblem",
    "PartialSolveResult",
    "reduce_problem",
    "verify_corollary_hypothesis",
    "solve_partial",
]

@dataclass(frozen=True)
class PartialProblem:
    p: ValuedDistance
    T: OperatorSpec
    spec: ContractionSpec

    def __post_init__(self):
        if self.p.flavor != "partial":
            raise ValueError("partial problem requires a partial-metric flavor")


def reduce_problem(
    problem: PartialProblem,
) -> tuple[ValuedDistance, PhiFunction, FFunction, ContractionSpec]:
    """Induced metric, self-distance penalty, sum combiner, same constants;
    the metric and the penalty are rowwise when p's fn is."""
    p = problem.p
    phi = PhiFunction(lambda x: p(x, x), "self-distance")
    if getattr(p.fn, "rowwise", False):
        rowwise(phi.fn)
    return induced_metric(p), phi, sum_combiner(), problem.spec


def corollary_sides(
    problem: PartialProblem, x, y=None
) -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of the corollary inequality, stated directly in p, at a
    sampled point or pair, or as stacks over Points: term is p itself and
    relaxed(u, v) = p(u, v) - (p(u, u) + p(v, v)) / 2."""
    p = problem.p

    def relaxed(u, v):
        return p(u, v) - 0.5 * (p(u, u) + p(v, v))

    return family_sides(problem.spec, problem.T, p, relaxed, x, y, partial=True)


def verify_corollary_hypothesis(
    problem: PartialProblem,
    domain: Domain,
    sample_count: int = 1000,
    seed: int = 0,
) -> VerificationResult:
    """Sample the corollary inequality in p; certificate or first counterexample."""
    rng = np.random.default_rng(seed)
    strata = [lambda: (uniform_samples(domain, sample_count, rng, problem.spec), None)]
    sides = functools.partial(corollary_sides, problem)
    return sample_check(
        f"partial-{problem.spec.family}", problem.spec, strata, sides, sample_count, seed
    )


@dataclass
class PartialSolveResult:
    certificate: ConvergenceCertificate
    self_distance_norm: float
    certified: bool

    def to_dict(self) -> dict:
        return {
            "certificate": self.certificate.to_dict(),
            "self_distance_norm": self.self_distance_norm,
            "certified": self.certified,
        }


def solve_partial(problem: PartialProblem, cfg: SolveConfig) -> PartialSolveResult:
    """Run the reduction through the Picard solver. Its penalty is the
    self-distance, so the certificate's phi residual is the norm of p(z, z),
    and a converged certificate has certified that it vanishes to tol."""
    d, phi, F, spec = reduce_problem(problem)
    cert = picard_solve(problem.T, d, phi, F, spec, cfg)
    return PartialSolveResult(
        certificate=cert,
        self_distance_norm=cert.residual_phi,
        certified=cert.converged,
    )
