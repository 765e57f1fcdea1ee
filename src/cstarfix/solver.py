"""Picard iteration with certified geometric error bounds.

The orbit x_{n+1} = T(x_n) is run until the step distance drops below the
stopping threshold. Alongside the orbit a geometric a-priori envelope
r^n / (1-r) * ||F(d(Tx0,x0), phi(Tx0), phi(x0))|| is recorded, built
multiplicatively so consecutive bounds differ by exactly the rate factor.
Convergence is only reported when the final point also has small
fixed-point and penalty residuals; a stalled orbit on a non-contraction,
or a fixed point that is not a penalty zero, never passes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import algebra as alg
from .contractions import ContractionSpec, FFunction, OperatorSpec, PhiFunction, effective_rate
from .spaces import Box, Domain, Interval, Points, ValuedDistance, point_repr

__all__ = [
    "SolveConfig",
    "ConvergenceCertificate",
    "SolverError",
    "OrbitEscapeError",
    "NonFiniteOrbitError",
    "picard_solve",
    "certify_phi_fixed_point",
    "bound_audit",
    "uniqueness_probe",
]

DENSE_RECORD_LIMIT = 64
SPARSE_RECORD_STRIDE = 64
WEAK_RATE_THRESHOLD = 0.999


class SolverError(RuntimeError):
    pass


class OrbitEscapeError(SolverError):
    def __init__(self, index: int, point):
        self.index = index
        self.point = point
        super().__init__(f"orbit left the domain at iteration {index}")


class NonFiniteOrbitError(SolverError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value encountered at iteration {index}")


@dataclass(frozen=True)
class SolveConfig:
    x0: object
    tol: float = 1e-10
    max_iter: int = 10_000
    domain: Optional[Domain] = None

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # nan fails both comparisons
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _check_point(x, n: int, domain: Optional[Domain]) -> None:
    """The iterate x at step n must be finite, then in the domain: a
    non-finite iterate is reported as such even when it is also outside
    the domain."""
    if not np.isfinite(np.asarray(x, dtype=float)).all():
        raise NonFiniteOrbitError(n)
    if domain is not None and not domain.contains(x):
        raise OrbitEscapeError(n, x)


def _norms(values: alg.AlgebraElement) -> np.ndarray:
    """The norm of each row of a stack of values."""
    return alg.norm_rows(values.kind, values.data)


@dataclass
class ConvergenceCertificate:
    """Iteration trace with per-step a-priori bounds and final residuals.

    The trace columns iterates, step_norms, apriori_bounds and phi_residuals
    are float64 arrays, one row per recorded index; iterates of box points
    are an (N, dim) array."""

    iterates: np.ndarray
    recorded_indices: list
    step_norms: np.ndarray
    apriori_bounds: np.ndarray
    phi_residuals: np.ndarray
    z: object
    residual_fixed: float
    residual_phi: float
    rate_used: float
    converged: bool
    iterations: int
    weak_bounds: bool = False

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "z": point_repr(self.z),
            "residual_fixed": self.residual_fixed,
            "residual_phi": self.residual_phi,
            "rate_used": self.rate_used,
            "weak_bounds": self.weak_bounds,
            "trace": [
                {
                    "n": n,
                    "step_norm": s,
                    "apriori_bound": b,
                    "phi_residual": q,
                }
                for n, s, b, q in zip(self.recorded_indices, *self._columns())
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "step_norm", "apriori_bound", "phi_residual"])
        for n, s, b, q in zip(self.recorded_indices, *self._columns()):
            writer.writerow([n, repr(s), repr(b), repr(q)])
        return buf.getvalue()

    def _columns(self) -> tuple:
        """The norm columns of the trace as lists of Python floats."""
        return self.step_norms.tolist(), self.apriori_bounds.tolist(), self.phi_residuals.tolist()


def picard_solve(
    T: OperatorSpec,
    d: ValuedDistance,
    phi: PhiFunction,
    F: FFunction,
    spec: ContractionSpec,
    cfg: SolveConfig,
) -> ConvergenceCertificate:
    rate = effective_rate(spec)
    x, domain = cfg.x0, cfg.domain
    if domain is not None and not domain.contains(x):
        raise OrbitEscapeError(0, x)

    # Each step calls T's and d's functions directly, d through the kind and
    # size check of d._point. In an interval, or in no domain, a float iterate
    # is checked against bounds taken once; a box holds no float, so in a box
    # every iterate goes through _check_point.
    step, distance = T.fn, d._point
    floats = not isinstance(domain, Box)
    lo, hi = domain.bounds if isinstance(domain, Interval) else (-math.inf, math.inf)
    iterates, indices, steps, bounds = [], [], [], []
    converged_step = False
    n = 0
    try:
        for n in range(cfg.max_iter):
            x_next = step(x)
            if floats and isinstance(x_next, float):  # _check_point's checks, in its order
                if not math.isfinite(x_next):
                    raise NonFiniteOrbitError(n)
                if not lo <= x_next <= hi:
                    raise OrbitEscapeError(n, x_next)
            else:
                _check_point(x_next, n, domain)
            value = distance(x_next, x)
            if not n:  # the envelope reads step 0's distance d(T x0, x0)
                bound = alg.norm(F(value, phi(x_next), phi(x))) / (1.0 - rate)
            step_norm = alg.norm(value)
            if n <= DENSE_RECORD_LIMIT or n % SPARSE_RECORD_STRIDE == 0:
                iterates.append(x)
                indices.append(n)
                steps.append(step_norm)
                bounds.append(bound)
            bound *= rate
            x = x_next
            if step_norm <= cfg.tol:
                converged_step = True
                break
    finally:
        # one phi call over the recorded iterates; its error precedes a later step's
        iterates = np.array(iterates, dtype=float)
        if indices:  # empty only if step 0 raised
            phis = _norms(phi(Points(iterates)))
    residuals = certify_phi_fixed_point(x, T, d, phi, cfg.tol)
    return ConvergenceCertificate(
        iterates=iterates,
        recorded_indices=indices,
        step_norms=np.array(steps),
        apriori_bounds=np.array(bounds),
        phi_residuals=phis,
        z=x,
        residual_fixed=residuals["residual_fixed"],
        residual_phi=residuals["residual_phi"],
        rate_used=rate,
        converged=converged_step and residuals["is_fixed"] and residuals["is_phi_zero"],
        iterations=n + 1,
        weak_bounds=rate > WEAK_RATE_THRESHOLD,
    )


def certify_phi_fixed_point(
    z, T: OperatorSpec, d: ValuedDistance, phi: PhiFunction, tol: float = 1e-10
) -> dict:
    """Residual test: fixed point of T and zero of the penalty, both to tol."""
    residual_fixed = alg.norm(d(z, T(z)))
    residual_phi = alg.norm(phi(z))
    return {
        "is_fixed": residual_fixed <= tol,
        "is_phi_zero": residual_phi <= tol,
        "residual_fixed": residual_fixed,
        "residual_phi": residual_phi,
    }


def bound_audit(
    cert: ConvergenceCertificate, d: ValuedDistance, tol: float = 1e-9
) -> dict:
    """Check each recorded iterate against its a-priori envelope.

    The final iterate stands in for the true limit; the tolerance absorbs
    the residual tail, which is bounded by rate * tol / (1 - rate).
    """
    if not cert.converged:
        raise SolverError("bound audit requires a converged certificate")
    actual = _norms(d(Points(cert.iterates), cert.z))
    violation = (actual - cert.apriori_bounds).tolist()
    columns = cert.recorded_indices, actual.tolist(), cert.apriori_bounds.tolist(), violation
    rows = [{"n": n, "actual": a, "bound": b, "violation": v} for n, a, b, v in zip(*columns)]
    # the builtin max: a nan violation is never taken as the maximum
    max_violation = max([-np.inf, *violation])
    return {
        "passed": max_violation <= tol,
        "max_violation": max_violation,
        "tol": tol,
        "rows": rows,
    }


def uniqueness_probe(
    T: OperatorSpec,
    d: ValuedDistance,
    phi: PhiFunction,
    F: FFunction,
    spec: ContractionSpec,
    starts: list,
    cfg: SolveConfig,
    tol: float = 1e-8,
) -> dict:
    """Solve from several starts and compare the limits pairwise.

    Supports, but does not prove, uniqueness of the found point.
    """
    if len(starts) < 2:
        raise ValueError("uniqueness probe needs at least two starts")
    certs = []
    for i, x0 in enumerate(starts):
        try:
            certs.append(picard_solve(T, d, phi, F, spec, replace(cfg, x0=x0)))
        except SolverError as exc:
            exc.add_note(f"in the solve from start #{i}")
            raise
    first, second = np.triu_indices(len(certs), 1)
    limits = np.array([c.z for c in certs], dtype=float)
    dists = _norms(d(Points(limits[first]), Points(limits[second]))).tolist()
    pairwise = [{"i": i, "j": j, "distance_norm": dist}
                for i, j, dist in zip(first.tolist(), second.tolist(), dists)]
    return {
        "limits": [point_repr(c.z) for c in certs],
        "pairwise": pairwise,
        "all_below_tol": all(dist <= tol for dist in dists),
        "tol": tol,
        "certificates": certs,
    }
