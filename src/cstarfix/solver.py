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
from .spaces import Domain, Points, ValuedDistance, point_repr

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
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _recorded(n: int) -> bool:
    return n <= DENSE_RECORD_LIMIT or n % SPARSE_RECORD_STRIDE == 0


def _finite(x) -> bool:
    if isinstance(x, float):  # an interval point, np.float64 included
        return math.isfinite(x)
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def _next(T: OperatorSpec, x, n: int, domain: Optional[Domain]):
    """The iterate T(x) at step n, finite and in the domain. A non-finite
    iterate is reported as such even when it is also outside the domain."""
    x_next = T(x)
    if not _finite(x_next):
        raise NonFiniteOrbitError(n)
    if domain is not None and not domain.contains(x_next):
        raise OrbitEscapeError(n, x_next)
    return x_next


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
    x = cfg.x0
    if cfg.domain is not None and not cfg.domain.contains(x):
        raise OrbitEscapeError(0, x)

    x_next = _next(T, x, 0, cfg.domain)
    f0 = F(d(x_next, x), phi(x_next), phi(x))
    bound = alg.norm(f0) / (1.0 - rate)

    iterates, indices, steps, bounds, phis = [], [], [], [], []
    converged_step = False
    n = 0
    for n in range(cfg.max_iter):
        if n:  # the first iterate T(x0) is already known
            x_next = _next(T, x, n, cfg.domain)
        step_norm = alg.norm(d(x_next, x))
        if _recorded(n):
            iterates.append(x)
            indices.append(n)
            steps.append(step_norm)
            bounds.append(bound)
            phis.append(alg.norm(phi(x)))
        bound *= rate
        x = x_next
        if step_norm <= cfg.tol:
            converged_step = True
            break

    residuals = certify_phi_fixed_point(x, T, d, phi, cfg.tol)
    return ConvergenceCertificate(
        iterates=np.array(iterates, dtype=float),
        recorded_indices=indices,
        step_norms=np.array(steps),
        apriori_bounds=np.array(bounds),
        phi_residuals=np.array(phis),
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
    rows = []
    max_violation = -np.inf
    points, bounds = Points(cert.iterates).rows(), cert.apriori_bounds.tolist()
    for x, n, bound in zip(points, cert.recorded_indices, bounds):
        actual = alg.norm(d(x, cert.z))
        violation = actual - bound
        max_violation = max(max_violation, violation)
        rows.append({"n": n, "actual": actual, "bound": bound, "violation": violation})
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
    pairwise = []
    all_close = True
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            dist = alg.norm(d(certs[i].z, certs[j].z))
            pairwise.append({"i": i, "j": j, "distance_norm": dist})
            all_close = all_close and dist <= tol
    return {
        "limits": [point_repr(c.z) for c in certs],
        "pairwise": pairwise,
        "all_below_tol": all_close,
        "tol": tol,
        "certificates": certs,
    }
