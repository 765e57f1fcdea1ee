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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra as alg
from .contractions import ContractionSpec, FFunction, OperatorSpec, PhiFunction, effective_rate
from .spaces import Domain, ValuedDistance

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


def _point_repr(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    return float(x)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


@dataclass
class ConvergenceCertificate:
    """Iteration trace with per-step a-priori bounds and final residuals."""

    iterates: list
    recorded_indices: list
    step_norms: list
    apriori_bounds: list
    phi_residuals: list
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
            "z": _point_repr(self.z),
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
                for n, s, b, q in zip(
                    self.recorded_indices,
                    self.step_norms,
                    self.apriori_bounds,
                    self.phi_residuals,
                )
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "step_norm", "apriori_bound", "phi_residual"])
        for n, s, b, q in zip(
            self.recorded_indices, self.step_norms, self.apriori_bounds, self.phi_residuals
        ):
            writer.writerow([n, repr(s), repr(b), repr(q)])
        return buf.getvalue()


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

    x_next = T(x)
    f0 = F(d(x_next, x), phi(x_next), phi(x))
    bound = alg.norm(f0) / (1.0 - rate)

    iterates, indices, steps, bounds, phis = [], [], [], [], []
    converged_step = False
    n = 0
    for n in range(cfg.max_iter):
        if n:  # the first iterate T(x0) is already known
            x_next = T(x)
        if not _finite(x_next):
            raise NonFiniteOrbitError(n)
        if cfg.domain is not None and not cfg.domain.contains(x_next):
            raise OrbitEscapeError(n, x_next)
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

    z = x
    residual_fixed = alg.norm(d(z, T(z)))
    residual_phi = alg.norm(phi(z))
    return ConvergenceCertificate(
        iterates=iterates,
        recorded_indices=indices,
        step_norms=steps,
        apriori_bounds=bounds,
        phi_residuals=phis,
        z=z,
        residual_fixed=residual_fixed,
        residual_phi=residual_phi,
        rate_used=rate,
        converged=converged_step
        and residual_fixed <= cfg.tol
        and residual_phi <= cfg.tol,
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
    for x, n, bound in zip(cert.iterates, cert.recorded_indices, cert.apriori_bounds):
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
            certs.append(
                picard_solve(
                    T, d, phi, F, spec,
                    SolveConfig(x0=x0, tol=cfg.tol, max_iter=cfg.max_iter, domain=cfg.domain),
                )
            )
        except SolverError as exc:
            raise SolverError(f"solve from start #{i} failed: {exc}") from exc
    pairwise = []
    all_close = True
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            dist = alg.norm(d(certs[i].z, certs[j].z))
            pairwise.append({"i": i, "j": j, "distance_norm": dist})
            all_close = all_close and dist <= tol
    return {
        "limits": [_point_repr(c.z) for c in certs],
        "pairwise": pairwise,
        "all_below_tol": all_close,
        "tol": tol,
        "certificates": certs,
    }
