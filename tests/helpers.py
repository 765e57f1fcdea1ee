"""Sample builders that only the tests use: point lists drawn one at a time,
and the columns of hand-built item lists for spaces.first_failure; and a
per-point reference of the solver."""

from dataclasses import replace

import numpy as np

from cstarfix import algebra as alg
from cstarfix import solver
from cstarfix.contractions import effective_rate
from cstarfix.solver import (
    ConvergenceCertificate,
    OrbitEscapeError,
    SolverError,
    certify_phi_fixed_point,
)
from cstarfix.spaces import Domain, Points, point_repr


def sample_points(domain: Domain, count: int, seed: int) -> list:
    """Deterministic point sample from a 64-bit seed."""
    rng = np.random.default_rng(seed)
    return [domain.sample(rng) for _ in range(count)]


def stack_items(items) -> tuple:
    """The columns of a list of item tuples: Points or stacked elements."""
    return tuple(
        alg.stack(column) if isinstance(column[0], alg.AlgebraElement)
        else Points(np.array(column, dtype=float))
        for column in zip(*items)
    )


# The solver as a per-point loop: phi and the audit and probe distances are
# evaluated one point at a time, each in its step. The stacked solver must
# give the same bytes and raise the same first error.


def reference_picard_solve(T, d, phi, F, spec, cfg) -> ConvergenceCertificate:
    rate = effective_rate(spec)
    x = cfg.x0
    if cfg.domain is not None and not cfg.domain.contains(x):
        raise OrbitEscapeError(0, x)
    x_next = solver._next(T, x, 0, cfg.domain)
    bound = alg.norm(F(d(x_next, x), phi(x_next), phi(x))) / (1.0 - rate)
    iterates, indices, steps, bounds, phis = [], [], [], [], []
    converged_step = False
    n = 0
    for n in range(cfg.max_iter):
        if n:
            x_next = solver._next(T, x, n, cfg.domain)
        step_norm = alg.norm(d(x_next, x))
        if n <= solver.DENSE_RECORD_LIMIT or n % solver.SPARSE_RECORD_STRIDE == 0:
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
        weak_bounds=rate > solver.WEAK_RATE_THRESHOLD,
    )


def reference_bound_audit(cert, d, tol: float = 1e-9) -> dict:
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
    return {"passed": max_violation <= tol, "max_violation": max_violation, "tol": tol,
            "rows": rows}


def reference_uniqueness_probe(T, d, phi, F, spec, starts, cfg, tol: float = 1e-8) -> dict:
    certs = [reference_picard_solve(T, d, phi, F, spec, replace(cfg, x0=x0)) for x0 in starts]
    pairwise = []
    all_close = True
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            dist = alg.norm(d(certs[i].z, certs[j].z))
            pairwise.append({"i": i, "j": j, "distance_norm": dist})
            all_close = all_close and dist <= tol
    return {"limits": [point_repr(c.z) for c in certs], "pairwise": pairwise,
            "all_below_tol": all_close, "tol": tol, "certificates": certs}
