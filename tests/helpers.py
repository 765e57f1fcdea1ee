"""Sample builders that only the tests use: point lists drawn one at a time,
and the columns of hand-built item lists for spaces.first_failure; a
per-axiom reference of the axiom suites; a per-point reference of the
solver; and family constants drawn over their valid ranges, with the
closed-form verdicts of bench/expect.py to judge them."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from cstarfix import algebra as alg
from cstarfix import solver, spaces
from cstarfix.contractions import effective_rate
from cstarfix.solver import (
    ConvergenceCertificate,
    NonFiniteOrbitError,
    OrbitEscapeError,
    SolverError,
    certify_phi_fixed_point,
)
from cstarfix.spaces import CHUNK_ROWS, Domain, Points, head_evaluated, point_repr


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


# The axiom suites as one scan per axiom, in table order, each over its own
# columns and with its own chunk loop. The suite scan must give the same
# checks and raise the same first error.


def reference_first_failure(columns, evaluate, test):
    """One axiom's chunked scan: its first failing item, or None."""
    count, start, size = len(columns[0].data), 0, 1
    while start < count:
        points = tuple(c[start : min(start + size, count)] for c in columns)
        rows, values, error = head_evaluated(evaluate, points)
        if rows:
            points = tuple(c[:rows] for c in points)
            kind, data = values[0].kind, [v.data for v in values]
            ok, offending, _ = test(points, kind, *data)
            bad = np.flatnonzero(~ok)
            if bad.size:
                return tuple(c.row(bad[0]) for c in points), kind, offending[bad[0]]
        if error is not None:
            raise error
        start += size
        size = min(2 * size, CHUNK_ROWS)
    return None


def reference_check_axioms(d, axioms, domain, sample_count: int, seed: int) -> list:
    """The to_dict of each check of an axiom suite, (name, arity, terms,
    test) as in spaces._METRIC_AXIOMS, or the first error an axiom raises."""
    pts = domain.sample_many(np.random.default_rng(seed), sample_count)
    checks = []
    for axiom, arity, terms, test in axioms:
        # the points followed by their first arity - 1 again, repeated as often as needed
        ext = np.resize(pts, (sample_count + arity - 1, *pts.shape[1:]))
        columns = tuple(Points(ext[j : j + sample_count]) for j in range(arity))

        def evaluate(*item, terms=terms):
            return tuple(d(item[i], item[j]) for i, j in terms)

        failure = reference_first_failure(columns, evaluate, test)
        check = spaces.AxiomCheck(axiom, "pass" if failure is None else "fail", sample_count)
        if failure is not None:
            item, kind, offending = failure
            check.witness = {"points": {k: point_repr(v) for k, v in zip("xyz", item)},
                             "offending": alg.element_to_dict(alg._raw(kind, offending))}
        checks.append(check.to_dict())
    return checks


# The solver as a per-point loop: phi and the audit and probe distances are
# evaluated one point at a time, each in its step. The stacked solver must
# give the same bytes and raise the same first error.


def reference_step(T, x, n: int, domain):
    """The iterate T(x) at step n, finite and in the domain; a non-finite
    iterate is reported as such even when it is also outside the domain."""
    x_next = T(x)
    if not np.isfinite(np.asarray(x_next, dtype=float)).all():
        raise NonFiniteOrbitError(n)
    if domain is not None and not domain.contains(x_next):
        raise OrbitEscapeError(n, x_next)
    return x_next


def reference_picard_solve(T, d, phi, F, spec, cfg) -> ConvergenceCertificate:
    rate = effective_rate(spec)
    x = cfg.x0
    if cfg.domain is not None and not cfg.domain.contains(x):
        raise OrbitEscapeError(0, x)
    x_next = reference_step(T, x, 0, cfg.domain)
    bound = alg.norm(F(d(x_next, x), phi(x_next), phi(x))) / (1.0 - rate)
    iterates, indices, steps, bounds, phis = [], [], [], [], []
    converged_step = False
    n = 0
    for n in range(cfg.max_iter):
        if n:
            x_next = reference_step(T, x, n, cfg.domain)
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


# Family constants over each valid range, and the closed-form hypothesis
# verdicts for T x = c x of bench/expect.py, which calls no cstarfix code.


def valid_constants(family: str):
    """A strategy of constant dicts spread over the family's valid range;
    Reich's weights are the spacings of two draws, scaled by a total below 1."""
    k = st.floats(0, 0.5 if family in ("kannan", "chatterjea") else 1,
                  exclude_min=True, exclude_max=True)
    if family == "weak":
        return st.fixed_dictionaries({"k": k, "alpha": st.floats(0, 8)})
    if family != "reich":
        return st.fixed_dictionaries({"k": k})
    unit = st.floats(0, 1)
    weights = st.tuples(st.floats(0, 1, exclude_max=True), unit, unit).map(
        lambda d: (d[0] * min(d[1:]), d[0] * abs(d[1] - d[2]), d[0] * (1 - max(d[1:]))))
    # a total just below 1 can round up to 1
    return weights.filter(lambda w: sum(w) < 1).map(
        lambda w: dict(zip(("alpha", "beta", "gamma"), w)))


def _load_expect():
    path = Path(__file__).resolve().parents[1] / "bench" / "expect.py"
    spec = importlib.util.spec_from_file_location("bench_expect", path)
    # registered before it runs: its dataclasses look their module up
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


expect = _load_expect()
