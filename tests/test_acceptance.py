"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time

import numpy as np

from cstarfix import algebra as alg
from cstarfix.cli import main
from cstarfix.contractions import (
    ContractionSpec,
    check_F_axioms,
    square_first_combiner,
    sum_combiner,
    verify_contraction,
)
from cstarfix.partial import (
    PartialProblem,
    reduce_problem,
    solve_partial,
    verify_corollary_hypothesis,
)
from cstarfix.registry import get_combiner, get_operator, get_phi, get_space
from cstarfix.solver import SolveConfig, bound_audit, picard_solve
from cstarfix.spaces import check_metric_axioms, check_partial_axioms
from helpers import sample_points

SAMPLES = 10_000


def report(criterion: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'}: {criterion}")
    assert passed


def test_criterion_1_sum_premetric_reproduction():
    start = time.perf_counter()
    space = get_space("sum_premetric")
    T = get_operator("halving")
    phi = get_phi("coordinate_pair")
    F = sum_combiner()
    spec = ContractionSpec("plain", k=0.5)

    verified = verify_contraction(
        spec, T, space.distance, phi, F, space.domain, SAMPLES, seed=0
    )
    cert = picard_solve(
        T, space.distance, phi, F, spec,
        SolveConfig(x0=1.0, tol=1e-10, max_iter=64, domain=space.domain),
    )
    audit = bound_audit(cert, space.distance)
    elapsed = time.perf_counter() - start

    ok = (
        verified.certified
        and cert.converged
        and cert.iterations <= 64
        and cert.residual_fixed <= 1e-10
        and cert.residual_phi <= 1e-10
        and audit["max_violation"] <= 1e-9
        and elapsed < 1.0
    )
    report(
        f"criterion 1: combined contraction k=1/2 certified on {SAMPLES} pairs, "
        f"solve + bound audit in {elapsed:.2f}s",
        ok,
    )


def test_criterion_2_paired_coordinate_weak_contraction():
    space = get_space("diag_absdiff_matrix")
    spec = ContractionSpec("weak", k=0.5, alpha=4.0)
    result = verify_contraction(
        spec,
        get_operator("halving"),
        space.distance,
        get_phi("spread_matrix"),
        square_first_combiner(),
        space.domain,
        SAMPLES,
        seed=0,
    )
    if not result.certified:
        print("counterexample:", json.dumps(result.counterexample))
    cert = picard_solve(
        get_operator("halving"),
        space.distance,
        get_phi("spread_matrix"),
        square_first_combiner(),
        spec,
        SolveConfig(x0=np.array([1.0, 1.0]), tol=1e-10, domain=space.domain),
    )
    ok = (
        result.certified
        and result.counterexample is None
        and cert.converged
        and float(np.max(np.abs(cert.z))) <= 1e-9
    )
    report(
        f"criterion 2: weak contraction k=1/2 alpha=4 on {SAMPLES} stratified "
        "samples, solve reaches the origin",
        ok,
    )


def test_criterion_3_dominance_anomaly_detection():
    bad = check_F_axioms(square_first_combiner(), "matrix", 2, SAMPLES, seed=0)
    dominance = next(c for c in bad.checks if c.axiom == "dominance")
    good = check_F_axioms(sum_combiner(), "matrix", 2, SAMPLES, seed=0)
    ok = (
        dominance.verdict == "fail"
        and dominance.witness is not None
        and good.all_pass
    )
    report(
        "criterion 3: square-first combiner fails dominance with witness; "
        f"sum combiner passes on {SAMPLES} positive triples",
        ok,
    )


def test_criterion_4_axiom_suites():
    shifted = get_space("shifted_max_matrix")
    pair = get_space("absdiff_pair")
    premetric = get_space("sum_premetric")
    r1 = check_partial_axioms(shifted.distance, shifted.domain, SAMPLES, seed=0)
    r2 = check_partial_axioms(pair.distance, pair.domain, SAMPLES, seed=0)
    r3 = check_metric_axioms(premetric.distance, premetric.domain, SAMPLES, seed=0)
    fail = next((c for c in r3.failures() if c.axiom == "self-distance-zero"), None)
    ok = r1.all_pass and r2.all_pass and fail is not None and fail.witness is not None
    report(
        f"criterion 4: both partial metrics pass all axioms on {SAMPLES} samples; "
        "the premetric fails self-distance-zero with a witness",
        ok,
    )


def test_criterion_5_reduction_consistency():
    space = get_space("max_unit_interval")
    problem = PartialProblem(
        space.distance, get_operator("halving"), ContractionSpec("plain", k=0.5)
    )
    direct = verify_corollary_hypothesis(problem, space.domain, 2000, seed=7)
    d, phi, F, spec = reduce_problem(problem)
    reduced = verify_contraction(
        spec, problem.T, d, phi, F, space.domain, 2000, seed=7
    )
    # exact per-sample identity between the two views
    identity_ok = True
    xs = sample_points(space.domain, 500, seed=7)
    ys = sample_points(space.domain, 500, seed=8)
    p, T = problem.p, problem.T
    for x, y in zip(xs, ys):
        lhs = F(d(T(x), T(y)), phi(T(x)), phi(T(y)))
        rhs = alg.scale(spec.k, F(d(x, y), phi(x), phi(y)))
        identity_ok &= alg.norm(alg.sub(lhs, alg.scale(2.0, p(T(x), T(y))))) <= 1e-14
        identity_ok &= alg.norm(alg.sub(rhs, alg.scale(2.0 * spec.k, p(x, y)))) <= 1e-14
    solved = solve_partial(problem, SolveConfig(x0=1.0, tol=1e-10, domain=space.domain))
    ok = (
        direct.certified
        and reduced.certified
        and identity_ok
        and solved.self_distance_norm <= 1e-10
    )
    report(
        "criterion 5: partial-metric hypothesis and reduced contraction agree "
        "sample-by-sample; solution self-distance below 1e-10",
        ok,
    )


BUILTIN_CONTRACTIONS = [
    ("sum_premetric", "halving", "coordinate_pair", "sum", ContractionSpec("plain", k=0.5), 1.0),
    ("diag_absdiff_matrix", "halving", "spread_matrix", "square_first",
     ContractionSpec("weak", k=0.5, alpha=4.0), np.array([1.0, 1.0])),
]

BUILTIN_COROLLARIES = [
    (ContractionSpec("plain", k=0.5), "halving"),
    (ContractionSpec("graphic", k=0.5), "halving"),
    (ContractionSpec("weak", k=0.5, alpha=1.0), "halving"),
    (ContractionSpec("kannan", k=1 / 3), "quartering"),
    (ContractionSpec("reich", alpha=0.5, beta=0.1, gamma=0.1), "halving"),
    (ContractionSpec("chatterjea", k=1 / 3), "quartering"),
]


def test_criterion_6_geometric_decay():
    certs = []
    for space_name, op, phi_name, comb, spec, x0 in BUILTIN_CONTRACTIONS:
        space = get_space(space_name)
        certs.append(
            picard_solve(
                get_operator(op), space.distance, get_phi(phi_name),
                get_combiner(comb), spec,
                SolveConfig(x0=x0, tol=1e-10, domain=space.domain),
            )
        )
    for spec, op in BUILTIN_COROLLARIES:
        space = get_space("max_unit_interval")
        problem = PartialProblem(space.distance, get_operator(op), spec)
        certs.append(
            solve_partial(
                problem, SolveConfig(x0=1.0, tol=1e-10, domain=space.domain)
            ).certificate
        )
    ok = True
    for cert in certs:
        r = cert.rate_used
        consecutive = zip(
            cert.step_norms, cert.step_norms[1:],
            cert.apriori_bounds, cert.apriori_bounds[1:],
            cert.recorded_indices, cert.recorded_indices[1:],
        )
        for s0, s1, b0, b1, n0, n1 in consecutive:
            if n1 != n0 + 1:
                continue
            ok &= s1 <= r * s0 + 1e-12
            ok &= b1 == r * b0
    report(
        f"criterion 6: step norms decay at the effective rate and a-priori "
        f"bounds decay by exactly that factor on {len(certs)} built-in runs",
        ok,
    )


def test_criterion_7_corollary_family_coverage():
    ok = True
    for demo_id in ("cor4.1", "cor4.2", "cor4.3", "cor4.4", "cor4.5", "cor4.6"):
        code = main(["demo", demo_id, "--samples", "2000", "--out", "/dev/null"])
        ok &= code == 0
    # the demo gate already requires a certified hypothesis (0 counterexamples)
    # and a solve with vanishing self-distance
    report("criterion 7: all six corollary demos verify and solve", ok)


def test_criterion_8_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["demo", "ex3.13", "--seed", "123", "--samples", "500"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report("criterion 8: identical seeds give byte-identical structured output", ok)


def test_criterion_9_order_cone_correctness():
    rng = np.random.default_rng(99)
    tol = alg.OrderTolerance(1e-9)
    ok = True
    for i in range(SAMPLES):
        n = int(rng.integers(1, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = alg.matrix(g @ g.conj().T)
        target = float(rng.uniform(0.2, 1.8))
        if abs(target - 1.0) < 1e-6:
            continue  # stay off the decision boundary of the iff
        a = alg.scale(target / alg.norm(a), a)
        below_unit = alg.leq(a, alg.unit("matrix", n), tol)
        ok &= below_unit == (alg.norm(a) <= 1 + 1e-9)
        if not ok:
            break
    report(
        f"criterion 9: positive a satisfies (a below unit iff norm <= 1) on "
        f"{SAMPLES} random positive matrices up to n=8",
        ok,
    )
