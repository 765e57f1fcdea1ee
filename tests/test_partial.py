import numpy as np
import pytest

from cstarfix import algebra as alg
from cstarfix.contractions import ContractionSpec, OperatorSpec, verify_contraction
from cstarfix.partial import (
    PartialProblem,
    corollary_sides,
    reduce_problem,
    solve_partial,
    verify_corollary_hypothesis,
)
from cstarfix.registry import get_operator, get_space
from cstarfix.solver import SolveConfig
from cstarfix.spaces import Points, ValuedDistance, rowwise
from helpers import sample_points


def max_problem(spec, operator="halving"):
    space = get_space("max_unit_interval")
    return PartialProblem(space.distance, get_operator(operator), spec), space.domain


class TestReduce:
    def test_max_space_reduction(self):
        problem, _ = max_problem(ContractionSpec("plain", k=0.5))
        d, phi, F, spec = reduce_problem(problem)
        # induced metric collapses to |x - y|; penalty is the self-distance x
        assert float(d(0.2, 0.9).data) == pytest.approx(0.7)
        assert float(phi(0.4).data) == pytest.approx(0.4)
        assert F.label == "sum"
        assert spec.family == "plain" and spec.k == 0.5

    def test_zero_self_distance_space(self):
        space = get_space("absdiff_pair")
        problem = PartialProblem(space.distance, get_operator("halving"),
                                 ContractionSpec("plain", k=0.5))
        d, phi, _, _ = reduce_problem(problem)
        assert alg.norm(phi(0.7)) == 0.0
        assert np.allclose(d(0.1, 0.6).data, 2 * space.distance(0.1, 0.6).data)

    @pytest.mark.parametrize("space_name",
                             ["max_unit_interval", "shifted_max_matrix", "absdiff_pair"])
    def test_self_distance_penalty_takes_a_stack_in_one_call(self, space_name):
        # the penalty is rowwise as p's fn is, and each row has the bits of
        # the penalty at that one point
        space = get_space(space_name)
        calls = []

        def counted(x, y):
            calls.append(x)
            return space.distance.fn(x, y)

        p = ValuedDistance(space.distance.kind, space.distance.n, rowwise(counted), "partial")
        _, phi, _, _ = reduce_problem(PartialProblem(p, get_operator("halving"),
                                                     ContractionSpec("plain", k=0.5)))
        xs = np.array(sample_points(space.domain, 40, seed=3))
        column = phi(Points(xs))
        assert len(calls) == 1
        rows = [phi(x).data for x in xs.tolist()]
        assert column.data.tobytes() == np.array(rows).tobytes()

    def test_per_point_self_distance_penalty_stays_per_point(self):
        p = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(max(x, y)), "partial")
        _, phi, _, _ = reduce_problem(PartialProblem(p, get_operator("halving"),
                                                     ContractionSpec("plain", k=0.5)))
        assert not getattr(phi.fn, "rowwise", False)
        assert phi(Points(np.array([0.25, 0.5]))).data.tolist() == [0.25, 0.5]

    def test_constants_map_identically(self):
        problem, _ = max_problem(ContractionSpec("chatterjea", k=0.4), "quartering")
        _, _, _, spec = reduce_problem(problem)
        assert spec is problem.spec

    def test_metric_space_rejected(self):
        space = get_space("diag_absdiff_matrix")
        with pytest.raises(ValueError):
            PartialProblem(space.distance, get_operator("halving"),
                           ContractionSpec("plain", k=0.5))


class TestHypothesisVerification:
    def test_banach_half_has_zero_slack_at_equality(self):
        # max(x/2, y/2) = max(x, y) / 2 exactly
        problem, domain = max_problem(ContractionSpec("plain", k=0.5))
        result = verify_corollary_hypothesis(problem, domain, 2000, seed=0)
        assert result.certified
        assert result.max_slack_norm <= 1e-15

    def test_banach_quarter_rate_fails(self):
        problem, domain = max_problem(ContractionSpec("plain", k=0.25))
        result = verify_corollary_hypothesis(problem, domain, 2000, seed=0)
        assert not result.certified
        ce = result.counterexample
        # equality at rate 1/2 beats the claimed 1/4
        assert ce["lhs"]["value"] > ce["rhs"]["value"]

    def test_kannan_third(self):
        problem, domain = max_problem(ContractionSpec("kannan", k=1 / 3), "quartering")
        assert verify_corollary_hypothesis(problem, domain, 2000, seed=0).certified

    @pytest.mark.parametrize(
        "spec,operator",
        [
            (ContractionSpec("graphic", k=0.5), "halving"),
            (ContractionSpec("weak", k=0.5, alpha=1.0), "halving"),
            (ContractionSpec("reich", alpha=0.5, beta=0.1, gamma=0.1), "halving"),
            (ContractionSpec("chatterjea", k=1 / 3), "quartering"),
        ],
    )
    def test_remaining_families(self, spec, operator):
        problem, domain = max_problem(spec, operator)
        assert verify_corollary_hypothesis(problem, domain, 1000, seed=0).certified

    def test_weak_repro_is_falsified(self):
        # c = 0.501 > k: the inequality fails at the orbit pairs (x, 0.501 x),
        # which the uniform pairs miss at this seed
        T = OperatorSpec(lambda x: 0.501 * x, "scale")
        space = get_space("max_unit_interval")
        problem = PartialProblem(space.distance, T, ContractionSpec("weak", k=0.5, alpha=8.0))
        assert not verify_corollary_hypothesis(problem, space.domain, 1000, seed=0).certified

    def test_shifted_space_cannot_satisfy_banach(self):
        # self-distance is at least the unit element, so at x = y = 0 the
        # left side is the unit and k times it can never dominate
        space = get_space("shifted_max_matrix")
        problem = PartialProblem(space.distance, get_operator("halving"),
                                 ContractionSpec("plain", k=0.9))
        lhs, rhs = corollary_sides(problem, 0.0, 0.0)
        assert not alg.leq(lhs, rhs)
        result = verify_corollary_hypothesis(problem, space.domain, 2000, seed=0)
        assert not result.certified


class TestReductionConsistency:
    def test_banach_implies_plain_on_same_samples(self):
        problem, domain = max_problem(ContractionSpec("plain", k=0.5))
        d, phi, F, spec = reduce_problem(problem)
        direct = verify_corollary_hypothesis(problem, domain, 1000, seed=11)
        reduced = verify_contraction(
            spec, problem.T, d, phi, F, domain, 1000, seed=11
        )
        assert direct.certified and reduced.certified

    def test_per_sample_identity(self):
        # sum-combiner sides collapse to twice the partial-metric sides:
        # 2 p(Tx,Ty) <= 2 k p(x,y) is exactly the corollary inequality doubled
        problem, domain = max_problem(ContractionSpec("plain", k=0.5))
        d, phi, F, spec = reduce_problem(problem)
        p, T = problem.p, problem.T
        xs = sample_points(domain, 200, seed=12)
        ys = sample_points(domain, 200, seed=13)
        for x, y in zip(xs, ys):
            lhs = F(d(T(x), T(y)), phi(T(x)), phi(T(y)))
            rhs = alg.scale(spec.k, F(d(x, y), phi(x), phi(y)))
            assert alg.norm(alg.sub(lhs, alg.scale(2.0, p(T(x), T(y))))) <= 1e-14
            assert alg.norm(alg.sub(rhs, alg.scale(2.0 * spec.k, p(x, y)))) <= 1e-14


class TestSolvePartial:
    def test_max_space_halving(self):
        problem, domain = max_problem(ContractionSpec("plain", k=0.5))
        result = solve_partial(problem, SolveConfig(x0=1.0, tol=1e-10, domain=domain))
        assert result.certified
        assert abs(result.certificate.z) <= 1e-10
        assert result.self_distance_norm <= 1e-10

    def test_zero_self_distance_space_halving(self):
        space = get_space("absdiff_pair")
        problem = PartialProblem(space.distance, get_operator("halving"),
                                 ContractionSpec("plain", k=0.5))
        result = solve_partial(problem, SolveConfig(x0=1.0, tol=1e-10, domain=space.domain))
        assert result.certified
        assert result.self_distance_norm == 0.0

    @pytest.mark.parametrize("space_name", ["max_unit_interval", "shifted_max_matrix", "absdiff_pair"])
    @pytest.mark.parametrize("operator", ["halving", "identity"])
    @pytest.mark.parametrize("x0", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("max_iter", [3, 10_000])
    def test_self_distance_fields_are_the_certificates(self, space_name, operator, x0, max_iter):
        space = get_space(space_name)
        problem = PartialProblem(space.distance, get_operator(operator),
                                 ContractionSpec("plain", k=0.5))
        cfg = SolveConfig(x0=x0, tol=1e-10, max_iter=max_iter, domain=space.domain)
        result = solve_partial(problem, cfg)
        cert = result.certificate
        # the penalty is p(x, x), so its residual at z is the self-distance
        self_norm = alg.norm(problem.p(cert.z, cert.z))
        assert result.self_distance_norm.hex() == self_norm.hex() == cert.residual_phi.hex()
        assert result.certified is cert.converged
        assert result.certified == (cert.converged and self_norm <= cfg.tol)

    def test_success_implies_both_residuals(self):
        problem, domain = max_problem(ContractionSpec("kannan", k=1 / 3), "quartering")
        result = solve_partial(problem, SolveConfig(x0=1.0, tol=1e-10, domain=domain))
        assert result.certified
        assert result.certificate.residual_fixed <= 1e-10
        assert result.self_distance_norm <= 1e-10
