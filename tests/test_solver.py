import csv
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cstarfix import algebra as alg
from cstarfix.contractions import (
    ContractionSpec,
    OperatorSpec,
    PhiFunction,
    square_first_combiner,
    sum_combiner,
    verify_contraction,
    zero_phi,
)
from cstarfix.partial import PartialProblem, reduce_problem, solve_partial
from cstarfix.registry import get_operator, get_phi, get_space
from cstarfix.solver import (
    NonFiniteOrbitError,
    OrbitEscapeError,
    SolveConfig,
    SolverError,
    bound_audit,
    certify_phi_fixed_point,
    picard_solve,
    uniqueness_probe,
)
from cstarfix.spaces import Interval, ValuedDistance, rowwise
from helpers import (
    expect,
    reference_bound_audit,
    reference_picard_solve,
    reference_uniqueness_probe,
    valid_constants,
)


def sum_premetric_problem():
    space = get_space("sum_premetric")
    return dict(
        T=get_operator("halving"),
        d=space.distance,
        phi=get_phi("coordinate_pair"),
        F=sum_combiner(),
        spec=ContractionSpec("plain", k=0.5),
        domain=space.domain,
    )


def abs_metric():
    return ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")


class TestPicardSolve:
    def test_halving_orbit_reaches_zero(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-10, domain=prob["domain"]),
        )
        assert cert.converged
        assert cert.iterations <= 64
        assert cert.residual_fixed <= 1e-10
        assert cert.residual_phi <= 1e-10
        assert abs(cert.z) <= 1e-10

    def test_paired_coordinates_reach_origin(self):
        space = get_space("diag_absdiff_matrix")
        cert = picard_solve(
            get_operator("halving"),
            space.distance,
            get_phi("spread_matrix"),
            square_first_combiner(),
            ContractionSpec("weak", k=0.5, alpha=4.0),
            SolveConfig(x0=np.array([1.0, 1.0]), tol=1e-10, domain=space.domain),
        )
        assert cert.converged
        assert np.max(np.abs(cert.z)) <= 1e-9

    def test_identity_on_premetric_never_converges(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            get_operator("identity"), prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=0.3, tol=1e-10, max_iter=50),
        )
        # d(0.3, 0.3) = (0, 0.6): the step criterion never fires
        assert not cert.converged
        assert cert.residual_phi == pytest.approx(0.3)

    def test_stalled_orbit_with_nonzero_penalty_fails(self):
        # identity on a genuine metric halts immediately with zero step and
        # zero fixed-point residual, but a nonzero penalty blocks success
        phi = get_phi("self_max")
        cert = picard_solve(
            get_operator("identity"), abs_metric(), phi, sum_combiner(),
            ContractionSpec("plain", k=0.5), SolveConfig(x0=0.3, tol=1e-10),
        )
        assert cert.iterations == 1
        assert cert.residual_fixed == 0.0
        assert cert.residual_phi == pytest.approx(0.3)
        assert not cert.converged

    def test_step_norms_decay_geometrically(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-12),
        )
        r = cert.rate_used
        for a, b, na, nb in zip(
            cert.step_norms, cert.step_norms[1:],
            cert.recorded_indices, cert.recorded_indices[1:],
        ):
            if nb == na + 1:
                assert b <= r * a + 1e-12

    def test_bounds_decay_by_exact_rate(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-12),
        )
        for a, b, na, nb in zip(
            cert.apriori_bounds, cert.apriori_bounds[1:],
            cert.recorded_indices, cert.recorded_indices[1:],
        ):
            if nb == na + 1:
                assert b == cert.rate_used * a  # exact by construction

    def test_phi_residual_decays_with_envelope(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-12),
        )
        # envelope at n for the penalty is k^n * ||F0|| = bound * (1 - r)
        for q, b in zip(cert.phi_residuals, cert.apriori_bounds):
            assert q <= b * (1 - cert.rate_used) + 1e-12

    def test_certificate_replay_is_identical(self):
        prob = sum_premetric_problem()
        cfg = SolveConfig(x0=0.77, tol=1e-10)
        runs = [
            picard_solve(prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"], cfg)
            for _ in range(2)
        ]
        payloads = [json.dumps(c.to_dict(), sort_keys=True) for c in runs]
        assert payloads[0] == payloads[1]

    def test_operator_called_once_per_iteration_plus_residual(self):
        # T(x0) feeds both the initial envelope and the first step; the final
        # residual adds one more call. The golden CLI outputs pin the bytes.
        prob = sum_premetric_problem()
        calls = []
        counted = OperatorSpec(lambda x: calls.append(x) or prob["T"](x), "counted-halving")
        cfg = SolveConfig(x0=1.0, tol=1e-10)
        cert = picard_solve(counted, prob["d"], prob["phi"], prob["F"], prob["spec"], cfg)
        assert len(calls) == cert.iterations + 1
        plain = picard_solve(prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"], cfg)
        assert json.dumps(cert.to_dict()) == json.dumps(plain.to_dict())

    def test_distance_called_once_per_iteration_plus_residual(self):
        # d(T x0, x0) feeds both the initial envelope and the first step norm
        calls = []
        d = ValuedDistance(
            "scalar", 1, lambda x, y: calls.append((x, y)) or alg.scalar(abs(x - y)), "metric")
        cert = picard_solve(
            scale_map(0.5), d, zero_phi("scalar"), sum_combiner(), ContractionSpec("plain", k=0.5),
            SolveConfig(x0=1.0, tol=1e-10),
        )
        assert len(calls) == cert.iterations + 1

    def test_orbit_escape_detected(self):
        prob = sum_premetric_problem()
        grower = OperatorSpec(lambda x: 2.0 * x + 0.1, "grower")
        with pytest.raises(OrbitEscapeError) as exc:
            picard_solve(
                grower, prob["d"], prob["phi"], prob["F"], prob["spec"],
                SolveConfig(x0=0.9, tol=1e-10, domain=Interval(0.0, 1.0)),
            )
        assert exc.value.index >= 0

    def test_csv_trace_columns(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-10),
        )
        lines = cert.to_csv().strip().splitlines()
        assert lines[0] == "n,step_norm,apriori_bound,phi_residual"
        assert len(lines) == len(cert.recorded_indices) + 1

    def test_bad_config_rejected(self):
        # an infinite tol would certify any first step, a nan one none
        for tol in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                SolveConfig(x0=0.0, tol=tol)
        with pytest.raises(ValueError):
            SolveConfig(x0=0.0, max_iter=0)


def interval_problem(distance):
    """A scalar user distance built on alg.scalar, or a registry distance."""
    if distance == "user":
        return abs_metric(), zero_phi("scalar")
    return get_space("sum_premetric").distance, get_phi("coordinate_pair")


def box_problem():
    space = get_space("diag_absdiff_matrix")
    return space.distance, get_phi("spread_matrix"), space.domain


class TestNonFiniteOrbit:
    """An iterate that overflows or turns NaN ends the solve with
    NonFiniteOrbitError at its step, before any distance is taken to it, and
    is reported as such although it is also outside the domain."""

    @staticmethod
    def solve(T, d, phi, x0, domain):
        return picard_solve(
            T, d, phi, sum_combiner(), ContractionSpec("plain", k=0.5),
            SolveConfig(x0=x0, tol=1e-10, domain=domain),
        )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("distance", ["user", "registry"])
    @pytest.mark.parametrize("x0, step", [(0.2, 0), (0.5, 1)])
    # an unbounded domain holds an infinite point, which is still no iterate
    @pytest.mark.parametrize("domain", [Interval(0.0, 1.0), Interval(-np.inf, np.inf), None],
                             ids=["unit", "unbounded", "none"])
    def test_interval_orbit(self, bad, distance, x0, step, domain):
        # halves above 0.3, then jumps to a non-finite point
        T = OperatorSpec(lambda x: 0.5 * x if x > 0.3 else bad * x, "breaks")
        d, phi = interval_problem(distance)
        with pytest.raises(NonFiniteOrbitError) as exc:
            self.solve(T, d, phi, x0, domain)
        assert exc.value.index == step

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("x0, step", [([0.2, -0.1], 0), ([0.5, -0.25], 1)])
    def test_box_orbit(self, bad, x0, step):
        T = OperatorSpec(lambda x: 0.5 * x if x[0] > 0.3 else bad * x, "breaks")
        d, phi, domain = box_problem()
        with pytest.raises(NonFiniteOrbitError) as exc:
            self.solve(T, d, phi, np.array(x0), domain)
        assert exc.value.index == step

    @pytest.mark.parametrize("fn, error, step", [
        (lambda x: 3.0 * x, OrbitEscapeError, 1),  # (0.2, -0.1), (0.6, -0.3), (1.8, -0.9)
        (lambda x: 0.5, OrbitEscapeError, 0),  # a box holds no float point
        (lambda x: np.inf, NonFiniteOrbitError, 0),
    ], ids=["tripling", "float", "infinite-float"])
    def test_box_orbit_leaves_the_box(self, fn, error, step):
        d, phi, domain = box_problem()
        with pytest.raises(error) as exc:
            self.solve(OperatorSpec(fn, "leaves"), d, phi, np.array([0.2, -0.1]), domain)
        assert exc.value.index == step

    def test_escape_on_first_step_precedes_envelope(self):
        # the distance is never taken to a point outside the domain
        def inside_only(x, y):
            assert -1.0 <= x <= 1.0 and -1.0 <= y <= 1.0
            return alg.scalar(abs(x - y))

        d = ValuedDistance("scalar", 1, inside_only, "metric")
        T = OperatorSpec(lambda x: 4.0 * x, "quadrupling")
        with pytest.raises(OrbitEscapeError) as exc:
            self.solve(T, d, zero_phi("scalar"), 0.5, Interval(-1.0, 1.0))
        assert exc.value.index == 0 and exc.value.point == 2.0


class TestCertify:
    def test_origin_is_phi_fixed(self):
        prob = sum_premetric_problem()
        res = certify_phi_fixed_point(0.0, prob["T"], prob["d"], prob["phi"])
        assert res["is_fixed"] and res["is_phi_zero"]

    def test_half_is_not_fixed(self):
        prob = sum_premetric_problem()
        res = certify_phi_fixed_point(0.5, prob["T"], prob["d"], prob["phi"])
        assert not res["is_fixed"]
        assert res["residual_fixed"] == pytest.approx(0.75)  # (0, 0.5 + 0.25)

    def test_phi_zero_alone(self):
        prob = sum_premetric_problem()
        res = certify_phi_fixed_point(0.0, get_operator("identity"), prob["d"], prob["phi"])
        assert res["is_phi_zero"]


class TestBoundAudit:
    def test_halving_orbit_respects_bounds(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-10),
        )
        audit = bound_audit(cert, prob["d"])
        assert audit["passed"]
        assert audit["max_violation"] <= 1e-9

    def test_first_bound_value(self):
        # F0 = F(d(1/2,1), phi(1/2), phi(1)) = (3/2, 3), norm 3, rate 1/2:
        # bound at n=0 is 3 / (1 - 1/2) = 6
        prob = sum_premetric_problem()
        cert = picard_solve(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=1.0, tol=1e-10),
        )
        assert cert.apriori_bounds[0] == pytest.approx(6.0)

    def test_kannan_orbit_audit(self):
        cert = picard_solve(
            get_operator("quartering"),
            abs_metric(),
            zero_phi("scalar"),
            sum_combiner(),
            ContractionSpec("kannan", k=1 / 3),
            SolveConfig(x0=1.0, tol=1e-10),
        )
        assert cert.rate_used == pytest.approx(0.5)
        audit = bound_audit(cert, abs_metric())
        assert audit["passed"]

    @staticmethod
    def chatterjea_halving(k, samples):
        """Certify Chatterjea(k) for T = x/2 on [-1, 1], then solve from 1 and audit."""
        d, T, dom = abs_metric(), get_operator("halving"), Interval(-1.0, 1.0)
        spec, phi, F = ContractionSpec("chatterjea", k=k), zero_phi("scalar"), sum_combiner()
        result = verify_contraction(spec, T, d, phi, F, dom, samples, seed=0)
        cert = picard_solve(T, d, phi, F, spec, SolveConfig(x0=1.0, tol=1e-10, domain=dom))
        return result, cert, bound_audit(cert, d)

    @pytest.mark.parametrize("k", [0.34, 0.4])
    def test_chatterjea_orbit_audit(self, k):
        # T = x/2 meets the Chatterjea inequality for every k >= 1/3 while its
        # orbit contracts at 1/2 > k, so a rate of k undercuts the orbit
        result, cert, audit = self.chatterjea_halving(k, 20_000)
        assert result.certified and cert.converged
        assert audit["passed"], audit["max_violation"]

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1 / 3, 0.5, exclude_min=True, exclude_max=True))
    def test_certified_chatterjea_orbit_passes_audit(self, k):
        result, cert, audit = self.chatterjea_halving(k, 1000)
        assert result.certified and cert.converged
        assert audit["passed"], audit["max_violation"]

    def test_audit_requires_convergence(self):
        prob = sum_premetric_problem()
        cert = picard_solve(
            get_operator("identity"), prob["d"], prob["phi"], prob["F"], prob["spec"],
            SolveConfig(x0=0.5, tol=1e-10),
        )
        with pytest.raises(SolverError):
            bound_audit(cert, prob["d"])


# Reference copy of the certificate serialisation over list-backed trace
# columns of Python floats. The array-backed certificate must give the same
# bytes.


def _ref_trace(cert):
    return (
        list(cert.recorded_indices),
        [float(v) for v in cert.step_norms],
        [float(v) for v in cert.apriori_bounds],
        [float(v) for v in cert.phi_residuals],
    )


def _ref_to_dict(cert) -> dict:
    indices, steps, bounds, phis = _ref_trace(cert)
    return {
        "converged": cert.converged,
        "iterations": cert.iterations,
        "z": float(cert.z) if np.ndim(cert.z) == 0 else [float(v) for v in cert.z],
        "residual_fixed": cert.residual_fixed,
        "residual_phi": cert.residual_phi,
        "rate_used": cert.rate_used,
        "weak_bounds": cert.weak_bounds,
        "trace": [
            {"n": n, "step_norm": s, "apriori_bound": b, "phi_residual": q}
            for n, s, b, q in zip(indices, steps, bounds, phis)
        ],
    }


def _ref_to_csv(cert) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "step_norm", "apriori_bound", "phi_residual"])
    for n, s, b, q in zip(*_ref_trace(cert)):
        writer.writerow([n, repr(s), repr(b), repr(q)])
    return buf.getvalue()


def slow_orbit():
    """T x = 0.99 x from 0.9: a long orbit whose trace is recorded sparsely."""
    d = abs_metric()
    cert = picard_solve(
        OperatorSpec(lambda x: 0.99 * x, "slow"), d, zero_phi("scalar"), sum_combiner(),
        ContractionSpec("plain", k=0.99), SolveConfig(x0=0.9, tol=1e-10, max_iter=10_000),
    )
    return cert, d


class TestCertificateOutput:
    def certificates(self):
        prob = sum_premetric_problem()
        space = get_space("diag_absdiff_matrix")
        return [
            slow_orbit()[0],
            picard_solve(
                prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
                SolveConfig(x0=1.0, tol=1e-10),
            ),
            picard_solve(
                get_operator("halving"), space.distance, get_phi("spread_matrix"),
                sum_combiner(), ContractionSpec("plain", k=0.5),
                SolveConfig(x0=np.array([1.0, -0.5]), tol=1e-10, domain=space.domain),
            ),
        ]

    def test_trace_columns_are_float64_arrays(self):
        for cert in self.certificates():
            rows = len(cert.recorded_indices)
            for column in (cert.step_norms, cert.apriori_bounds, cert.phi_residuals):
                assert column.dtype == np.float64 and column.shape == (rows,)
            assert cert.iterates.dtype == np.float64 and len(cert.iterates) == rows
            assert all(type(n) is int for n in cert.recorded_indices)

    def test_serialisation_matches_list_backed_reference(self):
        for cert in self.certificates():
            assert json.dumps(cert.to_dict()) == json.dumps(_ref_to_dict(cert))
            text = cert.to_csv()
            assert text == _ref_to_csv(cert)
            assert "np.float64(" not in text

    def test_sparse_trace_audit_rows(self):
        cert, d = slow_orbit()
        assert cert.converged and cert.iterations > 1000
        indices = cert.recorded_indices
        assert indices[:65] == list(range(65))
        assert indices[65:] == list(range(128, cert.iterations, 64))
        audit = bound_audit(cert, d)
        assert audit["passed"]
        _, _, bounds, _ = _ref_trace(cert)
        iterates = [float(x) for x in cert.iterates]
        want = []
        for x, n, bound in zip(iterates, indices, bounds):
            actual = alg.norm(d(x, cert.z))
            want.append({"n": n, "actual": actual, "bound": bound, "violation": actual - bound})
        assert audit["rows"] == want
        assert json.dumps(audit["rows"]) == json.dumps(want)
        for row in audit["rows"]:
            assert type(row["n"]) is int
            assert all(type(row[k]) is float for k in ("actual", "bound", "violation"))


class TestUniquenessProbe:
    def test_halving_limits_agree(self):
        prob = sum_premetric_problem()
        report = uniqueness_probe(
            prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
            starts=[0.0, 0.3, 1.0],
            cfg=SolveConfig(x0=0.0, tol=1e-10),
        )
        assert report["all_below_tol"]
        assert len(report["pairwise"]) == 3

    def test_matrix_problem_corner_starts(self):
        space = get_space("diag_absdiff_matrix")
        report = uniqueness_probe(
            get_operator("halving"),
            space.distance,
            get_phi("spread_matrix"),
            square_first_combiner(),
            ContractionSpec("weak", k=0.5, alpha=4.0),
            starts=[np.array(c, dtype=float) for c in
                    [(1, 1), (-1, 1), (1, -1), (-1, -1)]],
            cfg=SolveConfig(x0=np.zeros(2), tol=1e-10),
        )
        assert report["all_below_tol"]
        for z in report["limits"]:
            assert np.max(np.abs(z)) <= 1e-9

    @staticmethod
    def probe(T, starts):
        return uniqueness_probe(
            T, abs_metric(), zero_phi("scalar"), sum_combiner(), ContractionSpec("plain", k=0.5),
            starts=starts, cfg=SolveConfig(x0=0.0, tol=1e-10, domain=Interval(-1.0, 1.0)),
        )

    def test_non_finite_orbit_keeps_its_type(self):
        with pytest.raises(NonFiniteOrbitError) as exc:
            self.probe(OperatorSpec(lambda x: x * np.inf, "blows-up"), [0.5, -0.5])
        assert exc.value.index == 0
        assert exc.value.__notes__ == ["in the solve from start #0"]

    def test_escape_keeps_its_type(self):
        # start #0 is the fixed point; start #1 leaves [-1, 1] on its first step
        with pytest.raises(OrbitEscapeError) as exc:
            self.probe(OperatorSpec(lambda x: 3.0 * x, "tripling"), [0.0, 0.5])
        assert exc.value.index == 0 and exc.value.point == 1.5
        assert exc.value.__notes__ == ["in the solve from start #1"]

    def test_single_start_rejected(self):
        prob = sum_premetric_problem()
        with pytest.raises(ValueError):
            uniqueness_probe(
                prob["T"], prob["d"], prob["phi"], prob["F"], prob["spec"],
                starts=[0.5],
                cfg=SolveConfig(x0=0.5),
            )


def scale_map(c, per_point=False):
    def fn(x):
        return c * x

    return OperatorSpec(fn if per_point else rowwise(fn), "scale")


def user_problem(c):
    """Per-point user callables on [-1, 1]: the orbit of c x under |x - y|."""
    phi = PhiFunction(lambda x: alg.scalar(0.5 * abs(x)), "half-abs")
    return scale_map(c, per_point=True), abs_metric(), phi, sum_combiner(), Interval(-1.0, 1.0)


def registry_problem(space_name, phi_name, c):
    space = get_space(space_name)
    return scale_map(c), space.distance, get_phi(phi_name), sum_combiner(), space.domain


def partial_problem(c):
    problem = PartialProblem(get_space("max_unit_interval").distance, scale_map(c),
                             ContractionSpec("plain", k=c))
    d, phi, F, _ = reduce_problem(problem)
    return problem, (problem.T, d, phi, F, Interval(0.0, 1.0))


def outcome(fn, *args):
    """The JSON bytes of fn's result, or the type and message of its error."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, dict) and "certificates" in result:
        result = {**result, "certificates": [c.to_dict() for c in result["certificates"]]}
    return json.dumps(result)


def corner(domain, u, v):
    """The point (u, v) of the unit square mapped into domain."""
    if isinstance(domain, Interval):
        return domain.lo + u * (domain.hi - domain.lo)
    return np.array([iv.lo + w * (iv.hi - iv.lo) for iv, w in zip(domain.intervals, (u, v))])


class TestStackedColumns:
    """The solver evaluates phi, the audit distances and the probe distances
    as one stack each; the per-point loop in tests/helpers.py is the
    reference for their bytes and for the order of errors."""

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(0.05, 0.9), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    @pytest.mark.parametrize("case", ["user", "sum_premetric", "diag_absdiff_matrix", "partial"])
    def test_output_matches_per_point_reference(self, case, c, u, v):
        if case == "partial":
            problem, (T, d, phi, F, domain) = partial_problem(c)
        elif case == "user":
            T, d, phi, F, domain = user_problem(c)
        elif case == "sum_premetric":
            T, d, phi, F, domain = registry_problem(case, "coordinate_pair", c)
        else:
            T, d, phi, F, domain = registry_problem(case, "spread_matrix", c)
        spec = ContractionSpec("plain", k=c)
        cfg = SolveConfig(x0=corner(domain, u, v), tol=1e-10, domain=domain)
        cert = picard_solve(T, d, phi, F, spec, cfg)
        want = reference_picard_solve(T, d, phi, F, spec, cfg)
        assert json.dumps(cert.to_dict()) == json.dumps(want.to_dict())
        assert cert.to_csv() == want.to_csv()
        assert outcome(bound_audit, cert, d) == outcome(reference_bound_audit, want, d)
        starts = [cfg.x0, corner(domain, v, u), corner(domain, 1.0, 0.0)]
        args = (T, d, phi, F, spec, starts, cfg)
        assert outcome(uniqueness_probe, *args) == outcome(reference_uniqueness_probe, *args)
        if case == "partial":
            result = solve_partial(problem, cfg)
            assert json.dumps(result.certificate.to_dict()) == json.dumps(want.to_dict())

    def test_per_point_phi_called_once_per_recorded_row(self):
        # phi(T x0) and phi(x0) build the envelope and phi(z) is the final
        # residual; every other call is one row of the stacked phi column
        calls = []
        phi = PhiFunction(lambda x: calls.append(x) or alg.scalar(0.5 * abs(x)), "counted")
        cert = picard_solve(
            scale_map(0.99), abs_metric(), phi, sum_combiner(), ContractionSpec("plain", k=0.99),
            SolveConfig(x0=0.9, tol=1e-10),
        )
        assert cert.iterations > 1000
        assert len(calls) == len(cert.recorded_indices) + 3

    class PhiFailed(Exception):
        pass

    class StepFailed(Exception):
        pass

    @pytest.mark.parametrize(
        "phi_below, T_below, error",
        [(0.3, 0.1, PhiFailed), (0.2, 0.3, StepFailed), (0.3, 0.3, StepFailed),
         (0.0, 0.1, StepFailed)],
        ids=["phi-at-earlier-row", "step-before-phi-row", "same-point", "phi-fine"],
    )
    def test_phi_error_precedes_a_later_step_error(self, phi_below, T_below, error):
        # the orbit 1, 1/2, 1/4, 1/8, ...: phi fails at the first iterate below
        # phi_below, T at the first below T_below
        def T_fn(x):
            if x < T_below:
                raise self.StepFailed(x)
            return 0.5 * x

        def phi_fn(x):
            if x < phi_below:
                raise self.PhiFailed(x)
            return alg.scalar(x)

        args = (OperatorSpec(T_fn, "halving"), abs_metric(), PhiFunction(phi_fn, "identity"),
                sum_combiner(), ContractionSpec("plain", k=0.5), SolveConfig(x0=1.0, tol=1e-10))
        with pytest.raises(error) as got:
            picard_solve(*args)
        with pytest.raises(error) as want:
            reference_picard_solve(*args)
        assert got.value.args == want.value.args


def _certified_edge(hypothesis, family, constants, inside, outside):
    """The last c from inside towards outside that the closed form certifies,
    by bisection: the certified c are an interval around inside."""
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        if hypothesis(family, constants, mid) == expect.CERTIFY:
            inside = mid
        else:
            outside = mid
    return inside


def _solve_linear(setup, spec, c, u):
    """(certificate, audit distance) of T x = c x from the point u of the unit
    interval mapped into the setup's domain."""
    T = scale_map(c)
    if setup == "partial":
        problem = PartialProblem(get_space("max_unit_interval").distance, T, spec)
        cfg = SolveConfig(x0=u, tol=expect.SOLVE_TOL, max_iter=2000)
        return solve_partial(problem, cfg).certificate, reduce_problem(problem)[0]
    if setup == "metric":
        d, phi, domain = abs_metric(), zero_phi("scalar"), Interval(-1.0, 1.0)
    else:
        space = get_space("sum_premetric")
        d, phi, domain = space.distance, get_phi("coordinate_pair"), space.domain
    cfg = SolveConfig(x0=corner(domain, u, 0.0), tol=expect.SOLVE_TOL, max_iter=2000,
                      domain=domain)
    return picard_solve(T, d, phi, sum_combiner(), spec, cfg), d


_HYPOTHESES = {  # the closed form of each setup, and the lower end of its range of c
    "metric": (expect.scalar_metric_hypothesis, -1.0),
    "sum_premetric": (expect.sum_premetric_hypothesis, 0.0),
    "partial": (expect.max_partial_hypothesis, 0.0),
}


class TestRateSoundness:
    """A hypothesis that holds everywhere plus a converged orbit never gives
    a violated a-priori bound: over each family's constants, T x = c x with c
    certified by the closed forms of bench/expect.py, half of the draws at the
    largest such c, where a rate derived too small fails first."""

    @settings(max_examples=300, deadline=None)
    @given(setup=st.sampled_from(sorted(_HYPOTHESES)),
           case=st.sampled_from(expect.FAMILIES).flatmap(
               lambda f: st.tuples(st.just(f), valid_constants(f))),
           at_edge=st.booleans(), w=st.floats(0, 1), u=st.floats(0, 1))
    def test_certified_converged_orbit_passes_audit(self, setup, case, at_edge, w, u):
        (family, constants), (hypothesis, lower) = case, _HYPOTHESES[setup]
        # the Chatterjea inequality on sum_premetric fails near y = 0 for every c
        assume(hypothesis(family, constants, 0.0) == expect.CERTIFY)
        top = _certified_edge(hypothesis, family, constants, 0.0, 1.0)
        low = _certified_edge(hypothesis, family, constants, 0.0, lower)
        c = top if at_edge else min(top, low + w * (top - low))
        assert hypothesis(family, constants, c) == expect.CERTIFY
        cert, d = _solve_linear(setup, ContractionSpec(family, **constants), c, u)
        if cert.converged:
            audit = bound_audit(cert, d)
            assert audit["passed"], (audit["max_violation"], cert.rate_used)
