"""Self-tests of the benchmark harness: python3 -m pytest bench"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import expect  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from expect import ANY, CERTIFY, EITHER, FALSIFY, Near  # noqa: E402


# percentile and sample-count rule


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.90) == 90
    assert harness.percentile(list(reversed(values)), 0.90) == 90


def test_p90_needs_ten_samples_beyond_it():
    assert harness.percentile(list(range(100)), 0.90) == 89
    with pytest.raises(ValueError, match="10 samples beyond"):
        harness.percentile(list(range(99)), 0.90)
    assert harness.percentile([3.0, 1.0, 2.0], 0.50) == 2.0


def test_median():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 2, 3]) == 2.5


# self time with nested spans


def test_self_time_subtracts_direct_children():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 3.0, 4.0, 1.0])
    assert tracing.self_times(parent, duration).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_outermost_skips_members_nested_in_members():
    parent = np.array([-1, 0, 1, -1, 3])
    member = np.array([True, False, True, False, True])
    assert tracing.outermost(parent, member).tolist() == [True, False, False, False, True]


def test_wrappers_record_parents_verdicts_and_collapse_recursion():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracing._wrap(tracer, inner, "inner")

    def outer(x, depth):
        return wrapped_outer(x, depth - 1) if depth else wrapped_inner(x)

    wrapped_outer = tracing._wrap(tracer, outer, "outer")
    tracer.current_verdict = 7
    assert wrapped_outer(1, 3) == 2
    spans = tracer.arrays()
    # the recursive outer calls are one span; inner is its child
    assert [tracer.names[i] for i in spans["name"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["verdict"].tolist() == [7, 7]
    assert (spans["end"] >= spans["start"]).all()
    own = tracing.self_times(spans["parent"], spans["end"] - spans["start"])
    assert own[0] <= spans["end"][0] - spans["start"][0]


# expectation table


def test_check_flags_a_wrong_verdict():
    assert expect.check({"certified": True}, {"certified": True}) == []
    assert expect.check({"certified": True}, {"certified": False}) == [
        "certified: expected True, got False"]
    assert expect.check({"certified": ANY}, {"certified": False}) == []
    assert expect.check({"certified": ANY}, {}) == ["certified: missing (expected ANY)"]
    assert expect.check({"z": Near(1.0, 1e-9)}, {"z": 1.0 + 1e-12}) == []
    assert expect.check({"z": Near(1.0, 1e-9)}, {"z": 1.1}) != []


def test_table_follows_the_mathematics():
    # plain k = 1/2 with halving on the sum premetric: the ratio is exactly 1/2
    assert expect.sum_premetric_hypothesis("plain", {"k": 0.5}, 0.5) == CERTIFY
    assert expect.sum_premetric_hypothesis("plain", {"k": 0.4}, 0.5) == FALSIFY
    assert expect.scalar_metric_hypothesis("chatterjea", {"k": 0.34}, 0.5) == CERTIFY
    assert expect.scalar_metric_hypothesis("chatterjea", {"k": 0.3}, 0.5) == EITHER
    assert expect.max_partial_hypothesis("kannan", {"k": 0.2}, 0.5) == FALSIFY
    # x -> x / 2 from 1: the step 2^-(n+1) first drops below 1e-10 at n = 33
    orbit = expect.linear_orbit(0.5, 1.0, 100, 0.5)
    assert orbit.converged and orbit.iterations == 34 and orbit.z == 2.0**-34
    assert not expect.linear_orbit(0.99, 1.0, 100, 0.01).converged


def _verify_op(k: float):
    from cstarfix import contractions, registry

    import workloads

    space = registry.get_space("sum_premetric")
    spec = contractions.ContractionSpec("plain", k=k)
    return harness.Op(
        "verify.plain",
        lambda: contractions.verify_contraction(
            spec, registry.get_operator("halving"), space.distance,
            registry.get_phi("coordinate_pair"), registry.get_combiner("sum"),
            space.domain, 200, 0),
        workloads._verify_fields,
        expect.verdict_fields(expect.sum_premetric_hypothesis("plain", {"k": k}, 0.5)),
        samples=200,
    )


def test_pass_catches_a_deliberately_wrong_verdict():
    good = _verify_op(0.4)
    wrong = _verify_op(0.4)
    wrong.expected = expect.verdict_fields(CERTIFY)  # k = 0.4 < 1/2 cannot certify
    result = harness.run_pass([good, wrong])
    assert result.outcomes[0].problems == []
    assert result.outcomes[1].problems == ["certified: expected True, got False"]


def test_raising_verdict_counts_as_a_failure_and_digest_repeats():
    def boom():
        raise RuntimeError("boom")

    ops = [_verify_op(0.5), harness.Op("boom", boom, lambda r: ({}, {}), {})]
    first, second = harness.run_pass(ops), harness.run_pass(ops)
    assert first.outcomes[0].problems == []
    assert first.outcomes[1].problems == ["raised RuntimeError('boom')"]
    assert first.digest == second.digest


# holdout seed: never used while the workloads and the table were written

HOLDOUT_SEED = 7919


@pytest.mark.parametrize("workload", ["matrix_certify", "cli_session", "picard_orbits"])
def test_holdout_seed_matches_the_table(workload, tmp_path):
    import workloads

    result = harness.run_pass(workloads.WORKLOADS[workload](HOLDOUT_SEED, tmp_path))
    assert [(o.label, o.problems) for o in result.outcomes if o.problems] == []


def test_chatterjea_audit_checks_the_sound_envelope():
    from cstarfix import contractions, registry, solver

    import workloads

    # x -> x / 2 on [-1, 1] satisfies Chatterjea with k = 0.34 >= (1/2) / (3/2),
    # so its orbit obeys the envelope of k / (1 - k), not necessarily that of k
    d, interval, zero = workloads._scalar_metric()
    spec = contractions.ContractionSpec("chatterjea", k=0.34)
    cert = solver.picard_solve(
        workloads._linear(0.5), d, zero, registry.get_combiner("sum"), spec,
        solver.SolveConfig(x0=1.0, tol=expect.SOLVE_TOL, domain=interval))
    audit = solver.bound_audit(cert, d)
    fields, _ = workloads._orbit_audit("chatterjea", {"k": 0.34}, CERTIFY)((audit, cert.rate_used))
    assert fields["within_sound_bound"] is True
    assert fields.get("_defect", "") == ("" if audit["passed"] else "chatterjea-rate")
    # the same rows against a rate that is too small leave the envelope
    assert not expect.within_envelope(audit["rows"], cert.rate_used, 0.1)

