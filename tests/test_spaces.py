
import functools

import numpy as np
import pytest

from cstarfix import algebra as alg
from cstarfix import spaces
from cstarfix.registry import get_space
from cstarfix.spaces import (
    Box,
    Interval,
    SequenceProbe,
    ValuedDistance,
    cauchy_equivalence_probe,
    check_metric_axioms,
    check_partial_axioms,
    converges_to,
    induced_metric,
    partial_cauchy_residual,
)
from helpers import sample_points, stack_items


def max_partial():
    return get_space("max_unit_interval")


class TestDomains:
    def test_interval_sampling_stays_inside(self):
        dom = Interval(0.0, 1.0)
        for x in sample_points(dom, 200, seed=1):
            assert dom.contains(x)

    def test_box_sampling_stays_inside(self):
        dom = Box([Interval(-1, 1), Interval(2, 3)])
        for x in sample_points(dom, 200, seed=2):
            assert dom.contains(x)

    def test_sampling_is_seed_deterministic(self):
        dom = Interval(0.0, 1.0)
        assert sample_points(dom, 50, seed=7) == sample_points(dom, 50, seed=7)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)


class TestPartialAxioms:
    def test_shifted_max_matrix_passes(self):
        space = get_space("shifted_max_matrix")
        report = check_partial_axioms(space.distance, space.domain, 500, seed=0)
        assert report.all_pass

    def test_absdiff_pair_passes_with_zero_self_distance(self):
        space = get_space("absdiff_pair")
        report = check_partial_axioms(space.distance, space.domain, 500, seed=0)
        assert report.all_pass
        assert alg.norm(space.distance(0.3, 0.3)) == 0.0

    def test_sign_flip_fails_nonnegativity_with_witness(self):
        q = ValuedDistance(
            "vector", 2, lambda x, y: alg.vector([x - y, 0.0]), "partial", "signflip"
        )
        report = check_partial_axioms(q, Interval(0.0, 1.0), 200, seed=0)
        fails = {c.axiom for c in report.failures()}
        assert "nonnegativity" in fails
        witness = next(c for c in report.failures() if c.axiom == "nonnegativity").witness
        assert witness["points"]["x"] < witness["points"]["y"]

    def test_report_serializes(self):
        space = max_partial()
        report = check_partial_axioms(space.distance, space.domain, 100, seed=3)
        d = report.to_dict()
        assert d["all_pass"] and d["seed"] == 3
        assert {c["axiom"] for c in d["checks"]} >= {"nonnegativity", "symmetry", "triangle"}


class TestMetricAxioms:
    def test_absdiff_vector_metric_passes(self):
        d = ValuedDistance(
            "vector", 2, lambda x, y: alg.vector([abs(x - y)] * 2), "metric", "absdiff"
        )
        assert check_metric_axioms(d, Interval(0.0, 1.0), 500, seed=0).all_pass

    def test_sum_premetric_fails_self_distance(self):
        space = get_space("sum_premetric")
        report = check_metric_axioms(space.distance, space.domain, 500, seed=0)
        fails = {c.axiom for c in report.failures()}
        assert fails == {"self-distance-zero"}
        witness = next(iter(report.failures())).witness
        x = witness["points"]["x"]
        # direct evaluation: d(x,x) = (0, 2x)
        assert witness["offending"]["values"][1] == pytest.approx(2 * x)

    def test_diag_absdiff_matrix_passes(self):
        space = get_space("diag_absdiff_matrix")
        assert check_metric_axioms(space.distance, space.domain, 500, seed=0).all_pass


class TestInducedMetric:
    def test_max_reduces_to_absdiff(self):
        # case analysis: 2 max(s,t) - s - t = |s - t|
        ps = induced_metric(max_partial().distance)
        for s, t in [(0.2, 0.9), (0.7, 0.1), (0.4, 0.4)]:
            assert float(ps(s, t).data) == pytest.approx(abs(s - t))

    def test_zero_self_distance_partial_doubles(self):
        space = get_space("absdiff_pair")
        ps = induced_metric(space.distance)
        v = ps(0.2, 0.8)
        assert np.allclose(v.data, 2 * space.distance(0.2, 0.8).data)

    def test_shifted_max_constant_cancels(self):
        space = get_space("shifted_max_matrix")
        ps = induced_metric(space.distance)
        for s, t in [(0.3, 0.8), (0.9, 0.1)]:
            assert np.allclose(ps(s, t).data, abs(s - t) * np.eye(2))

    def test_self_distance_exactly_zero(self):
        ps = induced_metric(max_partial().distance)
        for x in sample_points(Interval(0, 1), 50, seed=1):
            assert alg.norm(ps(x, x)) == 0.0

    def test_induced_passes_metric_axioms_when_partial_passes(self):
        for name in ("max_unit_interval", "absdiff_pair", "shifted_max_matrix"):
            space = get_space(name)
            assert check_partial_axioms(space.distance, space.domain, 300, seed=4).all_pass
            ps = induced_metric(space.distance)
            assert check_metric_axioms(ps, space.domain, 300, seed=4).all_pass

    def test_symmetry_inherited(self):
        space = max_partial()
        ps = induced_metric(space.distance)
        for s, t in zip(sample_points(space.domain, 50, 5), sample_points(space.domain, 50, 6)):
            assert alg.norm(alg.sub(ps(s, t), ps(t, s))) == 0.0


class TestSequenceProbes:
    def test_constant_sequence_residual_is_zero(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 0.5)
        assert alg.norm(partial_cauchy_residual(probe, p, 3, 9)) == 0.0

    def test_geometric_residual_value(self):
        # r = max(2^-3, 2^-5) - (2^-3 + 2^-5)/2 = (2^-3 - 2^-5)/2, residual r^2
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 2.0 ** (-n))
        r = 0.5 * (2.0**-3 - 2.0**-5)
        assert float(partial_cauchy_residual(probe, p, 3, 5).data) == pytest.approx(r * r)

    def test_alternating_residual_bounded_away(self):
        # r = 1 - (0 + 1)/2 = 1/2 at (even, odd), residual 1/4
        p = max_partial().distance
        probe = SequenceProbe(lambda n: float(n % 2))
        assert float(partial_cauchy_residual(probe, p, 2, 3).data) == pytest.approx(0.25)

    def test_converges_to_limit(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 2.0 ** (-n), limit=0.0)
        assert converges_to(probe, p, tol=1e-8, horizon=100) == "yes"

    def test_constant_converges(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 0.7, limit=0.7)
        assert converges_to(probe, p, tol=1e-12, horizon=50) == "yes"

    def test_wrong_limit_detected(self):
        # sequence stuck at 0.9 against claimed limit 0.5: residual stays 0.4
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 0.9, limit=0.5)
        assert converges_to(probe, p, tol=1e-8, horizon=50) == "no"

    def test_slow_sequence_is_inconclusive(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 1.0 / (n + 2), limit=0.0)
        assert converges_to(probe, p, tol=1e-8, horizon=30) == "inconclusive"

    def test_missing_limit_rejected(self):
        p = max_partial().distance
        with pytest.raises(ValueError):
            converges_to(SequenceProbe(lambda n: 0.0), p)

    def test_cauchy_equivalence_geometric(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 2.0 ** (-n))
        report = cauchy_equivalence_probe(probe, p, tol=1e-8, horizon=60)
        assert report["partial_cauchy"] == "yes"
        assert report["induced_metric_cauchy"] == "yes"
        assert report["agree"]

    def test_cauchy_equivalence_alternating(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: float(n % 2))
        report = cauchy_equivalence_probe(probe, p, tol=1e-8, horizon=60)
        assert report["partial_cauchy"] == "no"
        assert report["induced_metric_cauchy"] == "no"
        assert report["agree"]

    def test_cauchy_equivalence_constant(self):
        p = max_partial().distance
        probe = SequenceProbe(lambda n: 0.25)
        report = cauchy_equivalence_probe(probe, p, tol=1e-10, horizon=40)
        assert report["partial_cauchy"] == "yes" and report["agree"]

    def test_joint_limit_property(self):
        # for x_n -> x and y_n -> y, p(x_n,y_n) - p(x_n,x_n) approaches
        # p(x,y) - p(x,x)
        p = max_partial().distance
        x, y = 0.25, 0.75
        target = alg.sub(p(x, y), p(x, x))
        for n in range(40, 60):
            xn = x + 2.0 ** (-n)
            yn = y - 2.0 ** (-n)
            seen = alg.sub(p(xn, yn), p(xn, xn))
            assert alg.norm(alg.sub(seen, target)) <= 1e-10


# Chunked axiom loop against a per-item loop. Items from [10, 11) get a
# distance that is negative (nonnegativity) or lopsided (symmetry).

_MATRIX = np.array([[2.0, 1j], [-1j, 1.0]])


def _counted_distance(kind, axiom, calls):
    def value(t):
        if kind == "scalar":
            return alg.scalar(t)
        if kind == "vector":
            return alg.vector([t, 2.0 * t])
        return alg.matrix(t * _MATRIX)

    def fn(x, y):
        calls.append((x, y))
        t = abs(x - y)
        if min(x, y) >= 10:
            t = -t if axiom == "nonnegativity" else t + (x > y)
        return value(t)

    return fn


def _reference_axiom(axiom, d, items, tol=None):
    """Per-item loop of the old predicates: the witness dict or None."""
    for x, y in items:
        if axiom == "nonnegativity":
            v = d(x, y)
            ok, offending = alg.is_positive(v, tol), v
        else:
            dxy = d(x, y)
            offending = alg.sub(dxy, d(y, x))
            ok = alg.norm(offending) <= 1e-9 * max(1.0, alg.norm(dxy))
        if not ok:
            return {"points": {"x": float(x), "y": float(y)},
                    "offending": alg.element_to_dict(offending)}
    return None


@pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
@pytest.mark.parametrize("axiom", ["nonnegativity", "symmetry"])
@pytest.mark.parametrize("first", [0, 1, 3, 5, 37])
def test_first_failure_chunks_match_per_item_loop(kind, axiom, first):
    calls = []
    d = ValuedDistance(kind, 1 if kind == "scalar" else 2, _counted_distance(kind, axiom, calls),
                       "metric")
    terms, test = {name: (terms, test) for name, _, terms, test in spaces._METRIC_AXIOMS}[axiom]
    rng = np.random.default_rng(first)
    failing = {first, first + 2, first + 3}
    items = [tuple(float(v) for v in rng.uniform(*((10.0, 11.0) if i in failing else (0.0, 1.0)), 2))
             for i in range(90)]

    def evaluate(*item):
        return tuple(d(item[i], item[j]) for i, j in terms)

    check = spaces.axiom_check(axiom, stack_items(items), functools.partial(spaces.each_row, evaluate),
                               test)
    evaluated = len(calls) // len(terms)
    calls.clear()
    expected = _reference_axiom(axiom, d, items)
    assert check.verdict == "fail" and check.samples == len(items)
    assert check.witness == expected
    assert check.witness["points"]["x"] == items[first][0]
    assert evaluated <= 2 * first + 1


def _raises_at(bad_index):
    def evaluate(x, y):
        if x == bad_index:
            raise ArithmeticError("distance blew up")
        return (alg.scalar(-1.0 if x in (3, 5) else 1.0),)

    return evaluate


def test_error_later_in_a_chunk_does_not_hide_an_earlier_failure():
    # items 3..6 form one chunk: the failure at 3 wins over the error at 4
    items = [(float(i), 0.0) for i in range(10)]
    test = spaces._nonnegative
    check = spaces.axiom_check("nonnegativity", stack_items(items),
                               functools.partial(spaces.each_row, _raises_at(4)), test)
    assert check.witness["points"]["x"] == 3.0
    with pytest.raises(ArithmeticError):
        spaces.axiom_check("nonnegativity", stack_items(items),
                           functools.partial(spaces.each_row, _raises_at(2)), test)
