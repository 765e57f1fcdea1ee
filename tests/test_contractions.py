import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarfix import algebra as alg
from cstarfix.contractions import (
    FAMILIES,
    ContractionSpec,
    FFunction,
    InvalidSpecError,
    OperatorSpec,
    PhiFunction,
    check_F_axioms,
    effective_rate,
    inequality_sides,
    sample_check,
    square_first_combiner,
    sum_combiner,
    verify_contraction,
    zero_phi,
)
from cstarfix.partial import PartialProblem, corollary_sides
from cstarfix.registry import get_operator, get_phi, get_space
from cstarfix.spaces import (
    Interval,
    Points,
    ValuedDistance,
    axiom_check,
    each_row,
    point_repr,
    rowwise,
)
from helpers import stack_items


_VALID_SPECS = [
    ("plain", {"k": 0.5}),
    ("graphic", {"k": 0.99}),
    ("weak", {"k": 0.5, "alpha": 4.0}),
    ("kannan", {"k": 0.49}),
    ("chatterjea", {"k": 0.1}),
    ("reich", {"alpha": 0.2, "beta": 0.3, "gamma": 0.1}),
]


_INVALID_SPECS = [
    ("plain", {"k": 1.0}, "plain requires k in (0,1), got 1.0"),
    ("plain", {"k": 0.0}, "plain requires k in (0,1), got 0.0"),
    ("weak", {"k": 0.5, "alpha": -1.0}, "weak requires alpha >= 0, got -1.0"),
    ("kannan", {"k": 0.5}, "kannan requires k in (0,1/2), got 0.5"),
    ("kannan", {"k": 0.6}, "kannan requires k in (0,1/2), got 0.6"),
    ("chatterjea", {"k": 0.7}, "chatterjea requires k in (0,1/2), got 0.7"),
    ("reich", {"alpha": 0.5, "beta": 0.5, "gamma": 0.1},
     "reich requires alpha+beta+gamma < 1, got 1.1"),
    ("reich", {"alpha": -0.1, "beta": 0.1, "gamma": 0.1}, "reich requires alpha, beta, gamma >= 0"),
    ("bogus", {"k": 0.5}, "unknown family 'bogus'"),
    # a missing constant
    ("weak", {"k": 0.5}, "weak requires alpha >= 0, got None"),
    ("reich", {"alpha": 0.2, "beta": 0.3}, "reich requires alpha, beta, gamma >= 0"),
    ("graphic", {}, "graphic requires k in (0,1), got None"),
    # the k check comes first; a name that is no family
    ("weak", {"k": 1.5, "alpha": -1.0}, "weak requires k in (0,1), got 1.5"),
    (None, {"k": 0.5}, "unknown family None"),
    # non-finite constants; -inf and an infinite Reich weight fail a range check first
    ("weak", {"k": 0.5, "alpha": float("nan")}, "weak requires a finite alpha, got nan"),
    ("weak", {"k": 0.5, "alpha": float("inf")}, "weak requires a finite alpha, got inf"),
    ("weak", {"k": 0.5, "alpha": float("-inf")}, "weak requires alpha >= 0, got -inf"),
    ("reich", {"alpha": float("nan"), "beta": 0.1, "gamma": 0.1},
     "reich requires a finite alpha, got nan"),
    ("reich", {"alpha": 0.1, "beta": float("nan"), "gamma": 0.1},
     "reich requires a finite beta, got nan"),
    ("reich", {"alpha": 0.1, "beta": 0.1, "gamma": float("nan")},
     "reich requires a finite gamma, got nan"),
    ("reich", {"alpha": float("inf"), "beta": 0.1, "gamma": 0.1},
     "reich requires alpha+beta+gamma < 1, got inf"),
    ("plain", {"k": float("nan")}, "plain requires k in (0,1), got nan"),
    # a non-finite constant the family does not read, checked after the family's own check
    ("plain", {"k": 0.5, "alpha": float("nan"), "gamma": float("inf")},
     "plain requires a finite alpha, got nan"),
    ("plain", {"k": 0.5, "gamma": float("inf")}, "plain requires a finite gamma, got inf"),
    ("kannan", {"k": 0.25, "beta": float("-inf")}, "kannan requires a finite beta, got -inf"),
    ("weak", {"k": 0.5, "alpha": 1.0, "gamma": float("nan")},
     "weak requires a finite gamma, got nan"),
    ("reich", {"k": float("nan"), "alpha": 0.1, "beta": 0.1, "gamma": 0.1},
     "reich requires a finite k, got nan"),
    ("reich", {"k": float("nan"), "alpha": float("nan"), "beta": 0.1, "gamma": 0.1},
     "reich requires a finite alpha, got nan"),
    ("graphic", {"k": 0.5, "beta": float("inf")}, "graphic requires a finite beta, got inf"),
    # a constant that is not an int or a float, read or not, before the family's own check
    ("plain", {"k": 0.5, "alpha": "x"}, "plain requires a numeric alpha, got 'x'"),
    ("weak", {"k": 0.5, "alpha": True}, "weak requires a numeric alpha, got True"),
    ("plain", {"k": False}, "plain requires a numeric k, got False"),
    ("weak", {"k": 1.5, "alpha": "x"}, "weak requires a numeric alpha, got 'x'"),
    ("reich", {"alpha": [0.1], "beta": 0.1, "gamma": 0.1},
     "reich requires a numeric alpha, got [0.1]"),
]


class TestSpecValidation:
    @pytest.mark.parametrize("family,kwargs", _VALID_SPECS)
    def test_valid_specs(self, family, kwargs):
        assert ContractionSpec(family, **kwargs).family == family

    def test_valid_specs_cover_every_family(self):
        assert sorted(family for family, _ in _VALID_SPECS) == sorted(FAMILIES)

    @pytest.mark.parametrize(
        "family,kwargs,message",
        _INVALID_SPECS,
        ids=[f"{family}-kwargs{i}" for i, (family, _, _) in enumerate(_INVALID_SPECS)],
    )
    def test_invalid_specs(self, family, kwargs, message):
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            ContractionSpec(family, **kwargs)

    def test_integer_constants_are_accepted(self):
        spec = ContractionSpec("weak", k=0.5, alpha=2, beta=0)
        assert spec.to_dict() == {"family": "weak", "k": 0.5, "alpha": 2, "beta": 0}

    def test_config_parsing_with_alias(self):
        spec = ContractionSpec.from_dict({"family": "kannan", "k": 0.333})
        assert spec.family == "kannan" and spec.k == 0.333
        assert ContractionSpec.from_dict({"family": "banach", "k": 0.5}).family == "plain"


class TestEffectiveRate:
    def test_kannan(self):
        assert effective_rate(ContractionSpec("kannan", k=1 / 3)) == pytest.approx(0.5)

    def test_chatterjea(self):
        assert effective_rate(ContractionSpec("chatterjea", k=0.4)) == pytest.approx(0.4 / 0.6)

    def test_reich(self):
        spec = ContractionSpec("reich", alpha=0.2, beta=0.3, gamma=0.1)
        assert effective_rate(spec) == pytest.approx(0.3 / 0.7)

    def test_identity_families(self):
        assert effective_rate(ContractionSpec("plain", k=0.5)) == 0.5
        assert effective_rate(ContractionSpec("weak", k=0.25, alpha=2.0)) == 0.25

    @pytest.mark.parametrize(
        "spec",
        [
            ContractionSpec("plain", k=0.999),
            ContractionSpec("kannan", k=0.4999),
            ContractionSpec("reich", alpha=0.4, beta=0.4, gamma=0.1),
        ],
    )
    def test_rate_below_one(self, spec):
        assert 0 < effective_rate(spec) < 1


def _positive_draws(kind, n, rng, count):
    """count positive scalars or n-vectors, drawn as check_F_axioms draws them."""
    data = np.abs(rng.normal(size=count if kind == "scalar" else (count, n)))
    return [alg.scalar(v) if kind == "scalar" else alg.vector(v) for v in data]


def _reference_continuity(F, kind, n, sample_count, seed):
    """Eager per-probe continuity check: (modulus, failing probe, witness)."""
    rng = np.random.default_rng(seed)
    theta = alg.zero(kind, n)
    boundary = _positive_draws(kind, n, rng, max(4, sample_count // 50))
    triples = [(alg.scale(0.5 / alg.norm(a), a), theta, theta) for a in boundary]
    fresh = _positive_draws(kind, n, rng, 3 * (sample_count - len(triples)))
    triples += zip(fresh[0::3], fresh[1::3], fresh[2::3])
    probed = triples[:100]
    steps = [alg.scale(1e-6, v) for v in _positive_draws(kind, n, rng, 3 * len(probed))]
    modulus = 0.0
    for i, (a, b, c) in enumerate(probed):
        da, db, dc = steps[3 * i : 3 * i + 3]
        moved = F(alg.add(a, da), alg.add(b, db), alg.add(c, dc))
        ratio = alg.norm(alg.sub(moved, F(a, b, c))) / max(map(alg.norm, (da, db, dc)))
        if not math.isfinite(ratio):
            return modulus, i, {"points": {}, "offending": alg.element_to_dict(moved)}
        modulus = max(modulus, ratio)
    return modulus, None, None


def _blows_up_past_the_boundary(kind):
    """The sum combiner with an infinite first entry once its second argument
    is not tiny: on the random probes that follow the boundary probes
    (a, theta, theta). The other entries keep the perturbed output apart."""

    def fn(a, b, c):
        out = alg.add(alg.add(a, b), c)
        if alg.norm(b) < 1e-3:
            return out
        data = np.array(out.data)
        data.flat[0] = math.inf
        return alg._raw(kind, data)

    return FFunction(fn, "blows-up")


class TestFAxioms:
    def test_sum_combiner_passes(self):
        for kind in ("scalar", "vector", "matrix"):
            report = check_F_axioms(sum_combiner(), kind, 2, 500, seed=0)
            assert report.all_pass, kind

    def test_square_first_fails_dominance(self):
        report = check_F_axioms(square_first_combiner(), "matrix", 2, 500, seed=0)
        dom = next(c for c in report.checks if c.axiom == "dominance")
        assert dom.verdict == "fail"
        assert dom.witness is not None

    def test_square_first_witness_at_half_identity(self):
        # A = diag(0.5, 0.5), B = C = theta: F = diag(0.25, 0.25), A not below F
        F = square_first_combiner()
        A = alg.matrix(np.diag([0.5, 0.5]))
        theta = alg.zero("matrix", 2)
        out = F(A, theta, theta)
        assert np.allclose(out.data, np.diag([0.25, 0.25]))
        assert not alg.leq(A, out)

    def test_sum_preserves_zero(self):
        theta = alg.zero("vector", 2)
        assert alg.norm(sum_combiner()(theta, theta, theta)) == 0.0

    def test_continuity_modulus_reported(self):
        report = check_F_axioms(sum_combiner(), "vector", 2, 200, seed=1)
        assert report.continuity_modulus > 0

    @pytest.mark.parametrize("kind,n", [("scalar", 1), ("vector", 2)])
    def test_continuity_fails_at_first_non_finite_probe(self, kind, n):
        F = _blows_up_past_the_boundary(kind)
        with np.errstate(invalid="ignore"):  # inf - inf past the boundary
            report = check_F_axioms(F, kind, n, 60, seed=3)
            modulus, failed, witness = _reference_continuity(F, kind, n, 60, 3)
        assert failed == 4  # the first probe past the four boundary probes
        continuity = next(c for c in report.checks if c.axiom == "continuity")
        assert continuity.verdict == "fail" and continuity.samples == 60
        assert continuity.witness == witness
        assert report.continuity_modulus.hex() == modulus.hex()


def sum_premetric_setup():
    space = get_space("sum_premetric")
    return (
        ContractionSpec("plain", k=0.5),
        get_operator("halving"),
        space.distance,
        get_phi("coordinate_pair"),
        sum_combiner(),
        space.domain,
    )


class TestVerifyContraction:
    def test_sum_premetric_combined_contraction(self):
        spec, T, d, phi, F, dom = sum_premetric_setup()
        result = verify_contraction(spec, T, d, phi, F, dom, 2000, seed=0)
        assert result.certified
        # equality case: both sides coincide, slack stays at rounding level
        assert result.max_slack_norm <= 1e-12

    def test_sides_match_closed_form(self):
        spec, T, d, phi, F, dom = sum_premetric_setup()
        x, y = 0.3, 0.8
        lhs, rhs = inequality_sides(spec, T, d, phi, F, x, y)
        assert np.allclose(lhs.data, [(x + y) / 2, x + y])
        assert np.allclose(rhs.data, [(x + y) / 2, x + y])

    def test_matrix_weak_contraction(self):
        space = get_space("diag_absdiff_matrix")
        result = verify_contraction(
            ContractionSpec("weak", k=0.5, alpha=4.0),
            get_operator("halving"),
            space.distance,
            get_phi("spread_matrix"),
            square_first_combiner(),
            space.domain,
            2000,
            seed=0,
        )
        assert result.certified

    def test_kannan_on_reals(self):
        d = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")
        result = verify_contraction(
            ContractionSpec("kannan", k=1 / 3),
            get_operator("quartering"),
            d,
            zero_phi("scalar"),
            sum_combiner(),
            Interval(0.0, 1.0),
            2000,
            seed=0,
        )
        assert result.certified

    def test_counterexample_found_and_replays(self):
        # identity map cannot halve distances
        d = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")
        spec = ContractionSpec("plain", k=0.5)
        T = get_operator("identity")
        phi = zero_phi("scalar")
        F = sum_combiner()
        result = verify_contraction(spec, T, d, phi, F, Interval(0, 1), 500, seed=0)
        assert not result.certified
        ce = result.counterexample
        lhs, rhs = inequality_sides(spec, T, d, phi, F, ce["x"], ce["y"])
        assert not alg.leq(lhs, rhs)

    def test_weak_stream_is_lazy(self):
        # a failure at sample 0 must not first draw the jittered half of the
        # stratified weak stream, each of whose pairs evaluates T
        calls = []
        T = OperatorSpec(lambda x: calls.append(x) or x, "counted-identity")
        d = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")
        result = verify_contraction(
            ContractionSpec("weak", k=0.5, alpha=0.0),
            T,
            d,
            zero_phi("scalar"),
            sum_combiner(),
            Interval(0.0, 1.0),
            1000,
            seed=0,
        )
        assert result.counterexample["index"] == 0
        assert len(calls) <= 4

    @pytest.mark.parametrize("fails,raises", [
        (("uniform", 30), 5),  # a uniform counterexample wins over any jittered error
        (("jittered", 3), 40),  # so does a jittered one before the raising sample
        (("jittered", 60), 40),  # one after it does not: T's error propagates
        (None, 0),
    ])
    def test_operator_error_in_the_jittered_stratum(self, fails, raises):
        # the weak stream is 100 uniform pairs, then 100 pairs with y near T(x)
        class Blowup(Exception):
            pass

        rng = np.random.default_rng(0)
        domain = Interval(0.0, 1.0)
        stratum_x = {"uniform": domain.sample_many(rng, 200)[0::2],
                     "jittered": domain.sample_many(rng, 200)[0::2]}
        raising = float(stratum_x["jittered"][raises])
        failing = None if fails is None else float(stratum_x[fails[0]][fails[1]])

        def t(x):
            if x == raising:
                raise Blowup(x)
            return 10.0 if x == failing else 0.5 * x

        args = (ContractionSpec("weak", k=0.6, alpha=0.0), OperatorSpec(t, "blowup"),
                ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric"),
                zero_phi("scalar"), sum_combiner(), domain, 200)
        if fails is None or (fails[0] == "jittered" and fails[1] > raises):
            with pytest.raises(Blowup):
                verify_contraction(*args, seed=0)
            return
        ce = verify_contraction(*args, seed=0).counterexample
        assert ce["index"] == fails[1] + (100 if fails[0] == "jittered" else 0)
        assert ce["x"] == failing

    @pytest.mark.parametrize("fails", [True, False])
    def test_rowwise_operator_error_does_not_hide_an_earlier_counterexample(self, fails):
        # samples 3..6 form one chunk: a rowwise T raises on any stack that
        # holds sample 5, and maps sample 3 to -10 when fails
        class Blowup(Exception):
            pass

        domain = Interval(0.0, 1.0)
        xs = domain.sample_many(np.random.default_rng(0), 20)[0::2]

        @rowwise
        def t(x):
            if np.any(x == xs[5]):
                raise Blowup(x)
            return np.where(fails & (x == xs[3]), -10.0, 0.5 * x)

        T = OperatorSpec(t, "blowup")
        args = (ContractionSpec("plain", k=0.5), T,
                ValuedDistance("scalar", 1, rowwise(lambda x, y: alg.values("scalar", np.abs(x - y))),
                               "metric"),
                zero_phi("scalar"), sum_combiner(), domain, 10)
        image_check = functools.partial(
            axiom_check, "image-nonnegative", (Points(xs),),
            lambda x: (alg.values("scalar", T(x).data),),
            lambda points, kind, v: (v >= 0, v, None),
        )
        if not fails:
            with pytest.raises(Blowup):
                verify_contraction(*args, seed=0)
            with pytest.raises(Blowup):
                image_check()
            return
        ce = verify_contraction(*args, seed=0).counterexample
        assert ce["index"] == 3 and ce["x"] == float(xs[3])
        check = image_check()
        assert check.verdict == "fail"
        assert check.witness == {"points": {"x": float(xs[3])},
                                 "offending": {"kind": "scalar", "value": -10.0}}

    def test_graphic_family_single_point(self):
        spec, _, d, phi, F, dom = sum_premetric_setup()
        result = verify_contraction(
            ContractionSpec("graphic", k=0.5),
            get_operator("halving"),
            d,
            phi,
            F,
            dom,
            1000,
            seed=0,
        )
        assert result.certified
        assert result.counterexample is None

    def test_deterministic_reports(self):
        spec, T, d, phi, F, dom = sum_premetric_setup()
        a = verify_contraction(spec, T, d, phi, F, dom, 500, seed=42)
        b = verify_contraction(spec, T, d, phi, F, dom, 500, seed=42)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_chatterjea_on_reals(self):
        d = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")
        result = verify_contraction(
            ContractionSpec("chatterjea", k=1 / 3),
            get_operator("quartering"),
            d,
            zero_phi("scalar"),
            sum_combiner(),
            Interval(0.0, 1.0),
            2000,
            seed=1,
        )
        assert result.certified

    def test_reich_on_reals(self):
        d = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")
        result = verify_contraction(
            ContractionSpec("reich", alpha=0.5, beta=0.1, gamma=0.1),
            get_operator("halving"),
            d,
            zero_phi("scalar"),
            sum_combiner(),
            Interval(0.0, 1.0),
            2000,
            seed=1,
        )
        assert result.certified


# Distances of each kind that scale one fixed positive value by |x - y|.
_SCALED = {
    "scalar": lambda t: alg.scalar(t),
    "vector": lambda t: alg.vector([t, 2.0 * t]),
    "matrix": lambda t: alg.matrix(t * np.array([[2.0, 1j], [-1j, 1.0]])),
}


def _reference_check(samples, sides, tol=None):
    """Per-sample certify loop: (max slack norm, first counterexample)."""
    max_slack = 0.0
    for idx, (x, y) in enumerate(samples):
        lhs, rhs = sides(x, y)
        if not alg.leq(lhs, rhs, tol):
            ce = {"index": idx, "x": point_repr(x), "lhs": alg.element_to_dict(lhs),
                  "rhs": alg.element_to_dict(rhs), "y": point_repr(y)}
            return max_slack, ce
        max_slack = max(max_slack, alg.norm(alg.sub(rhs, lhs)))
    return max_slack, None


def _stratum(samples):
    """The one stratum of the columns of a list of (x, y) samples."""
    return [lambda: (stack_items(samples), None)]


class TestSampleCheckChunks:
    @pytest.mark.parametrize("kind", sorted(_SCALED))
    @pytest.mark.parametrize("first", [0, 1, 3, 5, 37])
    def test_first_failure_matches_per_sample_loop(self, kind, first):
        # T halves [0, 1) and doubles [10, 11): pairs from [10, 11) break the
        # plain contraction, the first of them at index first
        calls = []

        def t(x):
            calls.append(x)
            return 0.5 * x if x < 10 else 2.0 * x

        T = OperatorSpec(t, "counted")
        scaled = _SCALED[kind]
        d = ValuedDistance(kind, 2 if kind != "scalar" else 1,
                           lambda x, y: scaled(abs(x - y)), "metric")
        spec = ContractionSpec("plain", k=0.6)
        rng = np.random.default_rng(first)
        failing = {first, first + 1, first + 3, first + 40}
        samples = [tuple(rng.uniform(10.0, 11.0, 2) if i in failing else rng.uniform(0.0, 1.0, 2))
                   for i in range(100)]

        def sides(x, y):
            return inequality_sides(spec, T, d, zero_phi(kind, d.n), sum_combiner(), x, y)

        result = sample_check("plain", spec, _stratum(samples), functools.partial(each_row, sides),
                              len(samples), 0)
        evaluated = len(calls) // 2
        ref_slack, ref_ce = _reference_check(samples, sides)
        assert result.counterexample == ref_ce
        assert result.counterexample["index"] == first
        assert result.max_slack_norm.hex() == ref_slack.hex()
        assert evaluated <= 2 * first + 1

    @pytest.mark.parametrize("kind", sorted(_SCALED))
    def test_certified_slack_matches_per_sample_loop(self, kind):
        scaled = _SCALED[kind]
        rng = np.random.default_rng(5)
        samples = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(77)]

        def sides(x, y):
            return scaled(0.5 * abs(x - y)), scaled(abs(x - y) + x)

        result = sample_check("plain", ContractionSpec("plain", k=0.5), _stratum(samples),
                              functools.partial(each_row, sides), len(samples), 0)
        ref_slack, ref_ce = _reference_check(samples, sides)
        assert result.certified and ref_ce is None
        assert result.max_slack_norm.hex() == ref_slack.hex()


    def test_error_later_in_a_chunk_does_not_hide_an_earlier_counterexample(self):
        # samples 3..6 form one chunk: the counterexample at 3 wins over the error at 4
        samples = [(float(i), 0.0) for i in range(10)]
        spec = ContractionSpec("plain", k=0.5)

        def raising_at(bad_index):
            def sides(x, y):
                if x == bad_index:
                    raise ArithmeticError("side blew up")
                return alg.scalar(2.0 if x in (3, 5) else 0.5), alg.scalar(1.0)

            return sides

        result = sample_check("plain", spec, _stratum(samples),
                              functools.partial(each_row, raising_at(4)), len(samples), 0)
        assert result.counterexample["index"] == 3
        assert result.max_slack_norm == 0.5
        with pytest.raises(ArithmeticError):
            sample_check("plain", spec, _stratum(samples),
                         functools.partial(each_row, raising_at(2)), len(samples), 0)


class TestStepInequality:
    def test_orbitwise_geometric_envelope(self):
        # both the step distance and the penalty at step n+1 stay under
        # k^n * F(d(Tx,x), phi(Tx), phi(x))
        spec, T, d, phi, F, dom = sum_premetric_setup()
        for x0 in (1.0, 0.37, 0.9):
            x1 = T(x0)
            f0 = F(d(x1, x0), phi(x1), phi(x0))
            x = x0
            for n in range(30):
                x_next = T(x)
                envelope = alg.scale(spec.k**n, f0)
                assert alg.leq(d(x_next, x), envelope)
                assert alg.leq(phi(x_next), envelope)
                x = x_next


# The per-family sides as they were written before FAMILIES, one if-chain per
# mode, kept as the reference that the table must reproduce bit for bit.
def _reference_inequality_sides(spec, T, d, phi, F, x, y=None):
    theta = alg.zero(d.kind, d.n)
    fam = spec.family
    if fam == "graphic":
        Tx = T(x)
        TTx = T(Tx)
        lhs = F(d(TTx, Tx), phi(TTx), phi(Tx))
        rhs = alg.scale(spec.k, F(d(Tx, x), phi(Tx), phi(x)))
        return lhs, rhs
    Tx, Ty = T(x), T(y)
    lhs = F(d(Tx, Ty), phi(Tx), phi(Ty))
    if fam == "plain":
        rhs = alg.scale(spec.k, F(d(x, y), phi(x), phi(y)))
    elif fam == "weak":
        relax = alg.sub(F(d(y, Tx), phi(y), phi(Tx)), F(theta, phi(y), phi(Tx)))
        rhs = alg.add(
            alg.scale(spec.k, F(d(x, y), phi(x), phi(y))), alg.scale(spec.alpha, relax)
        )
    elif fam == "kannan":
        rhs = alg.scale(
            spec.k, alg.add(F(d(Tx, x), phi(Tx), phi(x)), F(d(Ty, y), phi(Ty), phi(y)))
        )
    elif fam == "reich":
        rhs = alg.add(
            alg.add(
                alg.scale(spec.alpha, F(d(x, y), phi(x), phi(y))),
                alg.scale(spec.beta, F(d(x, Tx), phi(x), phi(Tx))),
            ),
            alg.scale(spec.gamma, F(d(y, Ty), phi(y), phi(Ty))),
        )
    elif fam == "chatterjea":
        rhs = alg.scale(
            spec.k,
            alg.add(
                alg.sub(F(d(x, Ty), phi(x), phi(Ty)), F(theta, phi(x), phi(Ty))),
                F(d(y, Tx), phi(y), phi(Tx)),
            ),
        )
    else:
        raise InvalidSpecError(f"unknown family {fam!r}")
    return lhs, rhs


def _reference_corollary_sides(problem, x, y=None):
    p, T, spec = problem.p, problem.T, problem.spec
    fam = spec.family
    if fam == "graphic":
        Tx = T(x)
        return p(T(Tx), Tx), alg.scale(spec.k, p(Tx, x))
    Tx, Ty = T(x), T(y)
    lhs = p(Tx, Ty)
    if fam == "plain":
        rhs = alg.scale(spec.k, p(x, y))
    elif fam == "weak":
        relax = alg.sub(p(y, Tx), alg.scale(0.5, alg.add(p(y, y), p(Tx, Tx))))
        rhs = alg.add(alg.scale(spec.k, p(x, y)), alg.scale(spec.alpha, relax))
    elif fam == "kannan":
        rhs = alg.scale(spec.k, alg.add(p(x, Tx), p(y, Ty)))
    elif fam == "reich":
        rhs = alg.add(
            alg.add(alg.scale(spec.alpha, p(x, y)), alg.scale(spec.beta, p(x, Tx))),
            alg.scale(spec.gamma, p(y, Ty)),
        )
    elif fam == "chatterjea":
        rhs = alg.scale(spec.k, alg.add(p(x, Ty), p(y, Tx)))
    else:
        raise ValueError(f"unknown family {fam!r}")
    return lhs, rhs


def _metric_setup(carrier):
    """(distance, domain, phi) of a scalar, a vector and a matrix metric-mode space."""
    if carrier == 0:
        d = ValuedDistance("scalar", 1, lambda x, y: alg.scalar(abs(x - y)), "metric")
        return d, Interval(0.0, 1.0), get_phi("self_max")
    name, phi = [("sum_premetric", "coordinate_pair"),
                 ("diag_absdiff_matrix", "spread_matrix")][carrier - 1]
    space = get_space(name)
    return space.distance, space.domain, get_phi(phi)


_PARTIAL_SPACES = ("max_unit_interval", "shifted_max_matrix", "absdiff_pair")


# a linear and a nonlinear self-map; both act on scalars and coordinate arrays
_MAPS = {
    "linear": lambda c: lambda x: c * x,
    "nonlinear": lambda c: lambda x: c * x + 0.125 * np.sin(3.0 * x) ** 2,
}


@st.composite
def _family_spec(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    half = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
    if family == "reich":
        alpha = draw(st.floats(0.0, 0.99))
        beta = draw(st.floats(0.0, 0.99 - alpha))
        gamma = draw(st.floats(0.0, max(0.0, 0.99 - alpha - beta)))
        consts = {"alpha": alpha, "beta": beta, "gamma": gamma}
    elif family == "weak":
        consts = {"k": draw(unit), "alpha": draw(st.floats(0.0, 4.0))}
    else:
        consts = {"k": draw(half if family in ("kannan", "chatterjea") else unit)}
    if draw(st.booleans()):
        consts = {name: np.float64(v) for name, v in consts.items()}
    return ContractionSpec(family, **consts)


def _pairs(domain, T, seed, count=4):
    # uniform pairs plus the pairs where the relaxed terms vanish, y = x and y = T(x)
    rng = np.random.default_rng(seed)
    xs = [domain.sample(rng) for _ in range(count)]
    ys = [domain.sample(rng) for _ in range(count)]
    return list(zip(xs, ys)) + [(xs[0], xs[0]), (xs[1], T(xs[1]))]


def _same_bytes(a, b):
    return a.kind == b.kind and a.n == b.n and a.data.tobytes() == b.data.tobytes()


class TestFamilyTable:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=_family_spec(),
        mode=st.sampled_from(["metric", "partial"]),
        carrier=st.integers(0, 2),
        combiner=st.sampled_from([sum_combiner, square_first_combiner]),
        map_kind=st.sampled_from(sorted(_MAPS)),
        c=st.floats(0.05, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sides_match_reference(self, spec, mode, carrier, combiner, map_kind, c, seed):
        calls = []
        fn = _MAPS[map_kind](c)
        T = OperatorSpec(lambda x: calls.append(1) or fn(x), "counted")
        if mode == "metric":
            d, domain, phi = _metric_setup(carrier)
            args = (spec, T, d, phi, combiner())
            new = functools.partial(inequality_sides, *args)
            old = functools.partial(_reference_inequality_sides, *args)
        else:
            named = get_space(_PARTIAL_SPACES[carrier])
            domain = named.domain
            problem = PartialProblem(named.distance, T, spec)
            new = functools.partial(corollary_sides, problem)
            old = functools.partial(_reference_corollary_sides, problem)

        single = FAMILIES[spec.family].single_point
        for x, y in _pairs(domain, fn, seed):
            y = None if single else y
            del calls[:]
            got = new(x, y)
            new_calls = len(calls)
            del calls[:]
            want = old(x, y)
            assert new_calls == len(calls) == 2
            assert _same_bytes(got[0], want[0]), ("lhs", spec, x, y)
            assert _same_bytes(got[1], want[1]), ("rhs", spec, x, y)


    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_distance_error_wins_over_a_penalty_error_on_the_same_row(self, stacked):
        # the table runs T, then d on every pair, then phi on every point, then F:
        # phi(Tx), read by the left side, raises only after d(x, y) of the right side
        x, y = 0.25, 0.75

        def dist(u, v):
            if (u, v) == (x, y):
                raise ArithmeticError("d(x, y)")
            return alg.scalar(abs(u - v))

        def penalty(u):
            if u == 0.5 * x:
                raise KeyError("phi(Tx)")
            return alg.scalar(0.0)

        args = (ContractionSpec("plain", k=0.5), get_operator("halving"),
                ValuedDistance("scalar", 1, dist, "metric"), PhiFunction(penalty, "p"),
                sum_combiner())
        point, pair = (Points(np.array([x])), Points(np.array([y]))) if stacked else (x, y)
        with pytest.raises(ArithmeticError, match=re.escape("d(x, y)")):
            inequality_sides(*args, point, pair)
