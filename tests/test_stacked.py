"""The stacked data path against per-point evaluation.

Registry entries are written once over row stacks; the sampled checks draw,
evaluate and test each chunk as one stack. Every stacked result here must
equal, bit for bit, what evaluating one point or one item at a time gives.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarfix import algebra as alg
from cstarfix import spaces
from cstarfix.contractions import (
    FAMILIES,
    ContractionSpec,
    FFunction,
    OperatorSpec,
    PhiFunction,
    check_F_axioms,
    inequality_sides,
    verify_contraction,
)
from cstarfix.partial import PartialProblem, corollary_sides, verify_corollary_hypothesis
from cstarfix.registry import COMBINERS, OPERATORS, PHIS, SPACES, get_combiner, get_space
from cstarfix.spaces import (
    Box,
    Interval,
    Points,
    ValuedDistance,
    check_metric_axioms,
    check_partial_axioms,
    point_repr,
)
from helpers import sample_points


def _same_bytes(a, b):
    return a.kind == b.kind and a.data.shape == b.data.shape and a.data.tobytes() == b.data.tobytes()


def _points(domain, count):
    """count points of the domain as floats or arrays, its corners included."""
    if isinstance(domain, Interval):
        coordinate = st.one_of(st.sampled_from([domain.lo, domain.hi]),
                               st.floats(domain.lo, domain.hi))
        return st.lists(coordinate, min_size=count, max_size=count)
    coordinates = st.tuples(*(st.one_of(st.sampled_from([iv.lo, iv.hi]), st.floats(iv.lo, iv.hi))
                              for iv in domain.intervals))
    return st.lists(coordinates.map(np.array), min_size=count, max_size=count)


def _stack(points):
    return Points(np.array(points, dtype=float))


# the domain of each phi's points
_PHI_DOMAINS = {
    "coordinate_pair": Interval(0.0, 1.0),
    "self_max": Interval(0.0, 1.0),
    "zero_scalar": Interval(0.0, 1.0),
    "zero_pair": Interval(0.0, 1.0),
    "spread_matrix": Box([Interval(-1.0, 1.0), Interval(-1.0, 1.0)]),
}


@st.composite
def _registry_case(draw):
    table = draw(st.sampled_from(["space", "operator", "phi", "combiner"]))
    count = draw(st.integers(1, 6))
    if table == "space":
        name = draw(st.sampled_from(sorted(SPACES)))
        space = get_space(name)
        return table, space.distance, draw(_points(space.domain, count)), draw(
            _points(space.domain, count))
    if table == "operator":
        domain = draw(st.sampled_from([Interval(-1.0, 1.0), _PHI_DOMAINS["spread_matrix"]]))
        return table, OPERATORS[draw(st.sampled_from(sorted(OPERATORS)))](), draw(
            _points(domain, count)), None
    if table == "phi":
        name = draw(st.sampled_from(sorted(PHIS)))
        assert set(PHIS) == set(_PHI_DOMAINS)
        return table, PHIS[name](), draw(_points(_PHI_DOMAINS[name], count)), None
    kind = draw(st.sampled_from(["scalar", "vector", "matrix"]))
    n = 1 if kind == "scalar" else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def elements():
        if kind == "scalar":
            return [alg.scalar(v) for v in rng.normal(size=count)]
        if kind == "vector":
            return [alg.vector(v) for v in rng.normal(size=(count, n))]
        parts = rng.normal(size=(count, 2, n, n))
        return [alg.matrix(p[0] + 1j * p[1]) for p in parts]

    # the middle argument is sometimes the same element in every row
    middle = [alg.zero(kind, n)] * count if draw(st.booleans()) else elements()
    return table, COMBINERS[draw(st.sampled_from(sorted(COMBINERS)))](), (
        elements(), middle, elements()), None


@settings(max_examples=300, deadline=None)
@given(_registry_case())
def test_registry_stacks_match_per_point(case):
    table, fn, xs, ys = case
    if table == "space":
        got = fn(_stack(xs), _stack(ys))
        want = [fn(x, y) for x, y in zip(xs, ys)]
    elif table == "operator":
        got = fn(_stack(xs))
        want = [fn(x) for x in xs]
        assert isinstance(got, Points) and len(got) == len(xs)
        for i, w in enumerate(want):
            assert np.asarray(got.data[i]).tobytes() == np.asarray(w, dtype=float).tobytes()
        return
    elif table == "phi":
        got = fn(_stack(xs))
        want = [fn(x) for x in xs]
    else:
        a, b, c = xs
        middle = b[0] if all(e is b[0] for e in b) else alg.stack(b)
        got = fn(alg.stack(a), middle, alg.stack(c))
        want = [fn(*args) for args in zip(a, b, c)]
    if not got.stacked:  # a constant: one element for every row
        got = alg._raw(got.kind, np.broadcast_to(got.data, (len(want), *got.data.shape)))
    assert got.stacked and len(got.data) == len(want)
    for i, w in enumerate(want):
        assert _same_bytes(got.row(i), w), (table, i)


@pytest.mark.parametrize("kind", ["scalar", "vector", "matrix"])
def test_rows_arithmetic_matches_element_arithmetic(kind):
    rng = np.random.default_rng(3)
    shape = {"scalar": (), "vector": (3,), "matrix": (3, 3)}[kind]
    data = rng.normal(size=(5, *shape)) + (1j * rng.normal(size=(5, *shape)) if kind == "matrix" else 0)
    rows = alg._raw(kind, data)
    e = alg.AlgebraElement(kind, rng.normal(size=shape))
    ops = {
        "rows + e": (rows + e, lambda r: r + e), "e + rows": (e + rows, lambda r: e + r),
        "rows - e": (rows - e, lambda r: r - e), "e - rows": (e - rows, lambda r: e - r),
        "rows * e": (rows * e, lambda r: r * e), "e * rows": (e * rows, lambda r: e * r),
        "rows * rows": (rows * rows, lambda r: r * r), "0.3 * rows": (0.3 * rows, lambda r: 0.3 * r),
        "np.float64 * rows": (np.float64(0.3) * rows, lambda r: np.float64(0.3) * r),
    }
    for name, (got, per_row) in ops.items():
        assert got.stacked, name
        for i in range(len(rows.data)):
            assert _same_bytes(got.row(i), per_row(rows.row(i))), (name, i)
    with pytest.raises(alg.DimensionMismatchError):
        rows + alg.zero("vector" if kind != "vector" else "scalar", 3)


@pytest.mark.parametrize("domain", [
    Interval(-2.0, 3.0),
    Box([Interval(-1.0, 1.0), Interval(2.0, 3.0), Interval(0.0, 1e-3)]),
])
@pytest.mark.parametrize("seed", range(5))
def test_sample_many_in_chunks_reproduces_the_point_stream(domain, seed):
    rng = np.random.default_rng(seed)
    one_at_a_time = np.array([domain.sample(rng) for _ in range(127)])
    rng = np.random.default_rng(seed)
    chunks = np.concatenate([domain.sample_many(rng, k) for k in (1, 2, 4, 8, 16, 32, 64)])
    assert chunks.shape == one_at_a_time.shape
    assert chunks.tobytes() == one_at_a_time.tobytes()


def test_contains_many_matches_contains():
    box = Box([Interval(-1.0, 1.0), Interval(0.0, 2.0)])
    pts = np.array([[-1.0, 0.0], [1.0 + 1e-13, 2.0], [1.0 + 1e-11, 1.0], [0.0, -1e-11],
                    [np.nan, 0.5], [0.5, 0.5]])
    assert box.contains_many(pts).tolist() == [box.contains(p) for p in pts]
    iv = Interval(0.0, 1.0)
    xs = pts[:, 0]
    assert iv.contains_many(xs).tolist() == [iv.contains(x) for x in xs]


# ---------------------------------------------------------------------------
# mixed callables against a per-item reference


def _reference_samples(spec, T, domain, count, seed):
    """The verifies' sample plan drawn one point at a time: uniform pairs,
    then, for a stratified family, orbit pairs (x, T(x)), y = x where T(x)
    is outside the domain."""
    rng = np.random.default_rng(seed)
    rule = FAMILIES[spec.family]
    n_orbit = count // 2 if rule.stratified else 0
    for _ in range(count - n_orbit):
        x = domain.sample(rng)
        yield x, (None if rule.single_point else domain.sample(rng))
    for _ in range(n_orbit):
        x = domain.sample(rng)
        t = np.asarray(T(x), dtype=float)
        yield x, ((float(t) if t.ndim == 0 else t) if domain.contains(t) else x)


def _reference_scan(samples, sides):
    """(max slack norm, first counterexample) sample by sample, sides(x, y)
    giving both sides of the inequality at a sample."""
    max_slack = 0.0
    for index, (x, y) in enumerate(samples):
        lhs, rhs = sides(x, y)
        if not alg.leq(lhs, rhs):
            ce = {"index": index, "x": point_repr(x), "lhs": alg.element_to_dict(lhs),
                  "rhs": alg.element_to_dict(rhs)}
            if y is not None:
                ce["y"] = point_repr(y)
            return max_slack, ce
        max_slack = max(max_slack, alg.norm(alg.sub(rhs, lhs)))
    return max_slack, None


def _reference_verify(spec, T, d, phi, F, domain, count, seed):
    """verify_contraction sample by sample."""
    return _reference_scan(_reference_samples(spec, T, domain, count, seed),
                           functools.partial(inequality_sides, spec, T, d, phi, F))


def _user_phi():
    # a library user's penalty, one point at a time
    return PhiFunction(lambda x: alg.vector([0.5 * x, x]), "user")


@pytest.mark.parametrize("family,consts,c", [
    ("plain", {"k": 0.5}, 0.4),
    ("plain", {"k": 0.5}, 0.9),
    ("weak", {"k": 0.6, "alpha": 2.0}, 0.5),
    ("weak", {"k": 0.3, "alpha": 0.1}, 0.9),
    ("graphic", {"k": 0.7}, 0.6),
    ("kannan", {"k": 0.4}, 0.3),
    ("reich", {"alpha": 0.3, "beta": 0.2, "gamma": 0.1}, 0.5),
    ("chatterjea", {"k": 0.3}, 0.45),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_with_mixed_callables_matches_per_item_reference(family, consts, c, seed):
    space = get_space("sum_premetric")  # registry distance: stacked
    T = OperatorSpec(lambda x: c * x, "user-linear")  # user map: row by row
    spec = ContractionSpec(family, **consts)
    args = (spec, T, space.distance, _user_phi(), get_combiner("sum"))
    result = verify_contraction(*args, space.domain, 400, seed)
    ref_slack, ref_ce = _reference_verify(*args, space.domain, 400, seed)
    assert result.counterexample == ref_ce
    assert result.certified == (ref_ce is None)
    assert result.max_slack_norm.hex() == ref_slack.hex()


@pytest.mark.parametrize("mode", ["metric", "partial"])
@pytest.mark.parametrize("domain", [Interval(0.0, 1.0), Box([Interval(0.0, 1.0)] * 2)])
def test_verify_evaluates_the_per_point_sample_stream(domain, mode):
    # weak pairs: half uniform, half orbit pairs (x, T(x)); every distance the
    # stacked scan evaluates is one the per-point loop evaluates
    calls = []

    def fn(x, y):
        calls.append((point_repr(x), point_repr(y)))
        return alg.scalar(float(np.sum(np.abs(np.asarray(x) - np.asarray(y)))))

    d = ValuedDistance("scalar", 1, fn, mode, label="recorded")
    spec, T = ContractionSpec("weak", k=0.9, alpha=1.0), OperatorSpec(lambda x: 0.25 * x, "q")
    if mode == "partial":
        problem = PartialProblem(d, T, spec)
        result = verify_corollary_hypothesis(problem, domain, 300, 5)
        sides = functools.partial(corollary_sides, problem)
    else:
        args = (spec, T, d, PhiFunction(lambda x: alg.scalar(0.0), "zero"), get_combiner("sum"))
        result = verify_contraction(*args, domain, 300, 5)
        sides = functools.partial(inequality_sides, *args)
    stacked = sorted(map(repr, calls))
    calls.clear()
    samples = _reference_samples(spec, T, domain, 300, 5)
    assert _reference_scan(samples, sides) == (result.max_slack_norm, None)
    assert stacked == sorted(map(repr, calls))


_EVERY_FAMILY = [
    ContractionSpec("plain", k=0.5),
    ContractionSpec("graphic", k=0.5),
    ContractionSpec("weak", k=0.5, alpha=1.0),
    ContractionSpec("kannan", k=0.4),
    ContractionSpec("reich", alpha=0.3, beta=0.2, gamma=0.1),
    ContractionSpec("chatterjea", k=0.3),
]


def _constant_cases():
    """(d, phi, domain, constant point) on an interval and on a box."""
    fn = spaces.rowwise(lambda x, y: alg.values("scalar", abs(x - y)))
    absdiff = ValuedDistance("scalar", 1, fn, "metric", label="abs")
    box = get_space("diag_absdiff_matrix")
    return {
        "interval": (absdiff, PHIS["zero_scalar"](), Interval(0.0, 1.0), 0.5),
        "box": (box.distance, PHIS["spread_matrix"](), box.domain, np.array([0.25, -0.5])),
    }


@pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=lambda s: s.family)
@pytest.mark.parametrize("case", ["interval", "box"])
def test_constant_operator_gets_a_verdict_in_every_family(spec, case):
    # a rowwise T that gives one point for the whole stack stands for that point in every row
    d, phi, domain, c = _constant_cases()[case]
    outputs = [
        json.dumps(verify_contraction(spec, OperatorSpec(fn, "const"), d, phi,
                                      get_combiner("sum"), domain, 200, 3).to_dict())
        for fn in (spaces.rowwise(lambda x: c), lambda x: c)
    ]
    assert outputs[0] == outputs[1]


def _reference_axioms(d, axioms, domain, count, seed):
    """Each axiom's witness (or None), item by item with one-row tests."""
    pts = sample_points(domain, count, seed)
    out = {}
    for axiom, arity, terms, test in axioms:
        out[axiom] = None
        for i in range(count):
            item = tuple(pts[(i + j) % count] for j in range(arity))
            values = [d(item[a], item[b]) for a, b in terms]
            points = tuple(Points(np.array([p], dtype=float)) for p in item)
            ok, offending, _ = test(points, values[0].kind, *(v.data[None] for v in values))
            if not ok[0]:
                element = alg.element_to_dict(alg._raw(values[0].kind, offending[0]))
                out[axiom] = {"points": {k: point_repr(v) for k, v in zip("xyz", item)},
                              "offending": element}
                break
    return out


@pytest.mark.parametrize("name,check,axioms", [
    ("max_unit_interval", check_partial_axioms, spaces._PARTIAL_AXIOMS),
    ("sum_premetric", check_metric_axioms, spaces._METRIC_AXIOMS),
    ("sum_premetric", check_partial_axioms, spaces._PARTIAL_AXIOMS),
    ("diag_absdiff_matrix", check_metric_axioms, spaces._METRIC_AXIOMS),
])
def test_axiom_suite_with_mixed_callables_matches_per_item_reference(name, check, axioms):
    space = get_space(name)
    p = space.distance

    # a user's per-point distance built on a stacked registry one: d(x, y) + d(y, x)
    def fn(x, y):
        return alg.add(p(x, y), p(y, x))

    d = ValuedDistance(p.kind, p.n, fn, p.flavor, label="user")
    report = check(d, space.domain, 300, 11)
    want = _reference_axioms(d, axioms, space.domain, 300, 11)
    assert {c.axiom: c.witness for c in report.checks} == want


def test_axiom_witness_of_a_failing_user_distance_matches_reference():
    # the premetric x + y on [0, 1] with a user sign flip: nonnegativity fails
    p = get_space("sum_premetric").distance
    d = ValuedDistance("vector", 2, lambda x, y: alg.sub(p(x, y), alg.vector([0.0, 1.5])),
                       "premetric", label="shifted")
    report = check_metric_axioms(d, Interval(0.0, 1.0), 200, 3)
    want = _reference_axioms(d, spaces._METRIC_AXIOMS, Interval(0.0, 1.0), 200, 3)
    assert want["nonnegativity"] is not None
    assert {c.axiom: c.witness for c in report.checks} == want


# ---------------------------------------------------------------------------
# errors and non-finite rows


@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_combiner_output_fails_dominance_and_zero_preservation():
    F = FFunction(lambda a, b, c: alg._raw("vector", np.array([np.inf, -100.0])), "inf")
    report = check_F_axioms(F, "vector", 2, 100, seed=0)
    checks = {c.axiom: c for c in report.checks}
    for axiom in ("dominance", "zero-preservation"):
        assert checks[axiom].verdict == "fail"
        assert checks[axiom].witness["offending"]["values"] == [np.inf, -100.0]


@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_matrix_combiner_output_fails_every_F_axiom():
    value = np.array([[np.inf, 0.0], [0.0, -100.0]], dtype=complex)
    F = FFunction(lambda a, b, c: alg._raw("matrix", value), "inf")
    report = check_F_axioms(F, "matrix", 2, 100, seed=0)
    assert [(c.axiom, c.verdict) for c in report.checks] == [
        ("dominance", "fail"), ("zero-preservation", "fail"), ("continuity", "fail")]
    for check in report.checks:
        assert check.witness["offending"]["re"] == value.real.tolist()


def test_non_finite_rows_are_outside_the_cone():
    ok, _ = alg.positive_rows("vector", np.array([[np.inf, -5.0], [1.0, 2.0]]))
    assert ok.tolist() == [False, True]
    ok, _ = alg.positive_rows("scalar", np.array([np.inf, 1.0]))
    assert ok.tolist() == [False, True]
    eye, inf, nan = np.eye(2), np.inf, np.nan
    ok, norms = alg.positive_rows(
        "matrix", np.array([[[inf, 0], [0, 1]], eye, [[1, nan], [nan, 1]], -eye], dtype=complex))
    assert ok.tolist() == [False, True, False, False]
    # as for vectors, a row holding a nan has norm nan, any other non-finite row inf
    assert np.array_equal(norms, [inf, 1.0, nan, 1.0], equal_nan=True)
    ok, _ = alg.positive_rows("matrix", np.array([[[inf, 0], [0, 1]]], dtype=complex))
    assert ok.tolist() == [False]
    ok, _, _ = spaces.vanishes(None, "matrix", np.array([[[inf, 0], [0, 1]], 0 * eye]))
    assert ok.tolist() == [False, True]
    ok, _, _ = spaces.vanishes(None, "vector", np.array([[np.inf, -100.0], [0.0, 0.0]]))
    assert ok.tolist() == [False, True]


def _piecewise(x):
    # contracts, expands or overflows by the first coordinate of a box point
    if x[0] >= 0.97:
        return x * 1e308 * 10
    return 2.0 * x if x[0] >= 0.94 else 0.5 * x


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
# one sample at a time, the first two failing samples fall in one chunk:
# a counterexample then an error (9, 12, 18, 23), an error then a
# counterexample (22), two errors (5, 16)
@pytest.mark.parametrize("seed", [5, 9, 12, 16, 18, 22, 23])
def test_error_and_counterexample_order_matches_per_item_reference(seed):
    # an overflowing T(x) makes the registry matrix distance raise AlgebraError
    # for non-finite data; whichever of that and a counterexample comes first,
    # one sample at a time, must come first in the stacked scan too
    space = get_space("diag_absdiff_matrix")
    phi = PhiFunction(lambda x: alg.matrix(np.zeros((2, 2))), "zero")
    args = (ContractionSpec("plain", k=0.9), OperatorSpec(_piecewise, "piecewise"),
            space.distance, phi, get_combiner("sum"))
    try:
        want = _reference_verify(*args, space.domain, 300, seed)
    except alg.AlgebraError as exc:
        with pytest.raises(type(exc), match=str(exc)):
            verify_contraction(*args, space.domain, 300, seed)
        return
    result = verify_contraction(*args, space.domain, 300, seed)
    assert result.counterexample == want[1]
    assert result.max_slack_norm.hex() == want[0].hex()


def test_distance_kind_check_raises_in_the_stacked_form():
    # a user distance is checked row by row, a rowwise one once per stack
    short = ValuedDistance("vector", 3, lambda x, y: alg.vector([x, y]), "metric", label="u")
    rowwise = ValuedDistance("vector", 3, get_space("sum_premetric").distance.fn, "premetric")
    for d in (short, rowwise):
        with pytest.raises(alg.DimensionMismatchError, match="declared vector"):
            check_metric_axioms(d, Interval(0.0, 1.0), 50, 0)


# ---------------------------------------------------------------------------
# the chunk cap


def _late_fixed_point(x):
    # halves every point but the few at the top of the interval, which it fixes,
    # so a plain contraction fails only at a late sample
    return 0.5 * x if x < 0.996 else x


def _abs_distance(x, y):
    return alg.scalar(abs(x - y))


def _cap_outputs():
    """The structured output and the float bits of every kind of sampled check."""
    out = {}
    registry = get_space("sum_premetric")
    user = ValuedDistance("scalar", 1, _abs_distance, "metric", label="abs")
    late = OperatorSpec(_late_fixed_point, "late")
    verifies = {
        "registry-certified": (ContractionSpec("weak", k=0.6, alpha=1.0), OPERATORS["halving"](),
                               registry.distance, PHIS["zero_pair"](), registry.domain),
        "registry-falsified": (ContractionSpec("plain", k=0.6), late, registry.distance,
                               PHIS["zero_pair"](), registry.domain),
        "user-certified": (ContractionSpec("plain", k=0.6), OPERATORS["halving"](), user,
                           PHIS["zero_scalar"](), Interval(-1.0, 1.0)),
        "user-falsified": (ContractionSpec("plain", k=0.6), late, user, PHIS["zero_scalar"](),
                           Interval(-1.0, 1.0)),
    }
    for name, (spec, T, d, phi, domain) in verifies.items():
        result = verify_contraction(spec, T, d, phi, COMBINERS["sum"](), domain, 1000, 10)
        out[name] = (json.dumps(result.to_dict()), result.max_slack_norm.hex())
    for name, check in (("shifted_max_matrix", check_partial_axioms),
                        ("diag_absdiff_matrix", check_metric_axioms),
                        ("sum_premetric", check_metric_axioms)):
        space = get_space(name)
        out[name] = json.dumps(check(space.distance, space.domain, 700, 5).to_dict())
    problem = PartialProblem(get_space("max_unit_interval").distance, OPERATORS["halving"](),
                             ContractionSpec("chatterjea", k=1 / 3))
    result = verify_corollary_hypothesis(problem, Interval(0.0, 1.0), 1000, 2)
    out["corollary"] = (json.dumps(result.to_dict()), result.max_slack_norm.hex())
    for name in ("sum", "square_first"):
        report = check_F_axioms(COMBINERS[name](), "matrix", 2, 600, seed=4)
        out[f"F-{name}"] = (json.dumps(report.to_dict()), report.continuity_modulus.hex())
    return out


@pytest.fixture(scope="module")
def one_row_chunks():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "CHUNK_ROWS", 1)
        return _cap_outputs()


def test_cap_outputs_fail_late(one_row_chunks):
    # the falsified verifies fail past the first 256-row chunk's start, so every cap splits them
    for name in ("registry-falsified", "user-falsified"):
        assert json.loads(one_row_chunks[name][0])["counterexample"]["index"] > 300, name
    assert not json.loads(one_row_chunks["F-square_first"][0])["all_pass"]


@pytest.mark.parametrize("cap", [1, 16, 256])
def test_chunk_cap_changes_no_output(cap, monkeypatch, one_row_chunks):
    monkeypatch.setattr(spaces, "CHUNK_ROWS", cap)
    assert _cap_outputs() == one_row_chunks


@pytest.mark.parametrize("first", [0, 1, 6, 254, 255, 256, 300, 700])
def test_full_chunks_keep_the_laziness_bound(first, monkeypatch):
    monkeypatch.setattr(spaces, "CHUNK_ROWS", 256)
    evaluated = []

    def evaluate(x):
        evaluated.append(len(x))
        return (alg._raw("scalar", np.where(x.data == first, -1.0, 1.0)),)

    _, failure = spaces.first_failure((Points(np.arange(2000.0)),), evaluate, spaces._nonnegative)
    assert failure[0] == first
    assert sum(evaluated) <= 2 * first + 1
    assert max(evaluated) <= 256


# ---------------------------------------------------------------------------
# the stacked combiner and the induced metric


_PER_POINT_F = {
    "sum": lambda a, b, c: a + b + c,
    "square_first": lambda a, b, c: a * a + b + c,
}


@pytest.mark.parametrize("name", sorted(_PER_POINT_F))
@pytest.mark.parametrize("kind,n", [("scalar", 1), ("vector", 2), ("matrix", 2)])
def test_F_axioms_of_a_per_point_combiner_match_the_rowwise_one(name, kind, n):
    stacked = check_F_axioms(COMBINERS[name](), kind, n, 700, seed=1)
    per_point = check_F_axioms(FFunction(_PER_POINT_F[name], COMBINERS[name]().label),
                               kind, n, 700, seed=1)
    assert json.dumps(per_point.to_dict()) == json.dumps(stacked.to_dict())
    assert per_point.continuity_modulus.hex() == stacked.continuity_modulus.hex()


def _dominance_inputs(count):
    """The first arguments of check_F_axioms' dominance triples, in order."""
    seen = []

    def fn(a, b, c):
        seen.append(a)
        return a + b + c

    check_F_axioms(FFunction(fn, "sum"), "matrix", 2, count, seed=0)
    return seen[:count]


@pytest.mark.parametrize("fails,raises", [(300, 400), (400, 300)])
def test_F_error_later_in_a_full_chunk_does_not_hide_a_dominance_failure(fails, raises):
    # triples 255 to 510 form one chunk at the 256-row cap
    seen = _dominance_inputs(600)
    bad, flawed = seen[fails].data.tobytes(), seen[raises].data.tobytes()

    def fn(a, b, c):
        if a.data.tobytes() == flawed:
            raise ArithmeticError("combiner blew up")
        return alg.zero("matrix", 2) if a.data.tobytes() == bad else a + b + c

    F = FFunction(fn, "flawed")
    if raises < fails:
        with pytest.raises(ArithmeticError):
            check_F_axioms(F, "matrix", 2, 600, seed=0)
        return
    dominance = check_F_axioms(F, "matrix", 2, 600, seed=0).checks[0]
    assert dominance.verdict == "fail"
    assert dominance.witness["offending"] == alg.element_to_dict(alg.zero("matrix", 2))
    assert dominance.witness["inputs"][0] == alg.element_to_dict(seen[fails])


@pytest.mark.parametrize("name", ["max_unit_interval", "absdiff_pair", "shifted_max_matrix"])
def test_induced_metric_over_points_matches_per_point(name):
    p = get_space(name).distance
    d = spaces.induced_metric(p)
    xs, ys = (np.random.default_rng(seed).uniform(0.0, 1.0, 40) for seed in (1, 2))
    xs[:5] = ys[:5]  # the diagonal, where the induced metric is exactly zero
    got = d(Points(xs), Points(ys))
    assert got.stacked and len(got.data) == len(xs)
    for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        # the element arithmetic the induced metric is defined by, one point at a time
        want = alg.sub(alg.scale(2.0, p(x, y)), alg.add(p(x, x), p(y, y)))
        assert _same_bytes(d(x, y), want) and _same_bytes(got.row(i), want), i


@pytest.mark.parametrize("fn", [
    lambda x, y: alg.vector([x, y]),
    spaces.rowwise(lambda x, y: alg.values("vector", np.stack([x, y], axis=-1))),
])
def test_induced_metric_of_a_wrong_kind_p_names_p(fn):
    p = ValuedDistance("scalar", 1, fn, "partial", label="wrong-kind")
    d = spaces.induced_metric(p)
    with pytest.raises(alg.DimensionMismatchError, match="'wrong-kind'"):
        d(0.25, 0.5)
    with pytest.raises(alg.DimensionMismatchError, match="'wrong-kind'"):
        check_metric_axioms(d, Interval(0.0, 1.0), 20, 0)


@pytest.mark.parametrize("fails", [True, False])
def test_a_row_of_another_size_does_not_hide_an_earlier_counterexample(fails):
    # samples 3..6 form one chunk: a per-point phi gives a 3-vector at sample 5
    # of a 2-vector space, and T breaks the contraction at sample 3 when fails
    domain = Interval(0.0, 1.0)
    xs = domain.sample_many(np.random.default_rng(0), 20)[0::2].tolist()

    def phi(x):
        return alg.vector([0.0] * (3 if x == xs[5] else 2))

    def t(x):
        return 10.0 if fails and x == xs[3] else 0.5 * x

    args = (ContractionSpec("plain", k=0.5), OperatorSpec(t, "t"),
            ValuedDistance("vector", 2, lambda x, y: alg.vector([abs(x - y)] * 2), "metric"),
            PhiFunction(phi, "sized"), get_combiner("sum"), domain, 10)
    if not fails:
        with pytest.raises(alg.DimensionMismatchError):
            verify_contraction(*args, seed=0)
        return
    ce = verify_contraction(*args, seed=0).counterexample
    assert ce["index"] == 3 and ce["x"] == xs[3]
