import fractions

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstarfix import algebra as alg
from cstarfix.algebra import (
    DimensionMismatchError,
    NotPositiveError,
    NotSelfAdjointError,
    OrderTolerance,
)

TOL = OrderTolerance(1e-9)


def random_matrix(rng, n=3):
    return alg.matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_hermitian(rng, n=3):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return alg.matrix(0.5 * (m + m.conj().T))


def random_psd(rng, n=3, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return alg.matrix(scale * (g @ g.conj().T) / n)


class TestArithmetic:
    def test_involution_is_idempotent(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng)
        assert np.allclose(alg.involution(alg.involution(m)).data, m.data)

    def test_involution_reverses_products(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_matrix(rng), random_matrix(rng)
            lhs = alg.involution(alg.mul(a, b))
            rhs = alg.mul(alg.involution(b), alg.involution(a))
            assert np.allclose(lhs.data, rhs.data)

    def test_diagonal_product(self):
        a = alg.matrix(np.diag([1.0, 2.0]))
        b = alg.matrix(np.diag([3.0, 4.0]))
        assert np.allclose(alg.mul(a, b).data, np.diag([3.0, 8.0]))

    def test_involution_conjugate_transposes(self):
        m = alg.matrix([[0, 1j], [0, 0]])
        assert np.allclose(alg.involution(m).data, [[0, 0], [-1j, 0]])

    def test_vector_mul_is_componentwise(self):
        a, b = alg.vector([1.0, 2.0]), alg.vector([3.0, 4.0])
        assert np.allclose(alg.mul(a, b).data, [3.0, 8.0])

    def test_kind_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            alg.add(alg.scalar(1.0), alg.vector([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            alg.mul(alg.vector([1.0]), alg.vector([1.0, 2.0]))

    def test_unit_is_neutral(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng)
        assert np.allclose(alg.mul(alg.unit("matrix", 3), m).data, m.data)


class TestSpectrum:
    def test_diagonal_eigenvalues(self):
        assert np.allclose(alg.spectrum(alg.matrix(np.diag([2.0, 5.0]))), [2, 5])

    def test_symmetric_offdiagonal(self):
        # oracle: characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
        assert np.allclose(alg.spectrum(alg.matrix([[0, 1], [1, 0]])), [-1, 1])

    def test_vector_entries_sorted(self):
        assert np.allclose(alg.spectrum(alg.vector([3, 1, 2])), [1, 2, 3])

    def test_non_self_adjoint_rejected(self):
        with pytest.raises(NotSelfAdjointError) as exc:
            alg.spectrum(alg.matrix([[0, 1], [0, 0]]))
        assert exc.value.max_asymmetry > 0


class TestOrder:
    def test_positive_definite(self):
        # eigenvalues of [[2,1],[1,2]] are 1 and 3
        assert alg.is_positive(alg.matrix([[2, 1], [1, 2]]), TOL)

    def test_indefinite(self):
        assert not alg.is_positive(alg.matrix([[0, 1], [1, 0]]), TOL)

    def test_zero_is_positive(self):
        assert alg.is_positive(alg.zero("matrix", 2), TOL)
        assert alg.is_positive(alg.zero("vector", 3), TOL)

    def test_non_self_adjoint_is_not_positive(self):
        assert not alg.is_positive(alg.matrix([[1, 1], [0, 1]]), TOL)

    def test_leq_diagonal(self):
        assert alg.leq(alg.matrix(np.diag([1.0, 1.0])), alg.matrix(np.diag([2.0, 3.0])), TOL)

    def test_leq_componentwise(self):
        assert not alg.leq(alg.vector([0.5, 2.0]), alg.vector([1.0, 1.0]), TOL)

    def test_leq_reflexive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_hermitian(rng)
            assert alg.leq(h, h, TOL)

    def test_leq_antisymmetric_within_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_hermitian(rng)
            b = alg.add(a, random_psd(rng, scale=0.1))
            if alg.leq(b, a, TOL):
                assert alg.norm(alg.sub(a, b)) <= 1e-8

    def test_leq_transitive(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_hermitian(rng)
            b = alg.add(a, random_psd(rng))
            c = alg.add(b, random_psd(rng))
            assert alg.leq(a, b, TOL) and alg.leq(b, c, TOL) and alg.leq(a, c, TOL)


class TestNorm:
    def test_matrix_norm_and_unit_order(self):
        m = alg.matrix(np.diag([0.5, 0.25]))
        assert alg.norm(m) == pytest.approx(0.5)
        assert alg.leq(m, alg.unit("matrix", 2), TOL)

    def test_vector_sup_norm(self):
        assert alg.norm(alg.vector([3.0, -4.0])) == pytest.approx(4.0)

    def test_zero_norm(self):
        assert alg.norm(alg.zero("matrix", 4)) == 0.0

    def test_unit_order_iff_norm_at_most_one(self):
        # positive a: a below the unit element exactly when its norm is <= 1
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_psd(rng, n=4, scale=float(rng.uniform(0.1, 2.0)))
            assert alg.leq(a, alg.unit("matrix", 4), TOL) == (alg.norm(a) <= 1 + 1e-9)


class TestSqrtAbs:
    def test_diagonal_roots(self):
        r = alg.sqrt_positive(alg.matrix(np.diag([4.0, 9.0])), TOL)
        assert np.allclose(r.data, np.diag([2.0, 3.0]))

    def test_abs_of_negative_scalar(self):
        assert alg.abs_element(alg.scalar(-3.0)).data == pytest.approx(3.0)

    def test_abs_of_nilpotent(self):
        # oracle: x*x = diag(0,4), whose positive root is diag(0,2)
        r = alg.abs_element(alg.matrix([[0, 2], [0, 0]]))
        assert np.allclose(r.data, np.diag([0.0, 2.0]), atol=1e-9)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_psd(rng)
            r = alg.sqrt_positive(a)
            assert alg.norm(alg.sub(alg.mul(r, r), a)) <= 1e-8 * max(1.0, alg.norm(a))
            assert alg.is_positive(r)

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(NotPositiveError) as exc:
            alg.sqrt_positive(alg.matrix([[0, 1], [1, 0]]), TOL)
        assert exc.value.min_eigenvalue == pytest.approx(-1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=8, max_size=8))
def test_star_gram_is_positive(entries):
    re = np.array(entries[:4]).reshape(2, 2)
    im = np.array(entries[4:]).reshape(2, 2)
    a = alg.matrix(re + 1j * im)
    assert alg.is_positive(alg.mul(alg.involution(a), a))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
def test_scalar_order_matches_reals(a, b, t):
    assert alg.leq(alg.scalar(a), alg.scalar(b), OrderTolerance(0.0)) == (a <= b)
    assert alg.norm(alg.scale(t, alg.scalar(a))) == pytest.approx(abs(t * a))


def test_serialization_roundtrip():
    rng = np.random.default_rng(9)
    for e in [alg.scalar(1.5), alg.vector([1.0, -2.0]), random_matrix(rng)]:
        back = alg.element_from_dict(alg.element_to_dict(e))
        assert back.kind == e.kind
        assert np.allclose(back.data, e.data)


def test_matrix_serial_field_names():
    d = alg.element_to_dict(alg.matrix([[1, 2], [3, 4]]))
    assert set(d) == {"kind", "n", "re", "im"}
    assert d["kind"] == "matrix" and d["n"] == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scalar_rejected(bad):
    for build in (
        lambda: alg.scalar(bad),
        lambda: alg.AlgebraElement("scalar", bad),
        lambda: alg.AlgebraElement("scalar", np.float64(bad)),
        lambda: alg.AlgebraElement("scalar", np.asarray(bad)),
        lambda: alg.element_from_dict({"kind": "scalar", "value": bad}),
    ):
        with pytest.raises(alg.AlgebraError, match="element data must be finite"):
            build()


# row-stacked data: one axis more than the kind's rank
_STACKED_DATA = [
    lambda: alg.scalar([1.0, 2.0]),
    lambda: alg.scalar([1.0]),
    lambda: alg.scalar([[1.0]]),
    lambda: alg.AlgebraElement("scalar", np.zeros(3)),
    lambda: alg.element_from_dict({"kind": "scalar", "value": [1, 2]}),
    lambda: alg.vector(np.zeros((2, 3))),
    lambda: alg.element_from_dict({"kind": "vector", "values": [[1.0, 2.0]]}),
    lambda: alg.matrix(np.zeros((2, 3, 3))),
    lambda: alg.element_from_dict({"kind": "matrix", "re": np.zeros((2, 2, 2)).tolist(),
                                   "im": np.zeros((2, 2, 2)).tolist()}),
]


@pytest.mark.parametrize("build", _STACKED_DATA)
def test_constructors_reject_row_stacked_data(build):
    with pytest.raises(alg.AlgebraError):
        build()


@pytest.mark.parametrize("e", [alg.scalar(0.0), alg.vector([0.0]), alg.matrix(np.zeros((2, 2)))])
def test_element_is_a_value_not_a_sequence(e):
    # an element defines no length, so a zero element is still a truthy value
    assert bool(e) is True
    with pytest.raises(TypeError):
        iter(e)


def _ref_scalar_data(value) -> np.ndarray:
    """The scalar data as the general constructor path built it."""
    arr = np.asarray(float(np.asarray(value)), dtype=float).copy()
    arr.setflags(write=False)
    return arr


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _bits(e) -> bytes:
    return np.asarray(e.data).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _finite_floats,
        _finite_floats.map(np.float64),
        _finite_floats.map(np.asarray),
        st.integers(-(2**53), 2**53),
    ),
    _finite_floats,
    _finite_floats,
)
@example(-0.0, 0.0, -1.0)
@example(np.float64(-0.0), -0.0, 0.0)
@example(1e308, 1e308, -1e308)
def test_scalar_fast_path_matches_general_construction(value, other, t):
    ref = _ref_scalar_data(value)
    built = [alg.scalar(value), alg.AlgebraElement("scalar", value)]
    if isinstance(value, float):  # a float or a float64: one point's computed value
        built.append(alg.values("scalar", value))
    for e in built:
        assert e.kind == "scalar" and not e.stacked
        assert e.data.dtype == np.float64 and e.data.shape == ()
        assert e.data.tobytes() == ref.tobytes()
        assert not e.data.flags.writeable
    # the arithmetic gives the bits it gave on read-only 0-d arrays, overflow included
    olds = alg._raw("scalar", ref), alg._raw("scalar", _ref_scalar_data(other))
    for e in built:
        news = e, alg.scalar(other)
        with np.errstate(over="ignore", invalid="ignore"):
            for op in (alg.add, alg.sub, alg.mul):
                for i, j in ((0, 1), (1, 0)):
                    assert _bits(op(news[i], news[j])) == _bits(op(olds[i], olds[j]))
            assert _bits(alg.scale(t, e)) == _bits(alg.scale(t, olds[0]))
        assert alg.norm(e).hex() == alg.norm(olds[0]).hex()


@pytest.mark.parametrize("value", [
    np.nan, np.inf, -np.inf, np.float64(np.nan), np.array(np.inf),
    "x", None, [1.0], np.array([1.0]), 1j, np.complex128(1.0), np.complex64(1.0),
    "1.5", b"1", np.str_("2"), np.array("0.5"),
])
def test_scalar_rejects_non_finite_or_non_real_data(value):
    with pytest.raises(alg.AlgebraError):
        alg.scalar(value)
    with pytest.raises(alg.AlgebraError):
        alg.AlgebraElement("scalar", value)


@pytest.mark.parametrize("build", [
    lambda: alg.vector(["1", "2"]),
    lambda: alg.vector([b"1", b"2"]),
    lambda: alg.vector(np.array(["1.0"])),
    lambda: alg.AlgebraElement("vector", [1.0, "2"]),
    lambda: alg.vector([10**30, "2"]),
    lambda: alg.matrix([["1", "0"], ["0", "1"]]),
    lambda: alg.element_from_dict({"kind": "scalar", "value": "0.5"}),
    lambda: alg.element_from_dict({"kind": "vector", "n": 2, "values": ["1", "2"]}),
    lambda: alg.element_from_dict({"kind": "matrix", "n": 1, "re": [["1"]], "im": [[0.0]]}),
    lambda: alg.element_from_dict({"kind": "matrix", "n": 1, "re": [[1.0]], "im": [[b"0"]]}),
])
def test_constructors_reject_str_and_bytes_data(build):
    # float() and complex() would parse them as numbers
    with pytest.raises(alg.AlgebraError):
        build()


def test_constructors_still_take_numbers_of_any_real_or_complex_dtype():
    assert alg.vector([1, 2]).data.tolist() == [1.0, 2.0]
    assert alg.matrix([[1, 2j], [-2j, True]]).data.tolist() == [[1, 2j], [-2j, 1]]
    assert alg.scalar(np.array(2.5)).data == 2.5 and alg.scalar(3).data == 3.0
    # Python ints too large for int64, which numpy holds as objects
    assert alg.scalar(10**30).data == 1e30 and alg.scalar(-2**63 - 1).data == -2.0**63
    assert alg.vector([10**30, 1]).data.tolist() == [1e30, 1.0]
    assert alg.matrix([[10**30]]).data.tolist() == [[1e30]]
    assert alg.scalar(fractions.Fraction(1, 4)).data == 0.25
    d = alg.element_to_dict(alg.matrix([[1.0, -0.5j], [0.5j, -2.0]]))
    assert alg.element_to_dict(alg.element_from_dict(d)) == d


# Reference copy of the SVD-based matrix order cone the algebra module used
# before exactly Hermitian operands skipped the asymmetry SVD. The fast paths
# must agree with it bit for bit.


def _ref_norm(a):
    return float(np.linalg.norm(a.data, 2))


def _ref_eps(a, tol):
    return 1e-9 * max(1.0, _ref_norm(a)) if tol is None else tol.eps


def _ref_max_asymmetry(a):
    return float(np.linalg.norm(a.data - a.data.conj().T, 2))


def _ref_spectrum(a, tol):
    asym = _ref_max_asymmetry(a)
    if asym > _ref_eps(a, tol):
        raise NotSelfAdjointError(asym)
    return np.linalg.eigvalsh(0.5 * (a.data + a.data.conj().T))


def _ref_is_positive(a, tol):
    eps = _ref_eps(a, tol)
    if _ref_max_asymmetry(a) > eps:
        return False
    return float(_ref_spectrum(a, OrderTolerance(eps))[0]) >= -eps


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _entries(rng, shape, scale):
    """Normal entries times scale, about a third of them zeros of either sign."""
    x = rng.normal(size=shape) * scale
    zero = rng.random(shape) < 0.35
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


def _signed_zero(rng):
    return 0.0 if rng.random() < 0.5 else -0.0


def _hermitian(rng, n, scale):
    """Exactly Hermitian data whose zero components carry independent signs."""
    re, im = _entries(rng, (n, n), scale), _entries(rng, (n, n), scale)
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        m[i, i] = complex(re[i, i], _signed_zero(rng))
        for j in range(i):
            m[i, j] = complex(re[i, j], im[i, j])
            # the mirror entry equals conj(m[i, j]) in value; a zero part may
            # still take either sign
            upper_re = _signed_zero(rng) if re[i, j] == 0 else re[i, j]
            upper_im = _signed_zero(rng) if im[i, j] == 0 else -im[i, j]
            m[j, i] = complex(upper_re, upper_im)
    assert np.array_equal(m, m.conj().T)
    return m


def _matrix_case(draw, rng, n, scale, case):
    """Matrix data of one edge case: exactly Hermitian, Hermitian plus an
    asymmetry just below or just above the default eps, or general."""
    if case == "general":
        return _entries(rng, (n, n), scale) + 1j * _entries(rng, (n, n), scale)
    data = _hermitian(rng, n, scale)
    if case in ("below_eps", "above_eps") and n > 1:
        # add an asymmetry of norm just below or just above the default eps
        g = np.triu(np.ones((n, n)), 1) * (1 + 1j)
        target = 1e-9 * max(1.0, _ref_norm(alg.matrix(data)))
        target *= draw(st.floats(0.9, 0.999) if case == "below_eps" else st.floats(1.001, 1.1))
        data = data + g * (target / float(np.linalg.norm(g - g.conj().T, 2)))
    return data


_CASES = ["hermitian", "below_eps", "above_eps", "general"]


@st.composite
def _order_operand(draw):
    n = draw(st.sampled_from([1, 2, 8]))
    scale = 10.0 ** draw(st.floats(-12, 6))
    case = draw(st.sampled_from(_CASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = _matrix_case(draw, rng, n, scale, case)
    a = alg.matrix(data)
    tol = draw(st.one_of(
        st.none(),
        st.just(OrderTolerance(0.0)),
        st.builds(OrderTolerance, st.sampled_from([
            _ref_max_asymmetry(a), np.nextafter(_ref_max_asymmetry(a), 0.0),
            1e-9 * scale, 1e-6 * scale,
        ])),
    ))
    return a, tol


@settings(max_examples=400, deadline=None)
@given(_order_operand(), _order_operand())
def test_matrix_order_cone_matches_svd_reference(operand, other):
    a, tol = operand
    assert alg.is_positive(a, tol) == _ref_is_positive(a, tol)
    assert alg.is_self_adjoint(a, tol) == (_ref_max_asymmetry(a) <= _ref_eps(a, tol))
    assert _same_bits(alg.norm(a), _ref_norm(a))
    assert _same_bits(alg.max_asymmetry(a), _ref_max_asymmetry(a))
    try:
        expected = _ref_spectrum(a, tol)
    except NotSelfAdjointError as exc:
        with pytest.raises(NotSelfAdjointError) as raised:
            alg.spectrum(a, tol)
        assert _same_bits(raised.value.max_asymmetry, exc.max_asymmetry)
    else:
        assert _same_bits(alg.spectrum(a, tol), expected)
    b = other[0]
    if b.n == a.n:
        assert alg.leq(b, a, tol) == _ref_is_positive(alg.sub(a, b), tol)
    assert alg.leq(alg.zero("matrix", a.n), a, tol) == _ref_is_positive(
        alg.sub(a, alg.zero("matrix", a.n)), tol
    )


# One-element-at-a-time reference for the stacked order cone. Matrix rows use
# the SVD reference above; scalar and vector rows restate the cone rule.


def _ref_row(kind, row, tol):
    """(positive, norm) of one stack row, computed on its own."""
    if kind == "matrix":
        a = alg.matrix(row)
        return _ref_is_positive(a, tol), _ref_norm(a)
    if kind == "scalar":
        value = float(row)
        nrm, lowest = abs(value), value
    else:
        nrm, lowest = float(np.max(np.abs(row))), float(np.min(row))
    eps = 1e-9 * max(1.0, nrm) if tol is None else tol.eps
    return lowest >= -eps, nrm


def _near_cone_edge(x, factor):
    """x with its least entry moved to factor times minus the default eps."""
    x = np.array(x, dtype=float)
    flat = x.reshape(-1)
    i = int(np.argmin(flat))
    rest = np.delete(flat, i)
    # the norm after the move is the largest of the rest or the moved entry
    scale = max(1.0, float(np.max(np.abs(rest))) if rest.size else 0.0)
    flat[i] = -factor * 1e-9 * scale
    return x


@st.composite
def _stack_operand(draw):
    kind = draw(st.sampled_from(["scalar", "vector", "matrix"]))
    n = 1 if kind == "scalar" else draw(st.sampled_from([1, 2, 8]))
    rows = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.floats(-12, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = []
    for _ in range(rows):
        case = draw(st.sampled_from(_CASES))
        if kind == "matrix":
            row = _matrix_case(draw, rng, n, scale, case)
        else:
            row = _entries(rng, (n,), scale)
            if case in ("below_eps", "above_eps"):
                factor = draw(st.floats(0.9, 0.999) if case == "below_eps" else st.floats(1.001, 1.1))
                row = _near_cone_edge(row, factor)
        data.append(row[0] if kind == "scalar" else row)
    elements = [alg.AlgebraElement(kind, row) for row in data]
    tol = draw(st.one_of(
        st.none(),
        st.just(OrderTolerance(0.0)),
        st.builds(OrderTolerance, st.sampled_from([
            _ref_max_asymmetry(elements[0]) if kind == "matrix" else abs(float(np.min(data[0]))),
            1e-9 * scale, 1e-6 * scale,
        ])),
    ))
    return kind, elements, tol


@settings(max_examples=300, deadline=None)
@given(_stack_operand())
def test_stacked_order_cone_matches_row_reference(operand):
    kind, elements, tol = operand
    stacked = alg.stack(elements)
    data = stacked.data
    assert stacked.kind == kind and stacked.stacked and len(data) == len(elements)
    ok, norms = alg.positive_rows(kind, data, tol)
    assert _same_bits(norms, alg.norm_rows(kind, data))
    for row, a, positive, nrm in zip(data, elements, ok.tolist(), norms):
        expected_positive, expected_norm = _ref_row(kind, row, tol)
        assert positive == expected_positive == alg.is_positive(a, tol)
        assert _same_bits(nrm, np.float64(expected_norm))
        assert _same_bits(float(nrm), alg.norm(a))


@pytest.mark.parametrize(
    "elements",
    [
        [alg.scalar(1.0), alg.vector([1.0])],
        [alg.vector([1.0, 2.0]), alg.vector([1.0, 2.0, 3.0])],
        [alg.matrix(np.eye(2)), alg.matrix(np.eye(3))],
        [alg.matrix(np.eye(1)), alg.vector([1.0])],
    ],
)
def test_stack_of_mixed_kinds_or_sizes_raises(elements):
    with pytest.raises(DimensionMismatchError):
        alg.stack([elements[0], *elements])


_entry = st.one_of(_finite_floats, st.sampled_from([-0.0, 0.0]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=1, max_size=4)))
@example([[-0.0]])
@example([[-0.0, 0.0], [0.0, -0.0]])
@example([[-2.5, 2.5, -1.0], [1.0, -3.0, 3.0]])
@example([[7.0], [-7.0], [-0.0]])
def test_vector_norm_matches_its_norm_rows_row(rows):
    norms = alg.norm_rows("vector", np.array(rows, dtype=float))
    for row, nrm in zip(rows, norms.tolist()):
        assert alg.norm(alg.vector(row)).hex() == nrm.hex()
