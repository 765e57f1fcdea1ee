"""Finite-dimensional representable C*-algebra elements.

Three carriers are supported: real scalars, real n-vectors under
componentwise multiplication and order, and complex n x n matrices under
the Loewner order. All operations are pure; elements are immutable.

An element may also hold a stack of rows: data with one leading axis more
than its kind's rank, such as the values of a chunk of samples. add, sub,
mul and scale then act row by row, an unstacked operand standing for the
same element in every row. The public constructors build single elements
only; stacks come from values, stack and freshly computed arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

Kind = Literal["scalar", "vector", "matrix"]

__all__ = [
    "AlgebraElement",
    "AlgebraError",
    "DimensionMismatchError",
    "NotSelfAdjointError",
    "NotPositiveError",
    "OrderTolerance",
    "scalar",
    "vector",
    "matrix",
    "zero",
    "unit",
    "add",
    "sub",
    "mul",
    "scale",
    "involution",
    "spectrum",
    "is_self_adjoint",
    "is_positive",
    "leq",
    "norm",
    "sqrt_positive",
    "abs_element",
    "element_to_dict",
    "element_from_dict",
]


class AlgebraError(ValueError):
    """Base error for algebra operations."""


class DimensionMismatchError(AlgebraError):
    """Operands differ in kind or dimension."""


class NotSelfAdjointError(AlgebraError):
    """A matrix operand was not self-adjoint within tolerance."""

    def __init__(self, max_asymmetry: float):
        self.max_asymmetry = max_asymmetry
        super().__init__(
            f"matrix is not self-adjoint: max |a - a*| entry = {max_asymmetry:.3e}"
        )


class NotPositiveError(AlgebraError):
    """A positivity-requiring operation received a non-positive element."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"element is not positive: min spectrum value = {min_eigenvalue:.3e}"
        )


@dataclass(frozen=True)
class OrderTolerance:
    """Slack below which an eigenvalue or entry still counts as nonnegative."""

    eps: float = 0.0

    def __post_init__(self):
        if self.eps < 0:
            raise AlgebraError("tolerance eps must be nonnegative")


_RANK = {"scalar": 0, "vector": 1, "matrix": 2}


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A member of the algebra: the carrier of all metric values, or a stack
    of members of one kind and size (see stacked)."""

    kind: Kind
    data: np.ndarray | np.float64 = field(repr=False)

    def __post_init__(self):
        if self.kind == "scalar":
            # every per-point distance value is built here; a float64 is
            # immutable, so it needs neither a copy nor a write flag
            # one isinstance on the per-point path; float() would drop the
            # imaginary part of complex data and parse str and bytes
            if not isinstance(self.data, float) and np.asarray(self.data).dtype.kind in "cSU":
                raise AlgebraError("scalar data must be a real number")
            try:
                value = np.float64(float(self.data))
            except (TypeError, ValueError):
                raise AlgebraError("scalar data must be a real number") from None
            if not math.isfinite(value):
                raise AlgebraError("element data must be finite")
            object.__setattr__(self, "data", value)
            return
        arr = np.asarray(self.data)
        # float() and complex() parse str and bytes, also inside an object array
        if arr.dtype.kind in "SUO" and any(isinstance(v, (str, bytes)) for v in arr.flat):
            raise AlgebraError("element data must be numbers")
        if self.kind == "vector":
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise AlgebraError("vector data must be a nonempty 1-d real array")
        elif self.kind == "matrix":
            arr = np.asarray(arr, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
                raise AlgebraError("matrix data must be square and nonempty")
        else:
            raise AlgebraError(f"unknown kind {self.kind!r}")
        if not np.isfinite(arr).all():
            raise AlgebraError("element data must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return 1 if self.kind == "scalar" else self.data.shape[-1]

    @property
    def stacked(self) -> bool:
        """Whether data holds a stack of rows along a leading axis."""
        return self.data.ndim > _RANK[self.kind]

    def __getitem__(self, rows: int | slice) -> "AlgebraElement":
        """Row i of a stack as an element, or a slice of its rows as a stack."""
        return _raw(self.kind, self.data[rows])

    row = __getitem__

    # not a sequence, though it has __getitem__; with no __len__, bool() stays True
    __iter__ = None

    # numpy scalars hand their products with elements to __rmul__
    __array_ufunc__ = None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return sub(self, other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return mul(self, other)

    def __rmul__(self, t: float) -> "AlgebraElement":
        return scale(t, self)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.kind}, n={self.n}, {np.array2string(self.data, precision=6)})"


def _raw(kind: Kind, data: np.ndarray) -> AlgebraElement:
    """Unchecked constructor for freshly computed internal arrays."""
    obj = object.__new__(AlgebraElement)
    # the instance dict is what object.__setattr__ writes, at a fraction of its cost
    fields = obj.__dict__
    fields["kind"] = kind
    fields["data"] = data
    return obj


def values(kind: Kind, data) -> AlgebraElement:
    """The element, or the stack of elements, of freshly computed data.
    Matrix data of any shape are cast to complex and must be finite, else
    AlgebraError; the scan finds a stack's non-finite row (see
    spaces.head_evaluated). Real data are taken unchecked, as _raw takes them."""
    if kind != "matrix":
        # one point's value is a float64, as scalar() stores it
        return _raw(kind, np.float64(data) if isinstance(data, float) else np.asarray(data, dtype=float))
    data = np.asarray(data, dtype=complex)
    if not np.isfinite(data).all():
        raise AlgebraError("element data must be finite")
    return _raw(kind, data)


def scalar(value: float) -> AlgebraElement:
    if isinstance(value, float) and math.isfinite(value):
        # the float64 __post_init__ would store, without its checks
        return _raw("scalar", np.float64(value))
    return AlgebraElement("scalar", value)


def vector(values) -> AlgebraElement:
    return AlgebraElement("vector", values)


def matrix(values) -> AlgebraElement:
    return AlgebraElement("matrix", values)


@functools.cache  # elements are immutable, so one zero per (kind, n) serves every caller
def zero(kind: Kind, n: int = 1) -> AlgebraElement:
    if kind == "scalar":
        return scalar(0.0)
    if kind == "vector":
        return vector(np.zeros(n))
    return matrix(np.zeros((n, n)))


def unit(kind: Kind, n: int = 1) -> AlgebraElement:
    if kind == "scalar":
        return scalar(1.0)
    if kind == "vector":
        return vector(np.ones(n))
    return matrix(np.eye(n))


def _check_compatible(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.kind != b.kind or a.n != b.n:
        raise DimensionMismatchError(
            f"incompatible operands: {a.kind}(n={a.n}) vs {b.kind}(n={b.n})"
        )


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_compatible(a, b)
    return _raw(a.kind, a.data + b.data)


def sub(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_compatible(a, b)
    return _raw(a.kind, a.data - b.data)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product: componentwise for scalars/vectors, matmul for matrices."""
    _check_compatible(a, b)
    if a.kind == "matrix":
        return _raw("matrix", a.data @ b.data)
    return _raw(a.kind, a.data * b.data)


def scale(t: float, a: AlgebraElement) -> AlgebraElement:
    return _raw(a.kind, float(t) * a.data)


def involution(a: AlgebraElement) -> AlgebraElement:
    """Conjugate transpose for matrices; identity on real scalars/vectors."""
    if a.kind == "matrix":
        return _raw("matrix", a.data.conj().T)
    return a


def _default_eps(norms):
    # Relative slack keeps the positivity predicate scale-stable.
    return 1e-9 * np.maximum(1.0, norms)


def _resolve_eps(norms, tol: OrderTolerance | None):
    """The order slack of elements with these norms."""
    return _default_eps(norms) if tol is None else tol.eps


def stack(elements) -> AlgebraElement:
    """The stacked element of the rows elements, all of one kind and size.
    The first row that differs from row 0 raises DimensionMismatchError
    naming both."""
    first = elements[0]
    kind, shape = first.kind, first.data.shape
    for e in elements:
        if e.kind != kind or e.data.shape != shape:
            raise DimensionMismatchError(
                f"incompatible operands: {first.kind}(n={first.n}) vs {e.kind}(n={e.n})"
            )
    return _raw(kind, np.array([e.data for e in elements]))


def norm_rows(kind: Kind, data: np.ndarray) -> np.ndarray:
    """The norm of each row of a stack; row for row what norm returns. The
    SVD does not converge on a non-finite matrix row: as a vector row's, its
    norm is nan if it holds a nan, else inf."""
    if kind == "scalar":
        return np.abs(data)
    if kind == "vector":
        return np.max(np.abs(data), axis=1)
    finite = np.isfinite(data).all(axis=(1, 2))
    if finite.all():
        return np.linalg.svd(data, compute_uv=False)[:, 0]
    norms = np.where(np.isnan(data).any(axis=(1, 2)), np.nan, np.inf)
    norms[finite] = norm_rows(kind, data[finite])
    return norms


def _hermitian_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator norm of m - m* and the Hermitian part 0.5 (m + m*), per row of
    an (N, n, n) stack.

    Rows with m - m* = 0 skip the SVD. Their Hermitian part is rebuilt even
    then: the rebuild can flip the sign of a zero entry, and eigvalsh's last
    bits depend on those signs.
    """
    mh = m.conj().swapaxes(-1, -2)
    diff = m - mh
    asym = np.zeros(len(m))
    skewed = diff.any(axis=(1, 2))
    if skewed.any():
        asym[skewed] = np.linalg.svd(diff[skewed], compute_uv=False)[:, 0]
    return asym, 0.5 * (m + mh)


def positive_rows(
    kind: Kind, data: np.ndarray, tol: OrderTolerance | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The order cone over a stack: whether each row is finite and
    self-adjoint within eps with spectrum >= -eps, and each row's norm, from
    which the default eps is taken. A row of infinite norm would get an
    infinite default eps, so it is outside the cone."""
    norms = norm_rows(kind, data)
    eps = _resolve_eps(norms, tol)
    finite = np.isfinite(norms)
    if kind == "scalar":
        return (data >= -eps) & finite, norms
    if kind == "vector":
        return (np.min(data, axis=1) >= -eps) & finite, norms
    if not finite.all():
        # the SVD and eigvalsh need not converge on such a row
        ok = np.zeros(len(data), dtype=bool)
        ok[finite] = positive_rows(kind, data[finite], tol)[0]
        return ok, norms
    asym, hermitian_part = _hermitian_split(data)
    lowest = np.linalg.eigvalsh(hermitian_part)[:, 0]
    return (asym <= eps) & (lowest >= -eps), norms


def max_asymmetry(a: AlgebraElement) -> float:
    """Operator norm of a - a*; zero for real scalars and vectors."""
    if a.kind != "matrix":
        return 0.0
    return float(_hermitian_split(a.data[None])[0][0])


def is_self_adjoint(a: AlgebraElement, tol: OrderTolerance | None = None) -> bool:
    return max_asymmetry(a) <= _resolve_eps(norm(a), tol)


def spectrum(a: AlgebraElement, tol: OrderTolerance | None = None) -> np.ndarray:
    """Sorted real spectrum; matrices must be self-adjoint within tolerance."""
    if a.kind == "scalar":
        return np.asarray([float(a.data)])
    if a.kind == "vector":
        return np.sort(np.asarray(a.data, dtype=float))
    asym, hermitian_part = _hermitian_split(a.data[None])
    asym = float(asym[0])
    # eps >= 0, so an exactly Hermitian matrix needs no eps
    if asym > 0.0 and asym > _resolve_eps(norm(a), tol):
        raise NotSelfAdjointError(asym)
    return np.linalg.eigvalsh(hermitian_part[0])


def is_positive(a: AlgebraElement, tol: OrderTolerance | None = None) -> bool:
    """True iff a is self-adjoint within slack and its spectrum is >= -eps."""
    return bool(positive_rows(a.kind, a.data[None], tol)[0][0])


def leq(
    a: AlgebraElement, b: AlgebraElement, tol: OrderTolerance | None = None
) -> bool:
    """Order-cone comparison: a precedes b iff b - a is positive."""
    _check_compatible(a, b)
    return is_positive(sub(b, a), tol)


def norm(a: AlgebraElement) -> float:
    if a.kind == "scalar":
        return abs(float(a.data))
    if a.kind == "vector":
        # the ndarray method skips np.max's wrapper; max is exact, so the bits agree
        return float(np.abs(a.data).max())
    # Largest singular value: bit for bit what np.linalg.norm(a, 2) returns,
    # without its axis-normalising wrapper.
    return float(np.linalg.svd(a.data, compute_uv=False)[0])


def sqrt_positive(
    a: AlgebraElement, tol: OrderTolerance | None = None
) -> AlgebraElement:
    """Positive square root of a positivity-certified element."""
    if not is_positive(a, tol):
        raise NotPositiveError(float(spectrum(a, OrderTolerance(np.inf))[0]))
    if a.kind == "scalar":
        return scalar(np.sqrt(max(float(a.data), 0.0)))
    if a.kind == "vector":
        return vector(np.sqrt(np.clip(a.data, 0.0, None)))
    hermitian_part = 0.5 * (a.data + a.data.conj().T)
    evals, evecs = np.linalg.eigh(hermitian_part)
    root = np.sqrt(np.clip(evals, 0.0, None))
    return matrix((evecs * root) @ evecs.conj().T)


def abs_element(a: AlgebraElement) -> AlgebraElement:
    """|a| = (a* a)^(1/2)."""
    gram = mul(involution(a), a)
    # a*a is positive by construction; pass a generous slack for roundoff.
    return sqrt_positive(gram, OrderTolerance(1e-7 * max(1.0, norm(gram))))


def element_to_dict(a: AlgebraElement) -> dict:
    """Serial form fixed for CLI round-tripping."""
    if a.kind == "scalar":
        return {"kind": "scalar", "value": float(a.data)}
    if a.kind == "vector":
        return {"kind": "vector", "n": a.n, "values": [float(v) for v in a.data]}
    return {
        "kind": "matrix",
        "n": a.n,
        "re": a.data.real.tolist(),
        "im": a.data.imag.tolist(),
    }


def element_from_dict(d: dict) -> AlgebraElement:
    kind = d.get("kind")
    if kind == "scalar":
        return scalar(d["value"])
    if kind == "vector":
        return vector(d["values"])
    if kind == "matrix":
        re, im = (matrix(d[part]).data.real for part in ("re", "im"))  # checked numbers
        return matrix(re + 1j * im)
    raise AlgebraError(f"unknown serialized kind {kind!r}")
