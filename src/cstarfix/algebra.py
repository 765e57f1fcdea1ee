"""Finite-dimensional representable C*-algebra elements.

Three carriers are supported: real scalars, real n-vectors under
componentwise multiplication and order, and complex n x n matrices under
the Loewner order. All operations are pure; elements are immutable.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A member of the algebra: the carrier of all metric values."""

    kind: Kind
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if self.kind == "scalar":
            arr = np.asarray(float(arr), dtype=float)
        elif self.kind == "vector":
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise AlgebraError("vector data must be a nonempty 1-d real array")
        elif self.kind == "matrix":
            arr = np.asarray(arr, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
                raise AlgebraError("matrix data must be square and nonempty")
        else:
            raise AlgebraError(f"unknown kind {self.kind!r}")
        if not np.all(np.isfinite(arr)):
            raise AlgebraError("element data must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        if self.kind == "scalar":
            return 1
        return self.data.shape[0]

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
    object.__setattr__(obj, "kind", kind)
    object.__setattr__(obj, "data", data)
    return obj


def scalar(value: float) -> AlgebraElement:
    return AlgebraElement("scalar", np.asarray(value, dtype=float))


def vector(values) -> AlgebraElement:
    return AlgebraElement("vector", np.asarray(values, dtype=float))


def matrix(values) -> AlgebraElement:
    return AlgebraElement("matrix", np.asarray(values, dtype=complex))


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


def _default_eps(a: AlgebraElement) -> float:
    # Relative slack keeps the positivity predicate scale-stable.
    return 1e-9 * max(1.0, norm(a))


def _resolve_eps(a: AlgebraElement, tol: OrderTolerance | None) -> float:
    return _default_eps(a) if tol is None else tol.eps


def _svd_norm(m: np.ndarray) -> float:
    # Largest singular value: bit for bit what np.linalg.norm(m, 2) returns,
    # without its axis-normalising wrapper.
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _hermitian_split(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Operator norm of m - m* and the Hermitian part 0.5 (m + m*).

    An exactly Hermitian m has m - m* = 0, so its SVD is skipped. The
    Hermitian part is rebuilt even then: the rebuild can flip the sign of a
    zero entry, and eigvalsh's last bits depend on those signs.
    """
    mh = m.conj().T
    diff = m - mh
    asym = _svd_norm(diff) if np.count_nonzero(diff) else 0.0
    return asym, 0.5 * (m + mh)


def max_asymmetry(a: AlgebraElement) -> float:
    """Operator norm of a - a*; zero for real scalars and vectors."""
    if a.kind != "matrix":
        return 0.0
    return _hermitian_split(a.data)[0]


def is_self_adjoint(a: AlgebraElement, tol: OrderTolerance | None = None) -> bool:
    return max_asymmetry(a) <= _resolve_eps(a, tol)


def spectrum(a: AlgebraElement, tol: OrderTolerance | None = None) -> np.ndarray:
    """Sorted real spectrum; matrices must be self-adjoint within tolerance."""
    if a.kind == "scalar":
        return np.asarray([float(a.data)])
    if a.kind == "vector":
        return np.sort(np.asarray(a.data, dtype=float))
    asym, hermitian_part = _hermitian_split(a.data)
    # eps >= 0, so an exactly Hermitian matrix needs no eps
    if asym > 0.0 and asym > _resolve_eps(a, tol):
        raise NotSelfAdjointError(asym)
    return np.linalg.eigvalsh(hermitian_part)


def is_positive(a: AlgebraElement, tol: OrderTolerance | None = None) -> bool:
    """True iff a is self-adjoint within slack and its spectrum is >= -eps."""
    eps = _resolve_eps(a, tol)
    if a.kind == "scalar":
        return float(a.data) >= -eps
    if a.kind == "vector":
        return float(np.min(a.data)) >= -eps
    asym, hermitian_part = _hermitian_split(a.data)
    if asym > eps:
        return False
    return float(np.linalg.eigvalsh(hermitian_part)[0]) >= -eps


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
        return float(np.max(np.abs(a.data)))
    return _svd_norm(a.data)


def sqrt_positive(
    a: AlgebraElement, tol: OrderTolerance | None = None
) -> AlgebraElement:
    """Positive square root of a positivity-certified element."""
    eps = _resolve_eps(a, tol)
    if not is_positive(a, OrderTolerance(eps)):
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
        return matrix(np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float))
    raise AlgebraError(f"unknown serialized kind {kind!r}")
