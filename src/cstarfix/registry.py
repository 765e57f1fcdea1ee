"""Named built-in spaces, operators, penalty functions, and combiners.

The CLI resolves config names through these tables; library users can call
the factories directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .contractions import (
    FFunction,
    OperatorSpec,
    PhiFunction,
    square_first_combiner,
    sum_combiner,
)
from .spaces import Box, Domain, Interval, ValuedDistance, rowwise

__all__ = [
    "UnknownNameError",
    "NamedSpace",
    "SPACES",
    "OPERATORS",
    "PHIS",
    "COMBINERS",
    "get_space",
    "get_operator",
    "get_phi",
    "get_combiner",
]


class UnknownNameError(KeyError):
    """A name that no registry table (or the demo table) knows."""

    __str__ = Exception.__str__  # the message, not the repr KeyError gives it


@dataclass(frozen=True)
class NamedSpace:
    distance: ValuedDistance
    domain: Domain


# Every entry is written once over numpy arrays: given a point (a float, or
# an array for box points) it returns that point's value, and given the (N,)
# or (N, dim) array of a point stack, the (N, ...) stack of values. The
# helpers build one point's value as plain floats would, since the solver
# evaluates one point per iteration.


def _stacked(parts: tuple) -> bool:
    for p in parts:
        if isinstance(p, np.ndarray):
            return True
    return False


def _entries(*parts) -> np.ndarray:
    """parts as the entries of vector values, along the last axis."""
    if not _stacked(parts):
        return np.array(parts)
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _diagonal(*entries) -> np.ndarray:
    """Diagonal matrix values with these entries."""
    if not _stacked(entries):
        return np.diag(entries)
    rows = np.broadcast(*entries).shape
    out = np.zeros((*rows, len(entries), len(entries)), dtype=complex)
    for i, e in enumerate(entries):
        out[..., i, i] = e
    return out


def _larger(s, t):
    """max(s, t) entry by entry: t where t > s, else s."""
    if isinstance(s, float) and isinstance(t, float):
        return max(s, t)
    return np.where(t > s, t, s)


def _max_unit_interval() -> NamedSpace:
    fn = rowwise(lambda s, t: alg.values("scalar", _larger(s, t)))
    return NamedSpace(
        ValuedDistance("scalar", 1, fn, "partial", label="max_unit_interval"),
        Interval(0.0, 1.0),
    )


def _shifted_max_matrix() -> NamedSpace:
    eye = np.eye(2)

    def fn(s, t):
        return alg.values("matrix", np.asarray(_larger(1.0 + s, 1.0 + t))[..., None, None] * eye)

    return NamedSpace(
        ValuedDistance("matrix", 2, rowwise(fn), "partial", label="shifted_max_matrix"),
        Interval(0.0, 1.0),
    )


def _absdiff_pair() -> NamedSpace:
    fn = rowwise(lambda x, y: alg.values("vector", _entries(abs(x - y), abs(x - y))))
    return NamedSpace(
        ValuedDistance("vector", 2, fn, "partial", label="absdiff_pair"),
        Interval(0.0, 1.0),
    )


def _sum_premetric() -> NamedSpace:
    # fails the self-distance-zero metric axiom for x > 0; kept as a
    # premetric so the solver can still run on it
    fn = rowwise(lambda x, y: alg.values("vector", _entries(0.0, x + y)))
    return NamedSpace(
        ValuedDistance("vector", 2, fn, "premetric", label="sum_premetric"),
        Interval(0.0, 1.0),
    )


def _diag_absdiff_matrix() -> NamedSpace:
    def fn(a, b):
        return alg.values("matrix", _diagonal(abs(a[..., 0] - b[..., 0]), abs(a[..., 1] - b[..., 1])))

    return NamedSpace(
        ValuedDistance("matrix", 2, rowwise(fn), "metric", label="diag_absdiff_matrix"),
        Box([Interval(-1.0, 1.0), Interval(-1.0, 1.0)]),
    )


SPACES = {
    "max_unit_interval": _max_unit_interval,
    "shifted_max_matrix": _shifted_max_matrix,
    "absdiff_pair": _absdiff_pair,
    "sum_premetric": _sum_premetric,
    "diag_absdiff_matrix": _diag_absdiff_matrix,
}


def _scale_map(factor: float, label: str) -> OperatorSpec:
    return OperatorSpec(rowwise(lambda x: factor * x), label)


OPERATORS = {
    "halving": lambda: _scale_map(0.5, "halving"),
    "quartering": lambda: _scale_map(0.25, "quartering"),
    "identity": lambda: OperatorSpec(rowwise(lambda x: x), "identity"),
}


def _coordinate_pair_phi() -> PhiFunction:
    return PhiFunction(
        rowwise(lambda x: alg.values("vector", _entries(x, x))), "coordinate_pair"
    )


def _spread_matrix_phi() -> PhiFunction:
    def fn(x):
        s = 2.0 * abs(x[..., 0] - x[..., 1])
        return alg.values("matrix", _diagonal(s, s))

    return PhiFunction(rowwise(fn), "spread_matrix")


def _self_max_phi() -> PhiFunction:
    return PhiFunction(rowwise(lambda x: alg.values("scalar", x)), "self_max")


PHIS = {
    "coordinate_pair": _coordinate_pair_phi,
    "spread_matrix": _spread_matrix_phi,
    "self_max": _self_max_phi,
    "zero_scalar": lambda: PhiFunction(rowwise(lambda x: alg.scalar(0.0)), "zero"),
    "zero_pair": lambda: PhiFunction(rowwise(lambda x: alg.vector([0.0, 0.0])), "zero"),
}

COMBINERS = {
    "sum": sum_combiner,
    "square_first": square_first_combiner,
}


def _lookup(table: dict, name: str, what: str):
    """table's entry for name, or an UnknownNameError naming the known ones."""
    # a JSON list or object is unhashable: treat it as unknown, not as a TypeError
    if not isinstance(name, str) or name not in table:
        known = ", ".join(sorted(table))
        raise UnknownNameError(f"unknown {what} {name!r}; known: {known}")
    return table[name]


def get_space(name: str) -> NamedSpace:
    return _lookup(SPACES, name, "space")()


def get_operator(name: str) -> OperatorSpec:
    return _lookup(OPERATORS, name, "operator")()


def get_phi(name: str) -> PhiFunction:
    return _lookup(PHIS, name, "phi")()


def get_combiner(name: str) -> FFunction:
    return _lookup(COMBINERS, name, "combiner")()
