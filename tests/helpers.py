"""Sample builders that only the tests use: point lists drawn one at a time,
and the columns of hand-built item lists for spaces.first_failure."""

import numpy as np

from cstarfix import algebra as alg
from cstarfix.spaces import Domain, Points


def sample_points(domain: Domain, count: int, seed: int) -> list:
    """Deterministic point sample from a 64-bit seed."""
    rng = np.random.default_rng(seed)
    return [domain.sample(rng) for _ in range(count)]


def stack_items(items) -> tuple:
    """The columns of a list of item tuples: Points or stacked elements."""
    return tuple(
        alg.stack(column) if isinstance(column[0], alg.AlgebraElement)
        else Points(np.array(column, dtype=float))
        for column in zip(*items)
    )
