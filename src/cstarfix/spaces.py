"""Point domains, algebra-valued distances, and sampled axiom validation.

Axiom checks are falsification by seeded sampling: a "pass" verdict means
no counterexample was found among N deterministic samples, never a proof.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement, OrderTolerance

Flavor = Literal["metric", "partial", "premetric"]
Verdict = Literal["pass", "fail", "inconclusive"]

__all__ = [
    "Interval",
    "Box",
    "Domain",
    "ValuedDistance",
    "SequenceProbe",
    "AxiomCheck",
    "AxiomReport",
    "sample_points",
    "check_partial_axioms",
    "check_metric_axioms",
    "induced_metric",
    "partial_cauchy_residual",
    "converges_to",
    "cauchy_equivalence_probe",
]


@dataclass(frozen=True)
class Interval:
    """Closed real interval; points are floats."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def contains(self, x, slack: float = 1e-12) -> bool:
        return self.lo - slack <= float(x) <= self.hi + slack


@dataclass(frozen=True)
class Box:
    """Product of intervals; points are 1-d numpy arrays."""

    intervals: tuple

    def __init__(self, intervals: Sequence[Interval]):
        object.__setattr__(self, "intervals", tuple(intervals))
        if not self.intervals:
            raise ValueError("box needs at least one interval")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([iv.sample(rng) for iv in self.intervals])

    def contains(self, x, slack: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        return all(iv.contains(v, slack) for iv, v in zip(self.intervals, x))


Domain = Interval | Box


def sample_points(domain: Domain, count: int, seed: int) -> list:
    """Deterministic point sample from a 64-bit seed."""
    rng = np.random.default_rng(seed)
    return [domain.sample(rng) for _ in range(count)]


@dataclass(frozen=True)
class ValuedDistance:
    """A distance function into the algebra, tagged with its intended axioms."""

    kind: alg.Kind
    n: int
    fn: Callable[[object, object], AlgebraElement]
    flavor: Flavor
    label: str = ""

    def __call__(self, x, y) -> AlgebraElement:
        value = self.fn(x, y)
        if value.kind != self.kind or value.n != self.n:
            raise alg.DimensionMismatchError(
                f"distance {self.label!r} returned {value.kind}(n={value.n}), "
                f"declared {self.kind}(n={self.n})"
            )
        return value


@dataclass(frozen=True)
class SequenceProbe:
    """A candidate sequence, optionally with a claimed limit point."""

    generator: Callable[[int], object]
    limit: Optional[object] = None


def point_repr(x):
    """A point as JSON-ready floats: a list for box points, a float otherwise."""
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    return float(x)


@dataclass
class AxiomCheck:
    axiom: str
    verdict: Verdict
    samples: int
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {"axiom": self.axiom, "verdict": self.verdict, "samples": self.samples}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class AxiomReport:
    label: str
    seed: int
    checks: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c.verdict == "fail"]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "checks": [c.to_dict() for c in self.checks],
        }


def _named_points(item: tuple) -> dict:
    return {"points": {k: point_repr(v) for k, v in zip("xyz", item)}}


def first_failure(
    axiom: str, items: Sequence[tuple], predicate: Callable, describe=_named_points
) -> AxiomCheck:
    """Verdict of one sampled axiom: a fail at the first item for which
    predicate(*item) returns (False, offending), witnessed by describe(item)
    and the offending element, or a pass over all items."""
    for item in items:
        ok, offending = predicate(*item)
        if not ok:
            witness = {**describe(item), "offending": alg.element_to_dict(offending)}
            return AxiomCheck(axiom, "fail", len(items), witness)
    return AxiomCheck(axiom, "pass", len(items))


def _check_axioms(
    d: ValuedDistance, axioms: tuple, domain: Domain, sample_count: int, seed: int, tol
) -> list:
    """Each (name, arity, predicate) in order, over cyclically consecutive
    sampled points, pairs or triples."""
    pts = sample_points(domain, sample_count, seed)
    n = len(pts)
    checks = []
    for axiom, arity, predicate in axioms:
        items = [tuple(pts[(i + j) % n] for j in range(arity)) for i in range(n)]
        checks.append(first_failure(axiom, items, functools.partial(predicate, d, tol)))
    return checks


def _nonnegative(d, tol, x, y):
    v = d(x, y)
    return alg.is_positive(v, tol), v


def _symmetric(d, tol, x, y):
    dxy = d(x, y)
    diff = alg.sub(dxy, d(y, x))
    return alg.norm(diff) <= alg._resolve_eps(dxy, tol), diff


def _triangle(d, tol, x, y, z, self_term: bool = False):
    rhs = alg.add(d(x, z), d(z, y))
    if self_term:  # the partial triangle is corrected by the middle self-distance
        rhs = alg.sub(rhs, d(z, z))
    dxy = d(x, y)
    return alg.leq(dxy, rhs, tol), alg.sub(rhs, dxy)


def _indistinguishable(p, tol, x, y):
    # converse direction: p(x,x) = p(y,y) = p(x,y) forces x = y
    pxx, pyy, pxy = p(x, x), p(y, y), p(x, y)
    eps = alg._resolve_eps(pxy, tol)
    coincide = (
        alg.norm(alg.sub(pxx, pxy)) <= eps and alg.norm(alg.sub(pyy, pxy)) <= eps
    )
    same_point = float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) <= 1e-9
    return (not coincide) or same_point, alg.sub(pxy, pxx)


def _small_self(p, tol, x, y):
    pxx, pxy = p(x, x), p(x, y)
    return alg.leq(pxx, pxy, tol), alg.sub(pxy, pxx)


def _self_zero(d, tol, x):
    v = d(x, x)
    return alg.norm(v) <= alg._resolve_eps(v, tol), v


_PARTIAL_AXIOMS = (
    ("nonnegativity", 2, _nonnegative),
    ("indistinguishability", 2, _indistinguishable),
    ("symmetry", 2, _symmetric),
    ("self-distance", 2, _small_self),
    ("triangle", 3, functools.partial(_triangle, self_term=True)),
)

_METRIC_AXIOMS = (
    ("nonnegativity", 2, _nonnegative),
    ("self-distance-zero", 1, _self_zero),
    ("symmetry", 2, _symmetric),
    ("triangle", 3, _triangle),
)


def check_partial_axioms(
    p: ValuedDistance,
    domain: Domain,
    sample_count: int = 500,
    seed: int = 0,
    tol: OrderTolerance | None = None,
) -> AxiomReport:
    """Sampled validation of the four partial-metric axioms.

    Checks, per sampled pair/triple: nonnegativity plus the x = y direction
    of indistinguishability, symmetry, self-distance below cross-distance,
    and the triangle inequality corrected by the middle self-distance.
    """
    if p.flavor not in ("partial", "premetric"):
        raise ValueError("partial axiom check needs a partial or premetric flavor")
    checks = _check_axioms(p, _PARTIAL_AXIOMS, domain, sample_count, seed, tol)
    return AxiomReport(label=p.label or "partial-metric", seed=seed, checks=checks)


def check_metric_axioms(
    d: ValuedDistance,
    domain: Domain,
    sample_count: int = 500,
    seed: int = 0,
    tol: OrderTolerance | None = None,
) -> AxiomReport:
    """Sampled validation of the plain metric axioms (self-distance zero)."""
    if d.flavor not in ("metric", "premetric"):
        raise ValueError("metric axiom check needs a metric or premetric flavor")
    checks = _check_axioms(d, _METRIC_AXIOMS, domain, sample_count, seed, tol)
    return AxiomReport(label=d.label or "metric", seed=seed, checks=checks)


def induced_metric(p: ValuedDistance) -> ValuedDistance:
    """The genuine metric 2 p(x,y) - p(x,x) - p(y,y) induced by a partial metric."""
    if p.flavor != "partial":
        raise ValueError("induced metric requires a partial-metric flavor")

    def fn(x, y):
        return alg.sub(alg.scale(2.0, p(x, y)), alg.add(p(x, x), p(y, y)))

    return ValuedDistance(p.kind, p.n, fn, "metric", label=f"induced({p.label})")


def partial_cauchy_residual(
    probe: SequenceProbe, p: ValuedDistance, n: int, m: int
) -> AlgebraElement:
    """r r* where r = p(x_n,x_m) - (p(x_n,x_n) + p(x_m,x_m)) / 2."""
    xn, xm = probe.generator(n), probe.generator(m)
    r = alg.sub(p(xn, xm), alg.scale(0.5, alg.add(p(xn, xn), p(xm, xm))))
    return alg.mul(r, alg.involution(r))


def _stabilization_index(values: list, tol: float, run_length: int = 10) -> Optional[int]:
    """First index from which run_length consecutive values stay below tol."""
    streak = 0
    for i, v in enumerate(values):
        streak = streak + 1 if v <= tol else 0
        if streak >= run_length:
            return i - run_length + 1
    return None


def converges_to(
    probe: SequenceProbe,
    p: ValuedDistance,
    tol: float = 1e-8,
    horizon: int = 200,
) -> Literal["yes", "no", "inconclusive"]:
    """Does p(x_n, x) - p(x,x) vanish along the probe?

    Tri-state by design: "inconclusive" when the horizon is exhausted before
    the residual stabilizes, rather than a false negative.
    """
    if probe.limit is None:
        raise ValueError("probe has no limit point to converge to")
    x = probe.limit
    residuals = [
        alg.norm(alg.sub(p(probe.generator(n), x), p(x, x))) for n in range(horizon)
    ]
    n0 = _stabilization_index(residuals, tol)
    if n0 is not None:
        return "yes" if all(v <= tol for v in residuals[n0:]) else "no"
    # residual settled at a positive level: definitely not converging
    tail = residuals[-10:]
    if max(tail) - min(tail) <= tol and min(tail) > tol:
        return "no"
    return "inconclusive"


def cauchy_equivalence_probe(
    probe: SequenceProbe,
    p: ValuedDistance,
    tol: float = 1e-8,
    horizon: int = 60,
) -> dict:
    """Compare the partial-Cauchy residual criterion with plain Cauchy under
    the induced metric along the same probe; report whether they agree."""
    if p.flavor != "partial":
        raise ValueError("probe requires a partial-metric flavor")
    ps = induced_metric(p)
    window = 10

    def tail_verdict(crit) -> Literal["yes", "no"]:
        # Cauchy detected iff every pair in the tail window meets the criterion.
        tail = range(max(0, horizon - window), horizon)
        ok = all(crit(n, m) <= tol for n in tail for m in tail if n < m)
        return "yes" if ok else "no"

    partial_verdict = tail_verdict(
        lambda n, m: alg.norm(partial_cauchy_residual(probe, p, n, m))
    )
    # residual criterion compares r r* against eps^2, so square the threshold
    metric_verdict = tail_verdict(
        lambda n, m: alg.norm(ps(probe.generator(n), probe.generator(m))) ** 2
    )
    return {
        "partial_cauchy": partial_verdict,
        "induced_metric_cauchy": metric_verdict,
        "agree": partial_verdict == metric_verdict,
        "horizon": horizon,
        "tol": tol,
    }
