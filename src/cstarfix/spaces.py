"""Point domains, algebra-valued distances, and sampled axiom validation.

Axiom checks are falsification by seeded sampling: a "pass" verdict means
no counterexample was found among N deterministic samples, never a proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal, Optional, Sequence

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement

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


def first_failure(items: Iterable, evaluate: Callable, test: Callable):
    """(best, failure): the first item failing test, as (index, item, kind,
    offending row, the item's value rows), or None; best is the largest score
    before it. Items are pulled lazily in chunks of 1, 2, 4, ...: evaluate(item)
    gives an item's algebra values, and test(chunk, kind, *columns), columns[j]
    the row stack of the j-th value, gives (ok, offending, score or None) per row.

    A failure at item i evaluates at most 2 i + 1 items. An error from evaluate
    is raised only if no earlier item of its chunk fails."""
    it = iter(items)
    start, size, best = 0, 1, 0.0
    while True:
        chunk, values, error = [], [], None
        try:
            for item in itertools.islice(it, size):
                values.extend(evaluate(item))
                chunk.append(item)
        except Exception as exc:
            error = exc
        if chunk:
            kind, data = alg.stack(values)
            columns = data.reshape(len(chunk), -1, *data.shape[1:]).swapaxes(0, 1)
            ok, offending, score = test(chunk, kind, *columns)
            bad = np.flatnonzero(~ok)
            stop = int(bad[0]) if bad.size else len(chunk)
            if score is not None and stop:
                best = max(best, float(score[:stop].max()))
            if bad.size:
                return best, (start + stop, chunk[stop], kind, offending[stop], columns[:, stop])
        if error is not None:
            raise error
        if len(chunk) < size:
            return best, None
        start += size
        size *= 2


def axiom_check(
    axiom: str, items: Sequence[tuple], evaluate: Callable, test: Callable,
    describe=_named_points,
) -> AxiomCheck:
    """Verdict of one sampled axiom over items, evaluate(*item) giving an
    item's algebra values and test as in first_failure. A fail names the
    first failing item, witnessed by describe(item) and its offending
    element; otherwise a pass over all items."""
    _, failure = first_failure(items, lambda item: evaluate(*item), test)
    if failure is None:
        return AxiomCheck(axiom, "pass", len(items))
    _, item, kind, offending, _ = failure
    element = alg.element_to_dict(alg._raw(kind, offending))
    return AxiomCheck(axiom, "fail", len(items), {**describe(item), "offending": element})


def _check_axioms(
    d: ValuedDistance, axioms: tuple, domain: Domain, sample_count: int, seed: int
) -> list:
    """Each (name, arity, terms, test) in order, over cyclically consecutive
    sampled points, pairs or triples; terms are the (i, j) index pairs of the
    distances d(item[i], item[j]) that test is given."""
    pts = sample_points(domain, sample_count, seed)
    n = len(pts)
    checks = []
    for axiom, arity, terms, test in axioms:
        items = [tuple(pts[(i + j) % n] for j in range(arity)) for i in range(n)]

        def evaluate(*item, terms=terms):
            return tuple(d(item[i], item[j]) for i, j in terms)

        checks.append(axiom_check(axiom, items, evaluate, test))
    return checks


def below(items, kind, low, high):
    """low <= high in the order cone, scored by the norm of high - low."""
    diff = high - low
    ok, norms = alg.positive_rows(kind, diff)
    return ok, diff, norms


def _nonnegative(items, kind, dxy):
    return alg.positive_rows(kind, dxy)[0], dxy, None


def _symmetric(items, kind, dxy, dyx):
    diff = dxy - dyx
    return alg.norm_rows(kind, diff) <= alg._default_eps(alg.norm_rows(kind, dxy)), diff, None


def _triangle(items, kind, dxz, dzy, dxy):
    return below(items, kind, dxy, dxz + dzy)


def _partial_triangle(items, kind, dxz, dzy, dzz, dxy):
    # the partial triangle is corrected by the middle self-distance
    return below(items, kind, dxy, dxz + dzy - dzz)


def _indistinguishable(items, kind, pxx, pyy, pxy):
    # converse direction: p(x,x) = p(y,y) = p(x,y) forces x = y
    eps = alg._default_eps(alg.norm_rows(kind, pxy))
    coincide = (alg.norm_rows(kind, pxx - pxy) <= eps) & (alg.norm_rows(kind, pyy - pxy) <= eps)
    xs, ys = (np.array(pts, dtype=float).reshape(len(items), -1) for pts in zip(*items))
    same_point = np.max(np.abs(xs - ys), axis=1) <= 1e-9
    return ~coincide | same_point, pxy - pxx, None


def vanishes(items, kind, v):
    """v = 0: self-distance zero, and the combiner's zero preservation."""
    norms = alg.norm_rows(kind, v)
    return norms <= alg._default_eps(norms), v, None


_PARTIAL_AXIOMS = (
    ("nonnegativity", 2, ((0, 1),), _nonnegative),
    ("indistinguishability", 2, ((0, 0), (1, 1), (0, 1)), _indistinguishable),
    ("symmetry", 2, ((0, 1), (1, 0)), _symmetric),
    ("self-distance", 2, ((0, 0), (0, 1)), below),
    ("triangle", 3, ((0, 2), (2, 1), (2, 2), (0, 1)), _partial_triangle),
)

_METRIC_AXIOMS = (
    ("nonnegativity", 2, ((0, 1),), _nonnegative),
    ("self-distance-zero", 1, ((0, 0),), vanishes),
    ("symmetry", 2, ((0, 1), (1, 0)), _symmetric),
    ("triangle", 3, ((0, 2), (2, 1), (0, 1)), _triangle),
)


def check_partial_axioms(
    p: ValuedDistance,
    domain: Domain,
    sample_count: int = 500,
    seed: int = 0,
) -> AxiomReport:
    """Sampled validation of the four partial-metric axioms.

    Checks, per sampled pair/triple: nonnegativity plus the x = y direction
    of indistinguishability, symmetry, self-distance below cross-distance,
    and the triangle inequality corrected by the middle self-distance.
    """
    if p.flavor not in ("partial", "premetric"):
        raise ValueError("partial axiom check needs a partial or premetric flavor")
    checks = _check_axioms(p, _PARTIAL_AXIOMS, domain, sample_count, seed)
    return AxiomReport(label=p.label or "partial-metric", seed=seed, checks=checks)


def check_metric_axioms(
    d: ValuedDistance,
    domain: Domain,
    sample_count: int = 500,
    seed: int = 0,
) -> AxiomReport:
    """Sampled validation of the plain metric axioms (self-distance zero)."""
    if d.flavor not in ("metric", "premetric"):
        raise ValueError("metric axiom check needs a metric or premetric flavor")
    checks = _check_axioms(d, _METRIC_AXIOMS, domain, sample_count, seed)
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
