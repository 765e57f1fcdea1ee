"""Point domains, algebra-valued distances, and sampled axiom validation.

Axiom checks are falsification by seeded sampling: a "pass" verdict means
no counterexample was found among N deterministic samples, never a proof.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

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

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count points as one (count,) array, the stream of count sample calls."""
        return rng.uniform(self.lo, self.hi, size=count)

    def contains(self, x, slack: float = 1e-12) -> bool:
        return self.lo - slack <= float(x) <= self.hi + slack

    def contains_many(self, xs: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        """contains of each row of a point stack."""
        return (self.lo - slack <= xs) & (xs <= self.hi + slack)


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

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count points as one (count, dim) array, the stream of count sample calls."""
        lo, hi = zip(*((iv.lo, iv.hi) for iv in self.intervals))
        return rng.uniform(lo, hi, size=(count, self.dim))

    def contains(self, x, slack: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        return all(iv.contains(v, slack) for iv, v in zip(self.intervals, x))

    def contains_many(self, xs: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        """contains of each row of a point stack."""
        if xs.shape[1:] != (self.dim,):
            return np.zeros(len(xs), dtype=bool)
        inside = [iv.contains_many(xs[:, i], slack) for i, iv in enumerate(self.intervals)]
        return np.logical_and.reduce(inside)


Domain = Interval | Box


def sample_points(domain: Domain, count: int, seed: int) -> list:
    """Deterministic point sample from a 64-bit seed."""
    rng = np.random.default_rng(seed)
    return [domain.sample(rng) for _ in range(count)]


class Points:
    """N domain points as one (N,) or (N, dim) array: the points of a chunk
    of samples. Callables given Points evaluate every row (see rowwise)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, rows: slice) -> "Points":
        return Points(self.data[rows])

    def row(self, i: int):
        """Row i as a point: a float for interval points, an array for box points."""
        x = self.data[i]
        return float(x) if x.ndim == 0 else x

    def rows(self) -> list:
        return self.data.tolist() if self.data.ndim == 1 else list(self.data)


def rowwise(fn: Callable) -> Callable:
    """Mark fn as written over row stacks: where it takes a point or a value it
    also takes a stack of them and then returns the stack of its results, or
    one element if the result is the same in every row. The fn of a
    ValuedDistance, PhiFunction, OperatorSpec or FFunction gets a point stack as
    its (N,) or (N, dim) array; a scan's evaluate gets the Points themselves.
    Unmarked callables are evaluated row by row by each_row."""
    fn.rowwise = True
    return fn


def _stack_results(results: list):
    """One stack of per-row results: the stacked element of elements, a
    tuple of stacks of tuples, Points otherwise. A row whose kind or size
    differs from row 0's raises RowFailure at that row."""
    first = results[0]
    if isinstance(first, tuple):
        return tuple(_stack_results(list(column)) for column in zip(*results))
    if not isinstance(first, AlgebraElement):
        return Points(np.array(results))
    try:
        return alg.stack(results)
    except alg.DimensionMismatchError as exc:
        raise alg.RowFailure(exc.row, exc) from None


def each_row(fn: Callable, *args):
    """A per-point fn over stacked args, one row at a time: Points give their
    points, stacked elements their rows, anything else is the same in every
    row. The error of the first row that raises is raised as RowFailure at
    that row."""
    columns = [a.rows() if isinstance(a, Points)
               else [a.row(i) for i in range(len(a.data))]
               if isinstance(a, AlgebraElement) and a.stacked
               else itertools.repeat(a) for a in args]
    results, i = [], 0
    try:
        for i, row in enumerate(zip(*columns)):
            results.append(fn(*row))
    except Exception as exc:
        raise alg.RowFailure(i, exc) from None
    return _stack_results(results)


def over_rows(fn: Callable, *args):
    """fn over stacked args: in one call if fn is rowwise, else by each_row.
    A rowwise fn's value that is the same in every row stays one element."""
    if not getattr(fn, "rowwise", False):
        return each_row(fn, *args)
    out = fn(*[a.data if isinstance(a, Points) else a for a in args])
    return Points(out) if isinstance(out, np.ndarray) else out


def _as_rows(value: AlgebraElement, count: int) -> AlgebraElement:
    """value as a stack of count rows: an unstacked element stands for every row."""
    if value.stacked:
        return value
    return alg._raw(value.kind, np.broadcast_to(value.data, (count, *value.data.shape)))


@dataclass(frozen=True)
class ValuedDistance:
    """A distance function into the algebra, tagged with its intended axioms.
    Called with Points it returns the stack of the distances of their rows."""

    kind: alg.Kind
    n: int
    fn: Callable[[object, object], AlgebraElement]
    flavor: Flavor
    label: str = ""

    def __call__(self, x, y) -> AlgebraElement:
        if isinstance(x, Points):
            # a rowwise fn is checked once per stack, any other fn in every row
            fn = self.fn if getattr(self.fn, "rowwise", False) else self._point
            value = _as_rows(over_rows(fn, x, y), len(x.data))
        else:
            value = self.fn(x, y)
        if value.kind != self.kind or value.n != self.n:
            raise self._mismatch(value)
        return value

    def _point(self, x, y) -> AlgebraElement:
        value = self.fn(x, y)
        if value.kind != self.kind or value.n != self.n:
            raise self._mismatch(value)
        return value

    def _mismatch(self, value) -> alg.DimensionMismatchError:
        return alg.DimensionMismatchError(
            f"distance {self.label!r} returned {value.kind}(n={value.n}), "
            f"declared {self.kind}(n={self.n})"
        )


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


CHUNK_ROWS = 256  # scan chunks grow 1, 2, 4, ... rows up to this size


def stack_items(items) -> tuple:
    """The columns of a list of item tuples: Points, stacked elements, or None
    where an item has no such point."""
    return tuple(
        None if column[0] is None
        else alg.stack(column) if isinstance(column[0], AlgebraElement)
        else Points(np.array(column, dtype=float))
        for column in zip(*items)
    )


def _count(columns: tuple) -> int:
    return next((len(c.data) for c in columns if c is not None), 0)


def _slice(columns: tuple, start: int, stop: int) -> tuple:
    """Rows start to stop of each column."""
    return tuple(None if c is None else c[start:stop] for c in columns)


def _value_columns(values: tuple, count: int) -> tuple[alg.Kind, np.ndarray]:
    """Kind and (columns, count, ...) array of an item's values over count
    rows, which must agree in kind and size."""
    values = [_as_rows(v, count) for v in values]
    for v in values:
        alg._check_compatible(values[0], v)
    return values[0].kind, np.stack([v.data for v in values])


def head_evaluated(fn: Callable, columns: tuple):
    """(rows, value, error): fn(*columns) over the longest head of the rows
    that evaluates, and the error of the row after it, or None. When a row
    raises, the rows before it are evaluated again without it."""
    rows, error, head = _count(columns), None, columns
    while rows:
        try:
            return rows, fn(*head), error
        except alg.RowFailure as failure:
            # each retry drops at least one row
            rows, error = min(failure.row, rows - 1), failure.error
        except Exception as exc:
            rows, error = 0, exc
        head = _slice(columns, 0, rows)
    return 0, None, error


def first_failure(columns: tuple, evaluate: Callable, test: Callable):
    """(best, failure): the first item failing test, as (index, item, kind,
    offending row, the item's value rows), or None; best is the largest score
    before it. The items are the rows of columns (Points, stacked elements,
    or None where an item has no such point), scanned in chunks of 1, 2, 4,
    ... rows up to CHUNK_ROWS. evaluate(*item) gives an item's algebra values;
    it gets the chunk's columns in one call if it is rowwise, else each_row
    gives it one row at a time. test(points, kind, *values), values[j] the
    row stack of the j-th value, gives (ok, offending, score or None) per row.

    A failure at item i evaluates at most 2 i + 1 items. An error from
    evaluate is raised only if no earlier item of its chunk fails."""
    if not getattr(evaluate, "rowwise", False):
        evaluate = functools.partial(each_row, evaluate)
    count, start, size, best = _count(columns), 0, 1, 0.0
    while start < count:
        points = _slice(columns, start, min(start + size, count))
        rows, values, error = head_evaluated(evaluate, points)
        if rows:
            points = _slice(points, 0, rows)
            kind, stacks = _value_columns(values, rows)
            ok, offending, score = test(points, kind, *stacks)
            bad = np.flatnonzero(~ok)
            stop = int(bad[0]) if bad.size else rows
            if score is not None and stop:
                best = max(best, float(score[:stop].max()))
            if bad.size:
                item = tuple(None if c is None else c.row(stop) for c in points)
                return best, (start + stop, item, kind, offending[stop], stacks[:, stop])
        if error is not None:
            raise error
        start += size
        size = min(2 * size, CHUNK_ROWS)
    return best, None


def axiom_check(
    axiom: str, columns: tuple, evaluate: Callable, test: Callable, describe=_named_points,
) -> AxiomCheck:
    """Verdict of one sampled axiom over the items of columns, evaluate(*item)
    giving an item's algebra values and test as in first_failure. A fail
    names the first failing item, witnessed by describe(item) and its
    offending element; otherwise a pass over all items."""
    _, failure = first_failure(columns, evaluate, test)
    count = _count(columns)
    if failure is None:
        return AxiomCheck(axiom, "pass", count)
    _, item, kind, offending, _ = failure
    element = alg.element_to_dict(alg._raw(kind, offending))
    return AxiomCheck(axiom, "fail", count, {**describe(item), "offending": element})


def _check_axioms(
    d: ValuedDistance, axioms: tuple, domain: Domain, sample_count: int, seed: int
) -> list:
    """Each (name, arity, terms, test) in order, over cyclically consecutive
    sampled points, pairs or triples; terms are the (i, j) index pairs of the
    distances d(item[i], item[j]) that test is given."""
    pts = domain.sample_many(np.random.default_rng(seed), sample_count)
    checks = []
    for axiom, arity, terms, test in axioms:
        # the points followed by their first arity - 1 again, repeated as often as needed
        ext = np.resize(pts, (sample_count + arity - 1, *pts.shape[1:]))
        columns = tuple(Points(ext[j : j + sample_count]) for j in range(arity))

        @rowwise
        def evaluate(*item, terms=terms):
            return tuple(d(item[i], item[j]) for i, j in terms)

        checks.append(axiom_check(axiom, columns, evaluate, test))
    return checks


def below(points, kind, low, high):
    """low <= high in the order cone, scored by the norm of high - low."""
    diff = high - low
    ok, norms = alg.positive_rows(kind, diff)
    return ok, diff, norms


def _nonnegative(points, kind, dxy):
    return alg.positive_rows(kind, dxy)[0], dxy, None


def _symmetric(points, kind, dxy, dyx):
    diff = dxy - dyx
    return alg.norm_rows(kind, diff) <= alg._default_eps(alg.norm_rows(kind, dxy)), diff, None


def _triangle(points, kind, dxz, dzy, dxy):
    return below(points, kind, dxy, dxz + dzy)


def _partial_triangle(points, kind, dxz, dzy, dzz, dxy):
    # the partial triangle is corrected by the middle self-distance
    return below(points, kind, dxy, dxz + dzy - dzz)


def _indistinguishable(points, kind, pxx, pyy, pxy):
    # converse direction: p(x,x) = p(y,y) = p(x,y) forces x = y
    eps = alg._default_eps(alg.norm_rows(kind, pxy))
    coincide = (alg.norm_rows(kind, pxx - pxy) <= eps) & (alg.norm_rows(kind, pyy - pxy) <= eps)
    xs, ys = (p.data.reshape(len(p), -1) for p in points)
    same_point = np.max(np.abs(xs - ys), axis=1) <= 1e-9
    return ~coincide | same_point, pxy - pxx, None


def vanishes(points, kind, v):
    """v = 0: self-distance zero, and the combiner's zero preservation. A row
    of infinite norm would get an infinite default eps; it does not vanish."""
    norms = alg.norm_rows(kind, v)
    return (norms <= alg._default_eps(norms)) & np.isfinite(norms), v, None


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
    """The genuine metric 2 p(x,y) - p(x,x) - p(y,y) induced by a partial metric;
    rowwise when p's fn is."""
    if p.flavor != "partial":
        raise ValueError("induced metric requires a partial-metric flavor")

    def fn(x, y):
        # p's own check names p's label; the grouping 2 p(x,y) - (p(x,x) + p(y,y)) fixes the bits
        pxy, pxx, pyy = p._point(x, y), p._point(x, x), p._point(y, y)
        return alg._raw(p.kind, 2.0 * pxy.data - (pxx.data + pyy.data))

    if getattr(p.fn, "rowwise", False):
        fn = rowwise(fn)
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
