"""Point domains, algebra-valued distances, and sampled axiom validation.

Axiom checks are falsification by seeded sampling: a "pass" verdict means
no counterexample was found among N deterministic samples, never a proof.
"""

from __future__ import annotations

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
    "AxiomCheck",
    "AxiomReport",
    "check_partial_axioms",
    "check_metric_axioms",
    "induced_metric",
]


CONTAINS_SLACK = 1e-12  # a point this far outside a domain's bounds still counts as inside


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

    @property
    def bounds(self) -> tuple[float, float]:
        """(lo, hi) widened by CONTAINS_SLACK: x is contained iff lo <= x <= hi."""
        return self.lo - CONTAINS_SLACK, self.hi + CONTAINS_SLACK

    def contains(self, x) -> bool:
        lo, hi = self.bounds
        return lo <= float(x) <= hi

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """contains of each row of a point stack."""
        lo, hi = self.bounds
        return (lo <= xs) & (xs <= hi)


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

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        # one tolist() reads the same floats that iterating the array would
        return all(iv.contains(v) for iv, v in zip(self.intervals, x.tolist()))

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """contains of each row of a point stack."""
        if xs.shape[1:] != (self.dim,):
            return np.zeros(len(xs), dtype=bool)
        inside = [iv.contains_many(xs[:, i]) for i, iv in enumerate(self.intervals)]
        return np.logical_and.reduce(inside)


Domain = Interval | Box


class Points:
    """N domain points as one (N,) or (N, dim) array: the points of a chunk
    of samples. Callables given Points evaluate every row (see over_rows)."""

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
    """Mark fn, a user function of a distance, PhiFunction, OperatorSpec or
    FFunction, as written over arrays: where it takes a point or a value it
    also takes a stack of them (points as their (N,) or (N, dim) array, values
    as stacked elements) and returns the stack of its results, or a result
    with fewer axes, the same in every row. over_rows runs it once per stack;
    unmarked fns run row by row through each_row."""
    fn.rowwise = True
    return fn


def _stack_results(results: list):
    """One stack of per-row results: the stacked element of elements, a
    tuple of stacks of tuples, Points otherwise. A row whose kind or size
    differs from row 0's raises DimensionMismatchError."""
    first = results[0]
    if isinstance(first, tuple):
        return tuple(_stack_results(list(column)) for column in zip(*results))
    if not isinstance(first, AlgebraElement):
        return Points(np.array(results))
    return alg.stack(results)


def each_row(fn: Callable, *args):
    """A per-point fn over stacked args, one row at a time: Points give their
    points, stacked elements their rows, anything else is the same in every
    row. The first row that raises ends the call with its error; the scan
    finds that row (see head_evaluated)."""
    columns = [a.rows() if isinstance(a, Points)
               else [a.row(i) for i in range(len(a.data))]
               if isinstance(a, AlgebraElement) and a.stacked
               else itertools.repeat(a) for a in args]
    return _stack_results([fn(*row) for row in zip(*columns)])


def over_rows(fn: Callable, *args):
    """fn over stacked args, one result row per input row: Points for points,
    a stacked element for values. The args are Points, stacked elements, or
    anything else, which is the same in every row. A rowwise fn gets them in
    one call, Points as their arrays; a result with fewer axes than the first
    stack, such as one point or unstacked element, is repeated in every row.
    Any other fn is run row by row by each_row."""
    if not getattr(fn, "rowwise", False):
        return each_row(fn, *args)
    out = fn(*[a.data if isinstance(a, Points) else a for a in args])
    if isinstance(out, AlgebraElement) and out.stacked:
        return out
    first = next(a.data for a in args
                 if isinstance(a, Points) or isinstance(a, AlgebraElement) and a.stacked)
    if isinstance(out, AlgebraElement):
        return alg._raw(out.kind, np.broadcast_to(out.data, (len(first), *out.data.shape)))
    out = np.asarray(out)
    return Points(out if out.ndim >= first.ndim else np.broadcast_to(out, (len(first), *out.shape)))


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
        if not isinstance(x, Points):
            return self._point(x, y)
        # a rowwise fn is checked once per stack, any other fn in every row
        fn = self.fn if getattr(self.fn, "rowwise", False) else self._point
        value = over_rows(fn, x, y)
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


def _count(columns: tuple) -> int:
    return len(columns[0].data)


def _slice(columns: tuple, start: int, stop: int) -> tuple:
    """Rows start to stop of each column."""
    return tuple(c[start:stop] for c in columns)


def over_pairs(fn: Callable, columns, pairs: list):
    """fn(columns[i], columns[j]) of each (i, j) in pairs, in turn, in one call."""
    return fn(Points(np.concatenate([columns[i] for i, _ in pairs])),
              Points(np.concatenate([columns[j] for _, j in pairs])))


def split_rows(data: np.ndarray, keys: list, rows: int) -> dict:
    """{key: its rows of data}, which holds rows rows per key in turn."""
    return dict(zip(keys, data.reshape(len(keys), rows, *data.shape[1:])))


def _value_columns(values: tuple) -> tuple:
    """The kind, then the data arrays, of an item's value stacks, which must
    agree in kind and size."""
    for v in values[1:]:
        alg._check_compatible(values[0], v)
    return (values[0].kind, *[v.data for v in values])


def head_evaluated(fn: Callable, columns: tuple):
    """(rows, value, error): fn(*columns) over the longest head of the rows
    that evaluates, and the error of the head one row longer, or None; the
    columns hold at least one row. fn runs once on all the rows; only if
    that raises, with an error of any type, are heads of them bisected,
    about log2 of the row count more calls."""
    good, value, bad = 0, None, _count(columns)
    try:
        return bad, fn(*columns), None
    except Exception as exc:
        error = exc
    # the head of good rows evaluates to value, the head of bad rows raises error
    while bad - good > 1:
        middle = (good + bad) // 2
        try:
            good, value = middle, fn(*_slice(columns, 0, middle))
        except Exception as exc:
            bad, error = middle, exc
    return good, value, error


def first_failure(columns: tuple, evaluate: Callable, test: Callable):
    """first_failures of the one test, evaluate(*columns) giving its values."""
    return first_failures(columns, lambda live, *c: (evaluate(*c),), [(len(columns), test)])[0]


def first_failures(columns: tuple, evaluate: Callable, tests: list) -> list:
    """Per (arity, test), (best, failure): the test's first failing item, as
    (index, item, kind, offending row, the item's value rows), or None, and
    the largest score before it. Its items are the rows of the first arity
    columns (Points or stacked elements of one length), scanned in chunks of
    1, 2, 4, ... rows up to CHUNK_ROWS: a failure at item i evaluates at most
    2 i + 1 items. evaluate(live, *columns) gives the value stacks of the
    tests still scanning, live their indices; each test, an order_test of
    (points, kind, *values), gives (ok, offending, score or None) per row. If
    evaluate raises, head_evaluated finds each live test's first raising
    item; the error, of any type, ends the tests after it and is raised if
    its test fails no earlier and no earlier test raises."""
    count, start, size, error = _count(columns), 0, 1, None
    best, found, live = [0.0] * len(tests), [None] * len(tests), list(range(len(tests)))
    while start < count and live:
        chunk = _slice(columns, start, min(start + size, count))
        try:  # one evaluation for all live tests
            heads = [(chunk, values, None) for values in evaluate(live, *chunk)]
        except Exception:
            heads = [(_slice(chunk, 0, rows), values, raised) for rows, values, raised in
                     (head_evaluated(lambda *c, a=a: evaluate([a], *c)[0], chunk) for a in live)]
        calls = [(tests[a][1], (points[: tests[a][0]], *_value_columns(values)))
                 for a, (points, values, _) in zip(live, heads) if values is not None]
        settled, still = iter(zip(calls, _settle(calls))), []
        for a, (_, values, raised) in zip(live, heads):
            if values is not None:
                (_, (points, kind, *stacks)), (ok, offending, score) = next(settled)
                stop = int(ok.argmin())  # the first failing row, if a row fails
                stop = len(ok) if ok[stop] else stop
                if score is not None and stop:
                    best[a] = max(best[a], float(score[:stop].max()))
                if stop < len(ok):
                    found[a] = (start + stop, tuple(c.row(stop) for c in points), kind,
                                offending[stop], [v[stop] for v in stacks])
                    continue
            if raised is not None:
                error = raised
                break
            still.append(a)
        live, start, size = still, start + size, min(2 * size, CHUNK_ROWS)
    if error is not None:
        raise error
    return list(zip(best, found))


def order_test(steps: Callable) -> Callable:
    """A scan test whose order work _settle batches: steps(points, kind,
    *values) gives (cone, norms, verdict), cone a stack whose rows must be
    positive or None, norms the stacks whose row norms the test reads, and
    verdict(positive_rows of cone, norm_rows of norms) its (ok, offending, score)."""

    def test(*args):
        return _settle([(test, args)])[0]

    test.steps = steps
    return test


def _settle(calls: list) -> list:
    """The result of each order test's (test, (points, kind, *values)), all
    of one kind: one positive_rows call tests their cones and one norm_rows
    call norms every stack they read."""
    asks = [test.steps(*args) for test, args in calls]
    cones = [cone for cone, _, _ in asks if cone is not None]
    norms = [a for _, stacks, _ in asks for a in stacks]
    if cones:
        ok, cone_norms = alg.positive_rows(calls[0][1][1], _joined(cones))
        held = zip(_split(ok, cones), _split(cone_norms, cones))
    if norms:
        normed = iter(_split(alg.norm_rows(calls[0][1][1], _joined(norms)), norms))
    return [verdict(cone if cone is None else next(held), stacks and [next(normed) for _ in stacks])
            for cone, stacks, verdict in asks]


def _joined(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _split(rows: np.ndarray, arrays: list) -> list:
    """rows, one per row of arrays in turn, split by array."""
    if len(arrays) == 1:
        return [rows]
    ends = itertools.accumulate(len(a) for a in arrays)
    return [rows[end - len(a) : end] for a, end in zip(arrays, ends)]


def axiom_check(
    axiom: str, columns: tuple, evaluate: Callable, test: Callable, describe=_named_points,
) -> AxiomCheck:
    """Verdict of one sampled axiom over the items of columns (see first_failure)."""
    return _verdict(axiom, _count(columns), first_failure(columns, evaluate, test)[1], describe)


def _verdict(axiom: str, count: int, failure, describe=_named_points) -> AxiomCheck:
    """A pass over count items, or a fail witnessed by describe(item) and its offending row."""
    if failure is None:
        return AxiomCheck(axiom, "pass", count)
    _, item, kind, offending, _ = failure
    element = alg.element_to_dict(alg._raw(kind, offending))
    return AxiomCheck(axiom, "fail", count, {**describe(item), "offending": element})


def _check_axioms(
    d: ValuedDistance, axioms: tuple, domain: Domain, sample_count: int, seed: int
) -> list:
    """Each (name, arity, terms, test) in one scan over cyclically consecutive
    sampled points, pairs or triples, test given d(item[i], item[j]) of each
    (i, j) in terms; a chunk calls d once, on the distinct pairs still read."""
    pts = domain.sample_many(np.random.default_rng(seed), sample_count)
    # the points followed by their first two again, repeated as often as needed
    ext = np.resize(pts, (sample_count + 2, *pts.shape[1:]))
    columns = tuple(Points(ext[j : j + sample_count]) for j in range(3))

    def evaluate(live, *item):
        pairs = list(dict.fromkeys(t for a in live for t in axioms[a][2]))
        values = over_pairs(d, [c.data for c in item], pairs)
        at = split_rows(values.data, pairs, _count(item))
        return [tuple(alg._raw(values.kind, at[t]) for t in axioms[a][2]) for a in live]

    found = first_failures(columns, evaluate, [(arity, test) for _, arity, _, test in axioms])
    return [_verdict(row[0], sample_count, failure) for row, (_, failure) in zip(axioms, found)]


@order_test
def below(points, kind, low, high):
    """low <= high in the order cone, scored by the norm of high - low."""
    diff = high - low
    return diff, (), lambda positive, _: (positive[0], diff, positive[1])


@order_test
def _nonnegative(points, kind, dxy):
    return dxy, (), lambda positive, _: (positive[0], dxy, None)


@order_test
def _symmetric(points, kind, dxy, dyx):
    diff = dxy - dyx
    return None, (diff, dxy), lambda _, norms: (norms[0] <= alg._default_eps(norms[1]), diff, None)


_triangle = order_test(lambda p, kind, dxz, dzy, dxy: below.steps(p, kind, dxy, dxz + dzy))
# the partial triangle is corrected by the middle self-distance
_partial_triangle = order_test(
    lambda p, kind, dxz, dzy, dzz, dxy: below.steps(p, kind, dxy, dxz + dzy - dzz))


@order_test
def _indistinguishable(points, kind, pxx, pyy, pxy):
    # converse direction: p(x,x) = p(y,y) = p(x,y) forces x = y
    def verdict(_, norms):
        scale, off_x, off_y = norms
        eps = alg._default_eps(scale)
        coincide = (off_x <= eps) & (off_y <= eps)
        xs, ys = (p.data.reshape(len(p), -1) for p in points)
        same_point = np.max(np.abs(xs - ys), axis=1) <= 1e-9
        return ~coincide | same_point, pxy - pxx, None

    return None, (pxy, pxx - pxy, pyy - pxy), verdict


@order_test
def vanishes(points, kind, v):
    """v = 0: self-distance zero, and the combiner's zero preservation. A row
    of infinite norm would get an infinite default eps; it does not vanish."""
    return None, (v,), lambda _, norms: (
        (norms[0] <= alg._default_eps(norms[0])) & np.isfinite(norms[0]), v, None)


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
