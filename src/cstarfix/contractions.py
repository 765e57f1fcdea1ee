"""Contraction families and their sampled verification.

Each of the six families is one row of FAMILIES: its constant check, the
constants it reads, its orbit pairs (whence its rate) and its right side,
written once over the term and relaxed callables of a mode (the metric mode
here, the partial mode in partial.py).
A verification run either certifies the family inequality over a seeded
sample or returns the first counterexample; runs are deterministic given
(seed, sample_count).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement
from .spaces import (
    AxiomCheck,
    AxiomReport,
    Domain,
    Points,
    ValuedDistance,
    _count,
    axiom_check,
    below,
    first_failure,
    head_evaluated,
    order_test,
    over_pairs,
    over_rows,
    point_repr,
    rowwise,
    split_rows,
    vanishes,
)

__all__ = [
    "FFunction",
    "PhiFunction",
    "OperatorSpec",
    "ContractionSpec",
    "FAMILIES",
    "InvalidSpecError",
    "VerificationResult",
    "sum_combiner",
    "square_first_combiner",
    "zero_phi",
    "check_F_axioms",
    "verify_contraction",
    "effective_rate",
]


class InvalidSpecError(ValueError):
    """Contraction constants outside their validity range."""


# Called with stacks (Points, or stacked elements), the three callables below
# return one row per input row, through over_rows.


@dataclass(frozen=True)
class FFunction:
    """Combiner of a distance value and two penalty values, positives to positives."""

    fn: Callable[[AlgebraElement, AlgebraElement, AlgebraElement], AlgebraElement]
    label: str

    def __call__(self, a, b, c) -> AlgebraElement:
        if a.stacked or b.stacked or c.stacked:
            return over_rows(self.fn, a, b, c)
        return self.fn(a, b, c)


@dataclass(frozen=True)
class PhiFunction:
    """Pointwise penalty into the positive cone; zeros mark target points."""

    fn: Callable[[object], AlgebraElement]
    label: str

    def __call__(self, x) -> AlgebraElement:
        return over_rows(self.fn, x) if isinstance(x, Points) else self.fn(x)


@dataclass(frozen=True)
class OperatorSpec:
    """The self-map under study."""

    fn: Callable[[object], object]
    label: str

    def __call__(self, x):
        return over_rows(self.fn, x) if isinstance(x, Points) else self.fn(x)


def sum_combiner() -> FFunction:
    return FFunction(rowwise(lambda a, b, c: a + b + c), "sum")


def square_first_combiner() -> FFunction:
    """First argument squared plus the other two. Fails the dominance axiom
    for small positive first arguments; kept as a built-in to exercise that."""
    return FFunction(rowwise(lambda a, b, c: a * a + b + c), "square-first")


def zero_phi(kind: alg.Kind, n: int = 1) -> PhiFunction:
    z = alg.zero(kind, n)
    return PhiFunction(rowwise(lambda x: z), "zero")


_CONSTANTS = ("k", "alpha", "beta", "gamma")


@dataclass(frozen=True)
class ContractionSpec:
    family: str
    k: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown family {self.family!r}")
        given = [c for c in _CONSTANTS if getattr(self, c) is not None]
        for name in given:
            value = getattr(self, name)
            # np.bool_ is no numbers.Real; bool is an int
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidSpecError(f"{self.family} requires a numeric {name}, got {value!r}")
            if not isinstance(value, (int, float)):
                # a NumPy scalar such as np.float32 becomes the Python number it holds, which
                # json encodes and whose rate is a float's
                value = int(value) if isinstance(value, numbers.Integral) else float(value)
                object.__setattr__(self, name, value)
        rule = FAMILIES[self.family]
        rule.check(self)
        # NaN passes every range check, +inf passes alpha >= 0: the row's constants,
        # then every other one given, as to_dict echoes them all
        for name in (*rule.constants, *(c for c in given if c not in rule.constants)):
            if not math.isfinite(value := getattr(self, name)):
                raise InvalidSpecError(f"{self.family} requires a finite {name}, got {value}")

    def to_dict(self) -> dict:
        given = {name: getattr(self, name) for name in _CONSTANTS}
        return {"family": self.family, **{n: v for n, v in given.items() if v is not None}}

    @staticmethod
    def from_dict(d: dict) -> "ContractionSpec":
        family = d.get("family")
        aliases = {"banach": "plain", "fphi": "plain"}
        family = aliases.get(family, family)
        return ContractionSpec(family, **{name: d.get(name) for name in _CONSTANTS})


def _k_below(s: ContractionSpec, upper: float, shown: str) -> None:
    if s.k is None or not 0 < s.k < upper:
        raise InvalidSpecError(f"{s.family} requires k in (0,{shown}), got {s.k}")


def _k_and_alpha(s: ContractionSpec) -> None:
    _k_below(s, 1, "1")
    if s.alpha is None or s.alpha < 0:
        raise InvalidSpecError(f"{s.family} requires alpha >= 0, got {s.alpha}")


def _three_weights(s: ContractionSpec) -> None:
    a, b, g = s.alpha, s.beta, s.gamma
    if a is None or b is None or g is None or min(a, b, g) < 0:
        raise InvalidSpecError(f"{s.family} requires alpha, beta, gamma >= 0")
    if a + b + g >= 1:
        raise InvalidSpecError(f"{s.family} requires alpha+beta+gamma < 1, got {a + b + g}")


class FamilyRule(NamedTuple):
    check: Callable[[ContractionSpec], None]  # raises InvalidSpecError on bad constants
    constants: tuple[str, ...]  # the constants the row reads
    orbit: tuple[Callable[[ContractionSpec], tuple[float, float]], ...]  # (a, b) pairs
    # (spec, t, r, x, y, Tx, Ty), t = term, r = relaxed, the points named by indices
    rhs: Callable[..., np.ndarray | AlgebraElement]
    single_point: bool = False  # sampled at points x, not pairs (x, y)
    stratified: bool = False  # half of the samples are orbit pairs (x, T(x))
    partial_rhs: Optional[Callable[..., AlgebraElement]] = None  # rhs in partial mode


# Orbit pairs: s_n is the step value at (x_n, x_{n+1}) on the orbit x_{n+1} = T x_n.
# Each (a, b) reads the inequality in one orientation, (x, y) = (x_n, x_{n+1}) or
# (x_{n+1}, x_n), as s_{n+1} <= a s_n + b s_{n+1}. Sums keep the grouping
# k (A + B) and (aA + bB) + cC, terms their argument order: both fix the float sides.
_PLAIN = FamilyRule(
    lambda s: _k_below(s, 1, "1"),
    constants=("k",),
    orbit=(lambda s: (s.k, 0.0),),  # at (x_n, x_{n+1}): s_{n+1} <= k s_n
    rhs=lambda s, t, r, x, y, Tx, Ty: s.k * t(x, y),
)
FAMILIES: dict[str, FamilyRule] = {
    "plain": _PLAIN,
    "graphic": _PLAIN._replace(single_point=True),  # plain at the orbit pair (x, y) = (Tx, x)
    "weak": FamilyRule(
        _k_and_alpha,
        constants=("k", "alpha"),
        orbit=(lambda s: (s.k, 0.0),),  # the relaxation term vanishes at y = Tx
        rhs=lambda s, t, r, x, y, Tx, Ty: s.k * t(x, y) + s.alpha * r(y, Tx),
        stratified=True,  # the inequality binds at y = Tx
    ),
    "kannan": FamilyRule(
        lambda s: _k_below(s, 0.5, "1/2"),
        constants=("k",),
        # at (x_n, x_{n+1}), reading t(u, v) = t(v, u): s_{n+1} <= k (s_n + s_{n+1})
        orbit=(lambda s: (s.k, s.k),),
        rhs=lambda s, t, r, x, y, Tx, Ty: s.k * (t(Tx, x) + t(Ty, y)),
    ),
    "reich": FamilyRule(
        _three_weights,
        constants=("alpha", "beta", "gamma"),
        orbit=(
            # at (x_{n+1}, x_n), reading t(u, v) = t(v, u):
            # s_{n+1} <= (alpha + gamma) s_n + beta s_{n+1}
            lambda s: (s.alpha + s.gamma, s.beta),
            # at (x_n, x_{n+1}): s_{n+1} <= (alpha + beta) s_n + gamma s_{n+1}
            lambda s: (s.alpha + s.beta, s.gamma),
        ),
        rhs=lambda s, t, r, x, y, Tx, Ty: (
            s.alpha * t(x, y) + s.beta * t(x, Tx) + s.gamma * t(y, Ty)
        ),
    ),
    "chatterjea": FamilyRule(
        lambda s: _k_below(s, 0.5, "1/2"),
        constants=("k",),
        # d(y, Tx) = 0 and d(x, Ty) <= s_n + s_{n+1}: s_{n+1} <= k (s_n + s_{n+1})
        orbit=(lambda s: (s.k, s.k),),
        rhs=lambda s, t, r, x, y, Tx, Ty: s.k * (r(x, Ty) + t(y, Tx)),
        # p(x, Ty) unrelaxed: not the reduced metric form (a FOUND line in CHANGES.md).
        # Its rate is sound: at (x, y) = (x_n, x_{n+1}) the partial triangle p(x_n, x_{n+2})
        # <= p(x_n, x_{n+1}) + p(x_{n+1}, x_{n+2}) - p(x_{n+1}, x_{n+1}) turns the inequality
        # into s_{n+1} <= k (s_n + s_{n+1}), s_n = ||2 p(x_n, x_{n+1})|| the reduced step
        partial_rhs=lambda s, t, r, x, y, Tx, Ty: s.k * (t(x, Ty) + t(y, Tx)),
    ),
}


def effective_rate(spec: ContractionSpec) -> float:
    """Per-step geometric factor implied by the family constants: the least
    a / (1 - b) over the row's orbit pairs, read in either orientation."""
    return min(a / (1.0 - b) for a, b in (pair(spec) for pair in FAMILIES[spec.family].orbit))


def _sample_positive(kind: alg.Kind, n: int, rng: np.random.Generator, count: int):
    """The stack of count random positive elements, drawn in the order of
    one-at-a-time draws."""
    if kind == "scalar":
        data = np.abs(rng.normal(size=count))
    elif kind == "vector":
        data = np.abs(rng.normal(size=(count, n)))
    else:
        parts = rng.normal(size=(count, 2, n, n))
        g = parts[:, 0] + 1j * parts[:, 1]
        data = (g @ g.conj().swapaxes(-1, -2)) / n
    data.setflags(write=False)
    return alg._raw(kind, data)


def check_F_axioms(
    F: FFunction,
    kind: alg.Kind,
    n: int = 2,
    sample_count: int = 500,
    seed: int = 0,
) -> AxiomReport:
    """Sampled check of the combiner axioms.

    Dominance is tested as the pair of order inequalities a <= F(a,b,c) and
    b <= F(a,b,c), which is what downstream arguments actually use; a
    max of non-comparable elements is not defined. Zero preservation is
    evaluated exactly at theta; continuity is probed by an empirical
    perturbation modulus.
    """
    rng = np.random.default_rng(seed)
    theta = alg.zero(kind, n)
    report = AxiomReport(label=f"F-axioms({F.label})", seed=seed)

    # boundary probes (a, theta, theta) sharpen dominance detection at
    # small positive first arguments, then random positive triples
    probes = _sample_positive(kind, n, rng, max(4, sample_count // 50)).data
    norms = alg.norm_rows(kind, probes)
    probes, norms = probes[norms > 0], norms[norms > 0]
    scaled = (0.5 / norms).reshape(-1, *[1] * (probes.ndim - 1)) * probes
    fresh = _sample_positive(kind, n, rng, 3 * max(0, sample_count - len(scaled))).data
    zeros = np.zeros((len(scaled), *theta.data.shape), dtype=theta.data.dtype)
    a, b, c = (alg._raw(kind, np.concatenate([head, fresh[i::3]]))
               for i, head in enumerate((scaled, zeros, zeros)))

    @order_test
    def dominated(points, kind, a, b, out):
        return np.concatenate([out - a, out - b]), (), lambda positive, _: (
            positive[0][: len(a)] & positive[0][len(a) :], out, None)

    def inputs(triple):
        return {"points": {}, "inputs": [alg.element_to_dict(v) for v in triple]}

    report.checks.append(axiom_check(
        "dominance", (a, b, c), lambda a, b, c: (a, b, F(a, b, c)), dominated, inputs,
    ))
    report.checks.append(axiom_check(
        "zero-preservation", (alg.stack([theta]),) * 3, lambda a, b, c: (F(a, b, c),), vanishes,
        lambda _: {"points": {}},
    ))

    # empirical continuity modulus: output change per unit input change,
    # F evaluated at each probed triple and then at its perturbation; an
    # error of F is raised only if no probe before the one it ends fails
    h = 1e-6
    probed = min(100, len(a.data))
    modulus, failed = 0.0, None
    if probed:
        step = h * _sample_positive(kind, n, rng, 3 * probed).data
        pairs = [np.stack([v.data[:probed], v.data[:probed] + step[i::3]], axis=1)
                 for i, v in enumerate((a, b, c))]
        stacks = tuple(alg._raw(kind, p.reshape(-1, *p.shape[2:])) for p in pairs)
        rows, out, error = head_evaluated(F, stacks)
        done = rows // 2  # the probes whose triple and perturbation both evaluated
        if not done:
            raise error
        out = out.data
        delta_in = alg.norm_rows(kind, step).reshape(probed, 3).max(axis=1)[:done]
        delta_out = alg.norm_rows(kind, out[1 : 2 * done : 2] - out[0 : 2 * done : 2])
        moved = np.flatnonzero(delta_in != 0)
        ratio = delta_out[moved] / delta_in[moved]
        bad = np.flatnonzero(~np.isfinite(ratio))
        if bad.size:
            failed = moved[bad[0]]
            ratio = ratio[: bad[0]]
        elif error is not None:
            raise error
        modulus = float(ratio.max(initial=0.0))
    check = AxiomCheck("continuity", "pass" if failed is None else "fail", probed)
    if failed is not None:
        check.witness = {"points": {}, "offending": alg.element_to_dict(
            alg._raw(kind, out[2 * failed + 1]))}
    report.checks.append(check)
    report.continuity_modulus = modulus
    return report


@dataclass
class VerificationResult:
    """Outcome of a sampled inequality run: certificate or first counterexample."""

    inequality: str
    certified: bool
    seed: int
    sample_count: int
    max_slack_norm: float
    spec: ContractionSpec
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {
            "inequality": self.inequality,
            "certified": self.certified,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "max_slack_norm": self.max_slack_norm,
            "spec": self.spec.to_dict(),
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


def family_sides(spec: ContractionSpec, T: OperatorSpec, evaluate, x, y,
                 partial: bool = False) -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of the family inequality, t(Tx, Ty) and the row's right
    side, as evaluate(points, sides) gives sides(t, r): t(u, v) and r(u, v)
    are the term and relaxed term at indices into points, Points of x, y,
    Tx and Ty. T runs on x and y stacked; a single-point family is evaluated
    at the orbit pair (x, y) = (Tx, x), so T runs on x, then on Tx."""
    rule = FAMILIES[spec.family]
    rhs = rule.partial_rhs if partial and rule.partial_rhs else rule.rhs
    single = not isinstance(x, Points)
    if single:  # a point or pair is a stack of one row
        x, y = (None if p is None else Points(np.array([p])) for p in (x, y))
    if rule.single_point:
        Tx = T(x)
        points, names = (Tx, x, T(Tx)), (0, 1, 2, 0)
    else:
        images, n = T(Points(np.concatenate((x.data, y.data)))).data, len(x.data)
        points, names = (x, y, Points(images[:n]), Points(images[n:])), (0, 1, 2, 3)
    lhs, right = evaluate(points, lambda t, r: (t(*names[2:]), rhs(spec, t, r, *names)))
    return (lhs[0], right[0]) if single else (lhs, right)


def inequality_sides(
    spec: ContractionSpec,
    T: OperatorSpec,
    d: ValuedDistance,
    phi: PhiFunction,
    F: FFunction,
    x,
    y=None,
) -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of the family inequality at a sampled point or pair, or as
    stacks over Points; term is F(d(u, v), phi(u), phi(v)) and relaxed
    subtracts F(theta, phi(u), phi(v)), each callable run once."""

    def table(points, sides):
        # a run on recorders finds the pairs the sides read, in the order they read them
        pairs, relaxed = {}, {}
        sides(lambda *pair: pairs.setdefault(pair) or 0.0, lambda *pair: relaxed.setdefault(pair) or 0.0)
        points, pairs, relaxed = [c.data for c in points], list(pairs), list(relaxed)
        rows, need = len(points[0]), pairs + relaxed
        dist = over_pairs(d, points, need)
        read = list(dict.fromkeys(c for pair in need for c in pair))
        penalty = phi(Points(np.concatenate([points[c] for c in read])))
        at = split_rows(penalty.data, read, rows)
        pu, pv = (alg._raw(penalty.kind, np.concatenate([at[pair[k]] for pair in need]))
                  for k in (0, 1))
        terms = F(dist, pu, pv)
        t, r = split_rows(terms.data, need, rows), {}
        if relaxed:  # the relaxed pairs are the last rows of pu and pv
            zero = F(alg.zero(d.kind, d.n), pu[len(pairs) * rows :], pv[len(pairs) * rows :])
            r = {pair: t[pair] - z for pair, z in split_rows(zero.data, relaxed, rows).items()}
        both = sides(lambda *pair: t[pair], lambda *pair: r[pair])
        return tuple(alg._raw(terms.kind, side) for side in both)

    return family_sides(spec, T, table, x, y)


def sample_plan(spec: ContractionSpec, T: OperatorSpec, domain: Domain, count: int, seed: int):
    """The strata of a verify's seeded sample, for sample_check: count uniform
    (x, y) pairs from one draw, x then y of each, or x alone for a single-point
    family; a stratified row takes its second half as orbit pairs (x, T(x)),
    y = x where T(x) is outside the domain, cut short before an x where T raises."""
    rng = np.random.default_rng(seed)
    rule = FAMILIES[spec.family]
    n_orbit = count // 2 if rule.stratified else 0
    width = 1 if rule.single_point else 2  # points per uniform sample

    def uniform():
        pts = domain.sample_many(rng, width * (count - n_orbit))
        return tuple(Points(pts[i::width]) for i in range(width)), None

    def orbit():
        xs = domain.sample_many(rng, n_orbit)
        rows, t, error = head_evaluated(T, (Points(xs),))
        xs = xs[:rows]
        t = np.asarray(t.data, dtype=float) if rows else xs
        inside = domain.contains_many(t).reshape(-1, *[1] * (t.ndim - 1))
        return (Points(xs), Points(np.where(inside, t, xs))), error

    return [uniform, orbit] if n_orbit else [uniform]


def sample_check(
    inequality: str,
    spec: ContractionSpec,
    strata,
    sides: Callable[..., tuple[AlgebraElement, AlgebraElement]],
    sample_count: int,
    seed: int,
) -> VerificationResult:
    """Certify lhs <= rhs, sides(*columns) giving their stacks over the
    (x, y) columns, or the (x,) column of a single-point family, of each
    stratum in turn, or stop at the first counterexample (lowest sample
    index wins); max_slack_norm is the largest norm of rhs - lhs before it.
    A stratum is a function, called only once every earlier stratum has
    passed, giving its columns and the error that cut them short, or None;
    that error is raised only if none of the stratum's samples fails."""
    max_slack, failure, offset = 0.0, None, 0
    for stratum in strata:
        columns, error = stratum()
        slack, failure = first_failure(columns, sides, below)
        max_slack = max(max_slack, slack)
        if failure is not None:
            break
        if error is not None:
            raise error
        offset += _count(columns)
    result = VerificationResult(inequality, failure is None, seed, sample_count, max_slack, spec)
    if failure is not None:
        index, (x, *y), kind, _, (lhs, rhs) = failure
        ce = result.counterexample = {
            "index": offset + index,
            "x": point_repr(x),
            "lhs": alg.element_to_dict(alg._raw(kind, lhs)),
            "rhs": alg.element_to_dict(alg._raw(kind, rhs)),
        }
        if y:
            ce["y"] = point_repr(y[0])
    return result


def verify_contraction(
    spec: ContractionSpec,
    T: OperatorSpec,
    d: ValuedDistance,
    phi: PhiFunction,
    F: FFunction,
    domain: Domain,
    sample_count: int = 1000,
    seed: int = 0,
) -> VerificationResult:
    """Certify the family inequality over a seeded sample, or produce the
    first counterexample (lowest sample index wins)."""
    strata = sample_plan(spec, T, domain, sample_count, seed)
    sides = functools.partial(inequality_sides, spec, T, d, phi, F)
    return sample_check(spec.family, spec, strata, sides, sample_count, seed)
