"""Expected verdicts, written by hand from the mathematics.

Nothing here calls cstarfix: every expectation is derived from the
closed form of the inequality or orbit in question, so a wrong program
cannot make its own answer look right.

Hypothesis verdicts are three-valued:

- ``CERTIFY``: the inequality holds at every point or pair of the domain,
  so any sample must certify it;
- ``FALSIFY``: it fails at every sampled point or pair (almost surely), so
  the first counterexample is sample 0;
- ``EITHER``: it fails on part of the domain only, so the sampled verdict
  depends on the draw and only a well-formed answer is required.

Notation: T x = c x (a linear map), x, y the sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass

CERTIFY = "certify"
FALSIFY = "falsify"
EITHER = "either"

FAMILIES = ("plain", "graphic", "weak", "kannan", "reich", "chatterjea")

# Tolerance the harness passes to every solve, and the default of bound_audit.
SOLVE_TOL = 1e-10
AUDIT_TOL = 1e-9


class _Any:
    """Expectation wildcard: the field must be present, any value is accepted."""

    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()


@dataclass(frozen=True)
class Near:
    """A float expected within ``rel`` relative and ``abs_`` absolute error."""

    value: float
    rel: float = 1e-9
    abs_: float = 0.0

    def accepts(self, got) -> bool:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        return abs(got - self.value) <= self.abs_ + self.rel * abs(self.value)


def check(expected: dict, observed: dict) -> list:
    """Mismatch messages between an expected and an observed verdict (empty = match)."""
    problems = []
    for key, want in expected.items():
        if key not in observed:
            problems.append(f"{key}: missing (expected {want!r})")
            continue
        got = observed[key]
        if want is ANY:
            continue
        ok = want.accepts(got) if isinstance(want, Near) else got == want
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def verdict_fields(verdict: str) -> dict:
    """Expected fields of a sampled hypothesis check with the given verdict."""
    if verdict == CERTIFY:
        return {"certified": True}
    if verdict == FALSIFY:
        return {"certified": False, "counterexample_index": 0}
    return {"certified": ANY}


# ---------------------------------------------------------------------------
# Hypotheses for T x = c x


def scalar_metric_hypothesis(family: str, consts: dict, c: float) -> str:
    """d(x, y) = |x - y| on [-1, 1], zero penalty, sum combiner, |c| < 1.

    With a zero penalty F(d, 0, 0) = d, so each family is a scalar
    inequality in x and y. By homogeneity set max(|x|, |y|) = 1; each side
    is piecewise linear in the other point, so the worst case sits at y in
    {-1, 0, 1}:

    - plain, graphic: |c| |x - y| <= k |x - y|: holds iff |c| <= k,
      otherwise fails for every x != y (graphic: every x != 0).
    - weak: |c| |x - y| <= k |x - y| + a |y - c x|; at y = c x the relaxation
      vanishes, so it holds iff |c| <= k and otherwise fails near y = c x.
    - kannan: |c| |x - y| <= k |1 - c| (|x| + |y|); the ratio |x - y| / (|x| + |y|)
      reaches 1 at y = 0, so it holds iff |c| <= k |1 - c|.
    - reich: (|c| - a) |x - y| <= |1 - c| (b |x| + g |y|); the binding cases are
      y = 0 and x = 0, so it holds iff |c| - a <= |1 - c| min(b, g).
    - chatterjea: |c| |x - y| <= k (|x - c y| + |y - c x|); for y in [-1, c] the
      ratio is constant |c| / (1 + c), its maximum, so it holds iff
      |c| / (1 + c) <= k.
    """
    a = abs(c)
    if family in ("plain", "graphic"):
        return CERTIFY if a <= consts["k"] else FALSIFY
    if family == "weak":
        return CERTIFY if a <= consts["k"] else EITHER
    if family == "kannan":
        return CERTIFY if a <= consts["k"] * abs(1.0 - c) else EITHER
    if family == "reich":
        slack = abs(1.0 - c) * min(consts["beta"], consts["gamma"])
        return CERTIFY if a - consts["alpha"] <= slack else EITHER
    if family == "chatterjea":
        return CERTIFY if a / (1.0 + c) <= consts["k"] else EITHER
    raise ValueError(family)


def sum_premetric_hypothesis(family: str, consts: dict, c: float) -> str:
    """d(x, y) = (0, x + y), phi(x) = (x, x), sum combiner, on [0, 1], 0 <= c < 1.

    Then F(d(u, v), phi(u), phi(v)) = (u + v) (1, 2), so most families
    compare multiples of x + y > 0 and hold everywhere or nowhere:

    - plain, graphic, weak: the first component reads c (x + y) <= k (x + y)
      (the weak relaxation d(y, Tx) has first component 0): iff c <= k.
    - kannan: c (x + y) <= k (1 + c) (x + y): iff c <= k (1 + c).
    - reich: x (c - a - b (1 + c)) + y (c - a - g (1 + c)) <= 0 for all x, y:
      holds iff both coefficients are <= 0, fails everywhere if both are > 0.
    - chatterjea: first component c (x + y) <= k (y + c x) fails at y -> 0 for
      any c > 0, and everywhere when c > k.
    """
    k = consts.get("k")
    if family in ("plain", "graphic", "weak"):
        return CERTIFY if c <= k else FALSIFY
    if family == "kannan":
        return CERTIFY if c <= k * (1.0 + c) else FALSIFY
    if family == "reich":
        a, b, g = consts["alpha"], consts["beta"], consts["gamma"]
        cx, cy = c - a - b * (1.0 + c), c - a - g * (1.0 + c)
        if cx <= 0 and cy <= 0:
            return CERTIFY
        return FALSIFY if cx > 0 and cy > 0 else EITHER
    if family == "chatterjea":
        return FALSIFY if c > k else EITHER
    raise ValueError(family)


def max_partial_hypothesis(family: str, consts: dict, c: float) -> str:
    """p(x, y) = max(x, y) on [0, 1], stated in p directly, 0 <= c < 1.

    With m = max(x, y) the left side is always c m:

    - plain: c m <= k m; graphic: c x <= k x: iff c <= k, else everywhere.
    - weak: the relaxation is a |y - c x| / 2, zero at y = c x: iff c <= k.
    - kannan: c m <= k (x + y), and (x + y) / m ranges over (1, 2]: holds iff
      c <= k, fails everywhere iff c > 2 k.
    - reich: c m <= a m + b x + g y: holds iff c <= a + min(b, g), fails
      everywhere iff c > a + b + g.
    - chatterjea: c m <= k (max(x, c y) + max(y, c x)), and the right side lies
      between k m (1 + c) and 2 k m: holds iff c <= k (1 + c), fails
      everywhere iff c > 2 k.
    """
    k = consts.get("k")
    if family in ("plain", "graphic"):
        return CERTIFY if c <= k else FALSIFY
    if family == "weak":
        return CERTIFY if c <= k else EITHER
    if family == "kannan":
        return CERTIFY if c <= k else (FALSIFY if c > 2 * k else EITHER)
    if family == "reich":
        a, b, g = consts["alpha"], consts["beta"], consts["gamma"]
        if c <= a + min(b, g):
            return CERTIFY
        return FALSIFY if c > a + b + g else EITHER
    if family == "chatterjea":
        return CERTIFY if c <= k * (1.0 + c) else (FALSIFY if c > 2 * k else EITHER)
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Orbits


@dataclass(frozen=True)
class Orbit:
    """Predicted outcome of a Picard run."""

    converged: bool
    iterations: int
    z: float


def linear_orbit(c: float, x0: float, max_iter: int, step_factor: float,
                 tol: float = SOLVE_TOL, phi_is_point: bool = False) -> Orbit:
    """Picard run of T x = c x whose step norm is step_factor |x_n|.

    x_n = c^n x0; the solver stops at the first n with
    step_factor |c|^n |x0| <= tol and returns z = x_{n+1} after n + 1
    iterations, or z = x_max_iter unconverged. The fixed-point residual is
    then |c| times the last step, below tol. With phi(x) = x (the
    self-distance of the max partial metric) convergence also needs z <= tol.
    """
    x = x0
    for n in range(max_iter):
        x_next = c * x
        if step_factor * abs(x) <= tol:
            converged = not phi_is_point or abs(x_next) <= tol
            return Orbit(converged, n + 1, x_next)
        x = x_next
    return Orbit(False, max_iter, x)


def chatterjea_rate(k: float) -> float:
    """Per-step factor of a Chatterjea orbit (Chatterjea 1972).

    d(x_{n+1}, x_n) = d(T x_n, T x_{n-1}) <= k (d(x_n, x_n) + d(x_{n-1}, x_{n+1}))
    <= k (d(x_{n-1}, x_n) + d(x_n, x_{n+1})), so the steps shrink by
    h = k / (1 - k) < 1, and d(x_n, z) <= h^n d(x_1, x_0) / (1 - h).
    """
    return k / (1.0 - k)


def within_envelope(rows: list, rate_used: float, rate: float) -> bool:
    """Do the audited distances d(x_n, z) lie within the a-priori envelope of ``rate``?

    The rows of bound_audit hold the solver's envelope
    ||f0|| rate_used^n / (1 - rate_used); row n = 0 gives ||f0||, and the
    envelope of ``rate`` is ||f0|| rate^n / (1 - rate), up to AUDIT_TOL.
    """
    if not rows or rows[0]["n"] != 0:
        return False
    f0 = rows[0]["bound"] * (1.0 - rate_used)
    return all(r["actual"] <= f0 * rate ** r["n"] / (1.0 - rate) + AUDIT_TOL for r in rows)


def halving_matrix_orbit(a: float, b: float, tol: float = SOLVE_TOL) -> tuple:
    """ex3.13 setup from x0 = (a, b): T = halving, d = diag(|a0 - b0|, |a1 - b1|),
    phi(x) = 2 |x0 - x1| I.

    The step is M / 2^(n+1) with M = max(|a|, |b|), so the run stops after
    m iterations, m the least with M / 2^m <= tol, at z = x0 / 2^m. It has
    converged iff also phi(z) = 2 |a - b| / 2^m <= tol. Returns (m, converged).
    """
    m_abs = max(abs(a), abs(b))
    m = 1
    while m_abs / 2.0**m > tol:
        m += 1
    return m, 2.0 * abs(a - b) / 2.0**m <= tol


def halving_matrix_audit_passes(a: float, b: float, square_first: bool) -> bool:
    """bound_audit of the converged ex3.13 orbit with rate 1/2.

    f0 = F(d(x1, x0), phi(x1), phi(x0)) with x1 = x0 / 2 is
    diag(|a|/2, |b|/2) + 3 |a - b| I for the sum combiner and
    diag(a^2/4, b^2/4) + 3 |a - b| I for square-first, and the bound at
    step n is 2 ||f0|| / 2^n against the distance M (2^-n - 2^-m) to the
    limit. Every violation scales with 2^-n, so the worst is n = 0:
    M - 2 ||f0|| (up to the M 2^-m < tol tail). The sum combiner gives
    2 ||f0|| = M + 6 |a - b| >= M, so it always passes. Square-first gives
    M^2 / 2 + 6 |a - b|, which is below M when the spread is small: the
    dominance axiom it fails is what the a-priori bound needs.
    """
    m_abs = max(abs(a), abs(b))
    spread = 6.0 * abs(a - b)
    bound0 = m_abs * m_abs / 2.0 + spread if square_first else m_abs + spread
    return m_abs - bound0 <= AUDIT_TOL


# ---------------------------------------------------------------------------
# Axiom suites and demos


AXIOMS = {
    # genuine metric: componentwise |a_i - b_i| on the diagonal
    "diag_absdiff_matrix": {
        "nonnegativity": "pass", "self-distance-zero": "pass",
        "symmetry": "pass", "triangle": "pass",
    },
    # max(1 + s, 1 + t) I is the max partial metric shifted by the identity
    "shifted_max_matrix": {
        "nonnegativity": "pass", "indistinguishability": "pass", "symmetry": "pass",
        "self-distance": "pass", "triangle": "pass",
    },
    "max_unit_interval": {
        "nonnegativity": "pass", "indistinguishability": "pass", "symmetry": "pass",
        "self-distance": "pass", "triangle": "pass",
    },
    # |x - y| twice: a metric, hence also a partial metric with zero self-distance
    "absdiff_pair": {
        "nonnegativity": "pass", "indistinguishability": "pass", "symmetry": "pass",
        "self-distance": "pass", "triangle": "pass",
    },
    # (0, x + y): d(x, x) = (0, 2x) is nonzero for x > 0
    "sum_premetric/metric": {
        "nonnegativity": "pass", "self-distance-zero": "fail",
        "symmetry": "pass", "triangle": "pass",
    },
    # p(x, x) = (0, 2x) <= (0, x + y) fails whenever x > y, which happens
    # somewhere around any cyclic sample; the triangle holds with equality
    "sum_premetric/partial": {
        "nonnegativity": "pass", "indistinguishability": "pass", "symmetry": "pass",
        "self-distance": "fail", "triangle": "pass",
    },
}

F_AXIOMS = {
    # a <= a + b + c and b <= a + b + c for positive b, c
    "sum": {"dominance": "pass", "zero-preservation": "pass", "continuity": "pass"},
    # the boundary probe a with ||a|| = 1/2 has a - a^2 with eigenvalue 1/4 > 0,
    # so a <= a^2 fails at the first probe
    "square_first": {"dominance": "fail", "zero-preservation": "pass", "continuity": "pass"},
}

# Stage observations of each registered demo, from the setups in the paper:
# the corollary demos use T = c x on max_unit_interval with constants inside
# the certify region of max_partial_hypothesis (plain/graphic/weak k = c = 1/2,
# kannan 1/4 <= 1/3, reich 1/2 <= 1/2 + 1/10, chatterjea 1/4 <= (1/3)(5/4)).
_COROLLARY = {"partial-axioms": "pass", "hypothesis-verify": "pass", "solve": "pass"}
DEMO_STAGES = {
    "ex2.3": {"partial-axioms": "pass"},
    "ex2.4": {"partial-axioms": "pass"},
    "ex3.8": {
        "metric-axioms-self-distance": "fail", "contraction-verify": "pass",
        "solve": "pass", "bound-audit": "pass",
    },
    "ex3.13": {
        "combiner-dominance": "fail", "metric-axioms": "pass",
        "contraction-verify": "pass", "solve": "pass",
    },
    **{f"cor4.{i}": _COROLLARY for i in range(1, 7)},
}

# Sampled stages per demo: each requests --samples points, pairs or triples.
DEMO_SAMPLED_STAGES = {
    "ex2.3": 1, "ex2.4": 1, "ex3.8": 2, "ex3.13": 3,
    **{f"cor4.{i}": 2 for i in range(1, 7)},
}
