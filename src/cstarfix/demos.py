"""The one front door for problems, and the demos that replay the paper's
worked examples through it.

A problem is a config dict, the JSON object that `cstarfix axioms`, `verify`
and `solve` read: registry names for its space, operator, phi and combiner,
the contraction family and constants at the top level, a start point x0, and
"mode": "partial" for the corollary form, which derives phi and F from the
space and so takes neither. axioms, verify and solve resolve a config, in a
fixed order of config errors, and call the library.

Each demo is one row of DEMOS: such a config and its stages (axiom checks,
hypothesis verification, solve, bound audit) with their documented
expectations. STAGES maps each stage kind to its function. Two demos expect a
failure by design: the premetric whose self-distance never vanishes, and the
square-first combiner that loses the dominance axiom for small inputs. A demo
succeeds only when all observations, including expected failures, match.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .contractions import ContractionSpec, InvalidSpecError, check_F_axioms, verify_contraction
from .partial import PartialProblem, solve_partial, verify_corollary_hypothesis
from .registry import _lookup, get_combiner, get_operator, get_phi, get_space
from .solver import SolveConfig, bound_audit, picard_solve
from .spaces import Box, check_metric_axioms, check_partial_axioms, point_repr

__all__ = ["DEMOS", "STAGES", "ConfigError", "run_demo", "DemoResult", "axioms", "verify",
           "solve"]


class ConfigError(Exception):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _spec_from_config(cfg: dict) -> ContractionSpec:
    try:
        return ContractionSpec.from_dict(cfg)
    except InvalidSpecError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad contraction spec: {exc}") from exc


def _is_number(value) -> bool:
    # JSON true and false are ints to Python; a string is not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _point_from_config(value, domain):
    """x0 as a point of the domain's shape: a number for an interval, a list
    of dim numbers for a box. Whether it lies inside is the solver's check."""
    if isinstance(domain, Box):
        if isinstance(value, list) and len(value) == domain.dim and all(map(_is_number, value)):
            return np.asarray(value, dtype=float)
        raise ValueError(f"x0 must be a list of {domain.dim} numbers, got {value!r}")
    if _is_number(value):
        return float(value)
    raise ValueError(f"x0 must be a number, got {value!r}")


def _max_iter_from_config(value) -> int:
    if _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise ValueError(f"max_iter must be an integer, got {value!r}")


def _setup(cfg: dict) -> tuple:
    """The config's spec, space and operator, checked in that order."""
    spec = _spec_from_config(cfg)
    return spec, get_space(_require(cfg, "space")), get_operator(_require(cfg, "operator"))


def _callables(cfg: dict, space) -> tuple:
    """phi and the combiner of a metric-mode config; both None in partial mode."""
    mode = cfg.get("mode", "metric")
    if mode not in ("metric", "partial"):
        raise ConfigError(f"mode must be 'metric' or 'partial', got {mode!r}")
    if mode == "partial":
        for key in ("phi", "combiner"):
            if key in cfg:
                raise ConfigError(f"partial mode takes no {key!r}: it derives phi and F from p")
        if (flavor := space.distance.flavor) != "partial":
            raise ConfigError(
                f"mode 'partial' does not fit space {cfg['space']!r} of {flavor} flavor")
        return None, None
    return get_phi(_require(cfg, "phi")), get_combiner(cfg.get("combiner", "sum"))


def axioms(cfg: dict, samples: int, seed: int):
    """The axiom report of the config's space, under its "check" ("partial"
    or "metric"), which defaults to the space's flavor."""
    name = _require(cfg, "space")
    space = get_space(name)
    flavor = space.distance.flavor
    check = cfg.get("check")
    if check is None:
        check = "partial" if flavor == "partial" else "metric"
    if check not in ("partial", "metric"):
        raise ConfigError(f"check must be 'partial' or 'metric', got {check!r}")
    if flavor not in (check, "premetric"):
        raise ConfigError(f"check {check!r} does not fit space {name!r} of {flavor} flavor")
    checker = check_partial_axioms if check == "partial" else check_metric_axioms
    return checker(space.distance, space.domain, samples, seed)


def verify(cfg: dict, samples: int, seed: int):
    """The config's sampled hypothesis: in partial mode the corollary's,
    stated in p, else the contraction inequality."""
    spec, space, T = _setup(cfg)
    phi, F = _callables(cfg, space)
    if phi is None:
        problem = PartialProblem(space.distance, T, spec)
        return verify_corollary_hypothesis(problem, space.domain, samples, seed)
    return verify_contraction(spec, T, space.distance, phi, F, space.domain, samples, seed)


def solve(cfg: dict, tol: float):
    """(certificate, report) of the config's Picard solve from x0: the report
    is solve_partial's result in partial mode, else the certificate."""
    spec, space, T = _setup(cfg)
    try:
        solve_cfg = SolveConfig(
            x0=_point_from_config(_require(cfg, "x0"), space.domain),
            max_iter=_max_iter_from_config(cfg.get("max_iter", 10_000)),
            domain=space.domain,
        )
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"bad x0 or max_iter: {exc}") from exc
    # tol is the caller's, not the config's: a bad one stays SolveConfig's ValueError
    solve_cfg = replace(solve_cfg, tol=tol)
    phi, F = _callables(cfg, space)
    if phi is None:
        solved = solve_partial(PartialProblem(space.distance, T, spec), solve_cfg)
        return solved.certificate, solved
    cert = picard_solve(T, space.distance, phi, F, spec, solve_cfg)
    return cert, cert


@dataclass
class DemoResult:
    demo_id: str
    stages: list

    @property
    def ok(self) -> bool:
        return all(s["ok"] for s in self.stages)

    def to_dict(self) -> dict:
        return {"demo": self.demo_id, "ok": self.ok, "stages": self.stages}


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _axiom_verdict(report, axiom: str) -> str:
    return next(c.verdict for c in report.checks if c.axiom == axiom)


def _axioms_stage(check: str, axiom: Optional[str] = None) -> Callable:
    """The stage of demos.axioms under check: the verdict of the whole
    suite, or of the one axiom it reads."""

    def stage(cfg, seed, samples, tol, state):
        report = axioms({**cfg, "check": check}, samples, seed)
        verdict = _verdict(report.all_pass) if axiom is None else _axiom_verdict(report, axiom)
        return verdict, report.to_dict()

    return stage


def _combiner_dominance(cfg, seed, samples, tol, state):
    d = get_space(cfg["space"]).distance
    report = check_F_axioms(get_combiner(cfg["combiner"]), d.kind, d.n, samples, seed)
    return _axiom_verdict(report, "dominance"), report.to_dict()


def _verify(cfg, seed, samples, tol, state):
    result = verify(cfg, samples, seed)
    return _verdict(result.certified), result.to_dict()


def _solve(cfg, seed, samples, tol, state):
    cert, report = solve(cfg, tol)
    if cfg.get("mode") == "partial":
        return _verdict(cert.converged), {"z": point_repr(cert.z),
                                          "self_distance_norm": report.self_distance_norm}
    state["certificate"] = cert
    return _verdict(cert.converged), cert.to_dict()


def _bound_audit(cfg, seed, samples, tol, state):
    audit = bound_audit(state["certificate"], get_space(cfg["space"]).distance)
    return _verdict(audit["passed"]), {"max_violation": audit["max_violation"]}


# Stage kind -> fn(cfg, seed, samples, tol, state) -> (observed, detail).
# state carries a metric solve's certificate to bound-audit.
STAGES: dict[str, Callable] = {
    "partial-axioms": _axioms_stage("partial"),
    "metric-axioms": _axioms_stage("metric"),
    "metric-axioms-self-distance": _axioms_stage("metric", "self-distance-zero"),
    "combiner-dominance": _combiner_dominance,
    "contraction-verify": _verify,
    "hypothesis-verify": _verify,
    "solve": _solve,
    "bound-audit": _bound_audit,
}


def _corollary(operator: str, family: str, **constants) -> tuple:
    cfg = {"space": "max_unit_interval", "operator": operator, "mode": "partial",
           "family": family, **constants, "x0": 1.0}
    return cfg, (("partial-axioms", "pass"), ("hypothesis-verify", "pass"), ("solve", "pass"))


# Demo id -> (config, (stage kind, expected verdict) pairs in run order).
DEMOS: dict[str, tuple] = {
    "ex2.3": ({"space": "shifted_max_matrix"}, (("partial-axioms", "pass"),)),
    "ex2.4": ({"space": "absdiff_pair"}, (("partial-axioms", "pass"),)),
    # rate-1/2 contraction on a premetric whose self-distance is not zero
    "ex3.8": (
        {"space": "sum_premetric", "operator": "halving", "phi": "coordinate_pair",
         "combiner": "sum", "family": "plain", "k": 0.5, "x0": 1.0},
        (("metric-axioms-self-distance", "fail"), ("contraction-verify", "pass"),
         ("solve", "pass"), ("bound-audit", "pass")),
    ),
    # weak contraction; squaring shrinks small arguments, so F loses dominance
    "ex3.13": (
        {"space": "diag_absdiff_matrix", "operator": "halving", "phi": "spread_matrix",
         "combiner": "square_first", "family": "weak", "k": 0.5, "alpha": 4.0,
         "x0": [1.0, 1.0]},
        (("combiner-dominance", "fail"), ("metric-axioms", "pass"),
         ("contraction-verify", "pass"), ("solve", "pass")),
    ),
    "cor4.1": _corollary("halving", "plain", k=0.5),
    "cor4.2": _corollary("halving", "graphic", k=0.5),
    "cor4.3": _corollary("halving", "weak", k=0.5, alpha=1.0),
    "cor4.4": _corollary("quartering", "kannan", k=1.0 / 3.0),
    "cor4.5": _corollary("halving", "reich", alpha=0.5, beta=0.1, gamma=0.1),
    "cor4.6": _corollary("quartering", "chatterjea", k=1.0 / 3.0),
}


def run_demo(demo_id: str, seed: int = 0, samples: int = 1000, tol: float = 1e-10) -> DemoResult:
    cfg, stages = _lookup(DEMOS, demo_id, "demo")
    state: dict = {}
    results = []
    for name, expected in stages:
        observed, detail = STAGES[name](cfg, seed, samples, tol, state)
        results.append({"stage": name, "expected": expected, "observed": observed,
                        "ok": expected == observed, "detail": detail})
    return DemoResult(demo_id=demo_id, stages=results)
