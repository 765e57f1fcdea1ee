"""Command-line front door.

Subcommands: `demo` runs a registered end-to-end reproduction, `axioms`
checks a named space against its distance axioms, `verify` samples a
contraction or corollary hypothesis from a config file, `solve` runs the
Picard solver and can export a CSV trace.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .contractions import ContractionSpec, InvalidSpecError
from .demos import run_demo, solve, verify
from .registry import UnknownNameError, get_combiner, get_operator, get_phi, get_space
from .solver import SolveConfig, SolverError
from .spaces import Box, check_metric_axioms, check_partial_axioms

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _dump(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "structured":
        _write(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n", out)
    else:
        _write(_humanize(payload), out)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _humanize(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_humanize(value, indent + 1).rstrip("\n"))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_humanize(item, indent + 1).rstrip("\n"))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines) + "\n"


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


def cmd_demo(args) -> int:
    result = run_demo(args.id, seed=args.seed, samples=args.samples, tol=args.tol)
    _dump(result.to_dict(), args.format, args.out)
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_axioms(args) -> int:
    cfg = _load_config(args.config)
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
    report = checker(space.distance, space.domain, args.samples, args.seed)
    _dump(report.to_dict(), args.format, args.out)
    return EXIT_OK


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _setup(cfg: dict) -> tuple:
    """The config's spec, space and operator, checked in that order."""
    spec = _spec_from_config(cfg)
    return spec, get_space(_require(cfg, "space")), get_operator(_require(cfg, "operator"))


def _callables(cfg: dict) -> tuple:
    """phi and the combiner of a metric-mode config; both None in partial mode."""
    mode = cfg.get("mode", "metric")
    if mode not in ("metric", "partial"):
        raise ConfigError(f"mode must be 'metric' or 'partial', got {mode!r}")
    if mode == "partial":
        return None, None
    return get_phi(_require(cfg, "phi")), get_combiner(cfg.get("combiner", "sum"))


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    spec, space, T = _setup(cfg)
    result = verify(spec, T, space, *_callables(cfg), args.samples, args.seed)
    _dump(result.to_dict(), args.format, args.out)
    return EXIT_OK if result.certified else EXIT_FAILURE


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    spec, space, T = _setup(cfg)
    try:
        solve_cfg = SolveConfig(
            x0=_point_from_config(_require(cfg, "x0"), space.domain),
            tol=args.tol,
            max_iter=_max_iter_from_config(cfg.get("max_iter", 10_000)),
            domain=space.domain,
        )
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"bad x0 or max_iter: {exc}") from exc
    cert, report = solve(spec, T, space, *_callables(cfg), solve_cfg)
    if args.format == "csv" or (args.out and str(args.out).endswith(".csv")):
        _write(cert.to_csv(), args.out)
    else:
        _dump(report.to_dict(), args.format, args.out)
    return EXIT_OK if cert.converged else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarfix",
        description="Algebra-valued metric spaces, contraction checks, and "
        "certified fixed-point iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("human", "structured")):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", choices=formats, default="structured")
        p.add_argument("--out", default=None, help="write output to this path")

    p_demo = sub.add_parser("demo", help="run a registered end-to-end demo")
    p_demo.add_argument("id")
    common(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_axioms = sub.add_parser("axioms", help="check distance axioms for a named space")
    p_axioms.add_argument("--config", required=True)
    common(p_axioms)
    p_axioms.set_defaults(func=cmd_axioms)

    p_verify = sub.add_parser("verify", help="sample a contraction inequality")
    p_verify.add_argument("--config", required=True)
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="run the fixed-point solver")
    p_solve.add_argument("--config", required=True)
    common(p_solve, formats=("human", "structured", "csv"))
    p_solve.set_defaults(func=cmd_solve)
    return parser


# built once per process: main may run many times in one process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if not 0 < args.tol < float("inf"):  # nan fails both comparisons
        parser.error("--tol must be positive and finite")
    try:
        return args.func(args)
    except (ConfigError, InvalidSpecError, UnknownNameError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except SolverError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
