"""Command-line front door.

Subcommands: `demo` runs a registered end-to-end reproduction, `axioms`
checks a named space against its distance axioms, `verify` samples a
contraction or corollary hypothesis from a config file, `solve` runs the
Picard solver and can export a CSV trace. Each loads its JSON config, makes
one call to `demos` (run_demo, axioms, verify or solve), which resolves the
config, and writes the result.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .contractions import InvalidSpecError
from .demos import ConfigError, axioms, run_demo, solve, verify
from .registry import UnknownNameError
from .solver import SolverError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


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


def cmd_demo(args) -> int:
    result = run_demo(args.id, seed=args.seed, samples=args.samples, tol=args.tol)
    _dump(result.to_dict(), args.format, args.out)
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_axioms(args) -> int:
    report = axioms(_load_config(args.config), args.samples, args.seed)
    _dump(report.to_dict(), args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    result = verify(_load_config(args.config), args.samples, args.seed)
    _dump(result.to_dict(), args.format, args.out)
    return EXIT_OK if result.certified else EXIT_FAILURE


def cmd_solve(args) -> int:
    cert, report = solve(_load_config(args.config), args.tol)
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
