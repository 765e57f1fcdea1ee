"""Byte-exact golden outputs of the CLI for a fixed seed.

Each case runs ``cstarfix.cli.main`` in-process with ``--seed 0`` and the
default flags, and compares the structured output with the stored file under
``tests/golden/`` (exit codes in ``exit_codes.json``). A refactor that keeps verdicts and certificates must leave
every byte unchanged. After a deliberate output change, regenerate with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cstarfix.cli import main
from cstarfix.demos import DEMOS

GOLDEN = Path(__file__).parent / "golden"

# flat-form configs, one per subcommand on the scalar, vector and matrix spaces
CONFIGS = {
    "verify-scalar": {"family": "banach", "k": 0.5, "space": "max_unit_interval",
                      "operator": "halving", "mode": "partial"},
    "verify-vector": {"family": "plain", "k": 0.5, "space": "sum_premetric",
                      "operator": "halving", "phi": "coordinate_pair", "combiner": "sum"},
    "verify-matrix": {"family": "weak", "k": 0.5, "alpha": 4.0,
                      "space": "diag_absdiff_matrix", "operator": "halving",
                      "phi": "spread_matrix", "combiner": "square_first"},
    "axioms-scalar": {"space": "max_unit_interval"},
    "axioms-vector": {"space": "absdiff_pair"},
    "axioms-matrix": {"space": "diag_absdiff_matrix"},
    "solve-scalar": {"family": "banach", "k": 0.5, "space": "max_unit_interval",
                     "operator": "halving", "mode": "partial", "x0": 1.0},
    "solve-vector": {"family": "plain", "k": 0.5, "space": "sum_premetric",
                     "operator": "halving", "phi": "coordinate_pair", "x0": 1.0},
    "solve-matrix": {"family": "weak", "k": 0.5, "alpha": 4.0,
                     "space": "diag_absdiff_matrix", "operator": "halving",
                     "phi": "spread_matrix", "combiner": "square_first",
                     "x0": [1.0, -0.5]},
}

CASES = [f"demo-{demo_id}" for demo_id in sorted(DEMOS)] + sorted(CONFIGS)


def _argv(case: str, tmp_dir: Path) -> list:
    command, name = case.split("-", 1)
    if command == "demo":
        return ["demo", name, "--seed", "0"]
    path = tmp_dir / f"{case}.json"
    path.write_text(json.dumps(CONFIGS[case]))
    return [command, "--config", str(path), "--seed", "0"]


def _golden_path(case: str) -> Path:
    return GOLDEN / f"{case}.json"


@pytest.mark.parametrize("case", CASES)
def test_structured_output_matches_golden(case, tmp_path, capsys):
    code = main(_argv(case, tmp_path))
    out = capsys.readouterr().out
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[case]
    assert out.encode() == _golden_path(case).read_bytes()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[case] = main(_argv(case, Path(tmp)))
            _golden_path(case).write_bytes(buf.getvalue().encode())
            print(f"{case}: exit {codes[case]}", file=sys.stderr)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
