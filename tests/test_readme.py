"""The README's examples run as written."""

import re
from pathlib import Path

from cstarfix.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_library_quick_start_runs(capsys):
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-2].endswith("True")  # converged
    assert printed[-1] == "True"  # bound audit passed


def test_verify_config_example_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_blocks("json")[0])
    assert main(["verify", "--config", str(cfg)]) == 0
