"""README examples run as written: the Python tour and the file-free CLI lines."""

from __future__ import annotations

import io
import re
import shlex
from pathlib import Path

import pytest

from spanwalk import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _cli_lines():
    lines = [line for block in _blocks("sh") for line in block.splitlines()]
    return [line for line in lines if line.startswith("spanwalk ") and "--edge-list" not in line]


def test_readme_has_one_python_block_and_cli_lines():
    assert len(_blocks("python")) == 1
    assert len(_cli_lines()) >= 10


def test_readme_python_block_runs():
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line_exits_0(line):
    out = io.StringIO()
    assert cli.run(shlex.split(line)[1:], out=out) == 0, out.getvalue()
