"""README examples run as written: the Python tour, the file-free CLI lines and the cited limits."""

from __future__ import annotations

import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import spanwalk
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


_SUPERSCRIPT_DIGITS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _cited_value(text):
    """2²⁶ is a power of two; 2 000 000 groups its digits with spaces."""
    exponent = text[1:].translate(_SUPERSCRIPT_DIGITS)
    if text[0] == "2" and exponent.isdigit() and exponent != text[1:]:
        return 2 ** int(exponent)
    return int(text.replace(" ", ""))


def _cited_constants():
    """{(module, name): value} for every `module.NAME = value` in the README."""
    found = re.findall(r"`(\w+)\.([A-Z_][A-Z0-9_]*) = ([^`]+)`", README)
    return {(module, name): _cited_value(text) for module, name, text in found}


def _limit_constants():
    """(module, name) of every _MAX_* or *_BUDGET int in the package."""
    found = set()
    for info in pkgutil.iter_modules(spanwalk.__path__):
        module = importlib.import_module(f"spanwalk.{info.name}")
        for name, value in vars(module).items():
            if re.fullmatch(r"_MAX_\w+|\w+_BUDGET", name) and isinstance(value, int):
                found.add((info.name, name))
    return found


def test_readme_cites_every_limit_at_its_value():
    cited = _cited_constants()
    assert len(cited) >= 10
    for (module, name), value in cited.items():
        assert getattr(importlib.import_module(f"spanwalk.{module}"), name) == value, (module, name)
    assert _limit_constants() <= set(cited), _limit_constants() - set(cited)
