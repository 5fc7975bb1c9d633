"""The README's examples run: every python block, and every command of the
Command line block with exit status 0."""

import re
import shlex
from pathlib import Path

import pytest

from ckgeom import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
COMMANDS = [
    line
    for line in re.search(r"^## Command line\n.*?^```\n(.*?)^```", README, re.M | re.S)[1].splitlines()
    if line.startswith("ckgeom ")
]
assert PYTHON_BLOCKS and COMMANDS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block, capsys):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
