"""The public API: every exported name resolves and the README example runs."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import tvconsensus
from tvconsensus import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once():
    assert len(set(tvconsensus.__all__)) == len(tvconsensus.__all__)
    for name in tvconsensus.__all__:
        assert hasattr(tvconsensus, name), name


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_lines_parse():
    """Every ``tvconsensus ...`` line of the README parses, its ``[...]`` groups given."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("tvconsensus ")]
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(re.sub(r"[\[\]]", "", line))[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {line.split()[1] for line in lines} == set(commands.choices)
