"""The public API: every exported name resolves and the README example runs."""

import re
from pathlib import Path

import tvconsensus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once():
    assert len(set(tvconsensus.__all__)) == len(tvconsensus.__all__)
    for name in tvconsensus.__all__:
        assert hasattr(tvconsensus, name), name


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
