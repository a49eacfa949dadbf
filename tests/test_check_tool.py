"""``tools/check.py`` stops at its first failing stage."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "check.py"


@pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                    reason="needs a git checkout")
def test_an_unknown_revision_fails_the_artifacts_stage_and_runs_no_other(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "no-such-rev"], capture_output=True,
                          text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"FAIL artifacts \d+\.\ds", lines[0]), proc.stdout
    assert [line for line in lines if re.match(r"(PASS|FAIL) ", line)] == lines[:1]
    assert "cannot archive revision no-such-rev" in proc.stdout
