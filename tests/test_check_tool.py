"""``tools/check.py`` stops at its first failing stage and ends a passing run with the
``src_lines`` counts of the revision and the checkout."""

import importlib.util
import io
import re
import shutil
import subprocess
import sys
import tarfile
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


needs_git = pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                               reason="needs a git checkout")


def load_tool():
    spec = importlib.util.spec_from_file_location("check_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def package_lines(files: dict[str, bytes]) -> int:
    """perfbench's ``package.src_lines`` over {path: bytes}: every line of src/tvconsensus/*.py."""
    return sum(len(data.decode("utf-8").splitlines()) for name, data in files.items()
               if re.fullmatch(r"src/tvconsensus/[^/]+\.py", name))


@needs_git
def test_src_lines_of_a_revision_counts_its_package_files_as_git_archives_them():
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD", "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        files = {m.name: tar.extractfile(m).read() for m in tar.getmembers() if m.isfile()}
    assert load_tool().src_lines("HEAD") == package_lines(files) > 0


def test_src_lines_of_the_checkout_counts_its_package_files():
    files = {str(p.relative_to(ROOT).as_posix()): p.read_bytes()
             for p in (ROOT / "src" / "tvconsensus").rglob("*.py")}
    assert load_tool().src_lines() == package_lines(files) > 0


@needs_git
def test_passing_stages_end_with_the_line_counts(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "stages", lambda rev, dest: [("noop", [sys.executable, "-c", ""])])
    assert tool.main(["HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"PASS noop \d+\.\ds", lines[0])
    assert lines[1:] == [f"src_lines {tool.src_lines('HEAD')} -> {tool.src_lines()}"]
