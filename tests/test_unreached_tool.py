"""``tools/unreached.py`` lists the package lines that the smoke workloads never run."""

import inspect
import subprocess
import sys
from pathlib import Path

from tvconsensus import harness

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "unreached.py"


def test_smoke_pass_lists_the_cli_but_not_the_runner(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    listed = [line.split(":", 2) for line in proc.stdout.splitlines()]
    assert all(len(entry) == 3 for entry in listed)
    # The workloads call run_experiment directly, so the CLI module is never imported.
    assert ("src/tvconsensus/cli.py", " def main(argv: list[str] | None = None) -> int:") in {
        (path, text) for path, _, text in listed
    }
    source, first = inspect.getsourcelines(harness.run_experiment)
    body = range(first + 1, first + len(source))
    in_body = [text for path, line, text in listed
               if path == "src/tvconsensus/harness.py" and int(line) in body]
    # Only its rejections of a bad stubborn section stay unreached.
    assert all(text.startswith(" raise ConfigError(") for text in in_body), in_body
