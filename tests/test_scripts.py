import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("scripts_golden.json")


def script_stdout(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, line",
    [
        ("corpus_report.py", "MC = 2z+3; PC = z+2; R = 1; strong Morse identity HOLDS"),
        ("slide_sweep.py", "    0.15      0.075      0.075  yes"),
    ],
)
def test_script_runs(script, line):
    """The script prints the key line and exactly the stdout that
    ``tests/scripts_golden.json`` holds.  A change that means to alter a
    script's output regenerates the file, from the repository root, with

        PYTHONPATH=tests python -c "import json, test_scripts as t; t.GOLDEN.write_text(json.dumps( \\
            {s: t.script_stdout(s) for s in ('corpus_report.py', 'slide_sweep.py')}, indent=1, sort_keys=True) + '\\n')"
    """
    stdout = script_stdout(script)
    assert line in stdout.splitlines()
    assert stdout == json.loads(GOLDEN.read_text(encoding="utf-8"))[script]
