import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, line",
    [
        ("corpus_report.py", "MC = 2z+3; PC = z+2; R = 1; strong Morse identity HOLDS"),
        ("slide_sweep.py", "    0.15      0.075      0.075  yes"),
    ],
)
def test_script_runs(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
