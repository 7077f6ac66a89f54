"""The benchmark harness reaches legch through module attributes
(``lg.fileio.parse_knot_file``, ...) after importing only ``legch.cli`` and
``legch.corpus``.  These tests pin that contract; they read ``perfbench/`` and
never run it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_names() -> list[str]:
    """The ``module.function`` keys of ``COUNTERS`` in ``perfbench/spans.py``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "COUNTERS" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/spans.py defines no COUNTERS")


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_harness_names_resolve_after_importing_cli_and_corpus():
    names = traced_names() + ["augment.Augmentation", "diagram.area_inequalities"]
    assert "fileio.parse_knot_file" in names
    missing = run_python(
        "import sys, legch, legch.cli, legch.corpus\n"
        "for key in sys.argv[1:]:\n"
        "    module, name = key.split('.')\n"
        "    if not hasattr(getattr(legch, module, None), name):\n"
        "        print(key)\n",
        *names,
    )
    assert missing == ""


def test_package_import_loads_no_submodule():
    loaded = run_python("import sys, legch\nprint(sorted(m for m in sys.modules if m.startswith('legch.')))")
    assert loaded == "[]\n"
