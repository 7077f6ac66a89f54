"""The benchmark harness reaches legch through module attributes
(``lg.fileio.parse_knot_file``, ...) after importing only ``legch.cli`` and
``legch.corpus``, and its traced run reads attributes of the arguments and
results of those functions.  These tests pin that contract; they read
``perfbench/`` and never run the benchmark.  The last test keeps the library
to what the CLI and ``perfbench/`` use.
"""

import ast
import importlib
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from support import corpus_file, perfbench_module

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
    """``import legch`` loads no submodule, and ``legch.metrics`` loads metrics and what it imports."""
    loaded = run_python(
        "import sys, legch\n"
        "print(sorted(m for m in sys.modules if m.startswith('legch.')))\n"
        "legch.metrics.interleaving_distance\n"
        "print(sorted(m for m in sys.modules if m.startswith('legch.')))\n"
    )
    assert loaded == "[]\n['legch.algebra', 'legch.augment', 'legch.metrics', 'legch.persist']\n"


def test_one_distance_command_loads_every_traced_module(tmp_path):
    """The traced run reads ``sys.modules["legch.<module>"]`` for each
    ``COUNTERS`` key after the untraced passes, and ``bottleneck`` runs only
    ``legch distance``: that command must load every traced module."""
    bars = tmp_path / "bars.json"
    bars.write_text('{"bars": [{"degree": 0, "birth": 1, "death": 2}]}')
    missing = run_python(
        "import io, sys, legch.cli, legch.corpus\n"
        "assert legch.cli.cli_dispatch(['distance', sys.argv[1], sys.argv[1]], io.StringIO(), io.StringIO()) == 0\n"
        "for key in sys.argv[2:]:\n"
        "    if 'legch.' + key.split('.')[0] not in sys.modules:\n"
        "        print(key)\n",
        str(bars),
        *traced_names(),
    )
    assert missing == ""


def test_traced_counters_read_attributes_the_library_has():
    """Evaluate every ``COUNTERS`` lambda on the arguments and result of its
    function, over one pass of the trefoil through the pipeline."""
    spans = perfbench_module("spans")
    called, counted = set(), {}

    def call(name, *args):
        module, function = name.split(".")
        result = getattr(importlib.import_module(f"legch.{module}"), function)(*args)
        on_args, on_result = spans.COUNTERS[name]
        for counters in (on_args and on_args(args), on_result and on_result(result)):
            for key, value in (counters or {}).items():
                assert isinstance(value, int) and value >= 0, (name, key, value)
                counted[f"{name}.{key}"] = value
        called.add(name)
        return result

    path = corpus_file("trefoil")
    kd = call("fileio.parse_knot_file", path.read_bytes())
    call("algebra.validate_dga", kd.dga)
    eps = call("augment.enumerate_augmentations", kd.dga)[2]
    lin = call("augment.linearized_differential", kd.dga, eps)
    inequalities = importlib.import_module("legch.diagram").area_inequalities(kd.diagram)
    tiering = call("diagram.flood", inequalities, kd.diagram.crossings)
    call("diagram.assign_heights", tiering)
    barcode = call("persist.compute_barcode", call("persist.build_filtered_complex", lin, kd.heights))
    data = call("fileio.serialize_barcode_file", barcode)
    call("fileio.render_barcode", barcode, "text")
    call("metrics.interleaving_distance", call("fileio.parse_barcode_file", data), barcode)
    call("metrics.check_strong_morse", kd.dga, barcode)
    call("cli.cli_dispatch", ["validate", str(path)], io.StringIO(), io.StringIO())

    assert called == set(traced_names())
    assert counted["algebra.validate_dga.words"] == 8
    assert counted["augment.enumerate_augmentations.found"] == 5
    assert counted["persist.compute_barcode.bars_finite"] == 1
    assert counted["metrics.check_strong_morse.fails"] == 0
    assert counted["cli.cli_dispatch.nonzero_exits"] == 0


def test_distance_reads_both_files_through_the_module_attribute(monkeypatch, tmp_path):
    """The traced run rebinds ``legch.fileio.parse_barcode_file``; ``legch
    distance`` must reach it there, once per file, for its span to count."""
    fileio = importlib.import_module("legch.fileio")
    cli = importlib.import_module("legch.cli")
    parse, read = fileio.parse_barcode_file, []

    def counted(data):
        read.append(data)
        return parse(data)

    monkeypatch.setattr(fileio, "parse_barcode_file", counted)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, death in zip(paths, ("2", "2.5")):
        path.write_text('{"bars": [{"degree": 0, "birth": 1, "death": %s}]}' % death)
    out, err = io.StringIO(), io.StringIO()
    assert cli.cli_dispatch(["distance", *map(str, paths)], out, err) == 0
    assert (out.getvalue(), err.getvalue()) == ("0.5\n", "")
    assert read == [path.read_bytes() for path in paths]


def defined_names(body: list[ast.stmt]) -> list[str]:
    """The names that the functions, classes and assignments of ``body`` define."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def read_names(tree: ast.AST) -> Counter:
    """How often code reads each name: as a loaded name, an attribute read, an
    imported name or a keyword argument, also in an f-string's fields.  Words in
    docstrings, comments and other strings do not count, nor do definitions."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.alias):
            reads.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            reads[node.arg] += 1
    return reads


def test_every_public_library_name_has_a_program_caller():
    """Each public module-level function, class and constant of ``src/legch``,
    and each public method, property and field of its public classes, is read by
    code in ``src/legch`` or ``perfbench/``.  What only tests use belongs in
    ``tests/support.py``."""
    reads = Counter()
    for folder in ("src/legch", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads += read_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted((ROOT / "src" / "legch").rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8")).body
        names = [(name, name) for name in defined_names(module)]
        for node in module:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names += [(f"{node.name}.{member}", member) for member in defined_names(node.body)]
        unused += [label for label, name in names if not name.startswith("_") and not reads[name]]
    assert unused == []
