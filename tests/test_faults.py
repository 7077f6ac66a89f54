"""Every ``raise`` in ``src/legch`` runs under a deterministic test.

A line trace, scoped to the library's files, follows the fault tables, the
library's own argument checks and the golden transcript, and no ``@given``
test, so a fault path that only a drawn example reaches fails here.  The few
raises that only a child process reaches are listed with their reasons.
"""

import ast
import inspect
import sys
from itertools import product
from pathlib import Path

import pytest

import test_augment
import test_cli
import test_diagram
import test_fileio
import test_persist
import test_records

SRC = Path(__file__).resolve().parent.parent / "src" / "legch"

# A function, or one raise in it as ``ast.unparse`` prints it, that runs only in
# a child process, so no in-process trace sees it.
CHILD_PROCESS_ONLY = {
    "cli.main": "the console script's entry point",
    "__main__": "the body of ``python -m legch``",
    "cli.cli_dispatch: raise": "hands BrokenPipeError to ``main`` only when the process's own stdout is closed",
}

FAULT_TESTS = [
    # the CLI's fault tables and usage errors
    test_cli.test_single_fault_files_report_their_code,
    test_cli.test_unreadable_json_is_malformed,
    test_cli.test_missing_file_is_an_input_error,
    test_cli.test_every_subcommand_reports_usage_errors,
    test_cli.test_usage_errors_outside_a_command_print_the_top_level_usage,
    test_cli.test_search_bound_is_coded,
    # the parsers' rows
    test_fileio.test_the_first_of_two_faults_is_reported,
    test_fileio.test_barcode_faults_keep_their_messages_and_order,
    # the library's own argument checks
    test_augment.test_augmentation_validity_checks,
    test_augment.test_values_other_than_zero_and_one_are_reported,
    test_diagram.test_assign_heights_requires_success,
    test_fileio.test_decimal_rendering,
    test_fileio.test_render_unknown_format,
    test_persist.test_missing_height_rejected,
    test_records.test_fields_are_read_only,
    test_records.test_the_package_names_only_its_submodules,
    # every command on the corpus, a flood failure, an index past the last and a file without heights among them
    test_cli.test_cli_output_matches_the_golden_transcript,
]


def raises() -> list[tuple[str, str, range]]:
    """Each ``raise`` of ``src/legch``: its file, its place as the dotted name of
    the function or class it sits in (the module's at module level), a colon and
    the statement, and its lines."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")

        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Raise):
                    found.append((str(path), f"{where}: {ast.unparse(child)}", range(child.lineno, child.end_lineno + 1)))
                named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
                walk(child, f"{where}.{child.name}" if named else where)

        walk(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


def each_row(test, tmp_path):
    """Call ``test`` once for each row of its ``parametrize`` marks, each with a
    fresh ``monkeypatch`` if it asks for one."""
    axes = []
    for mark in getattr(test, "pytestmark", []):
        names = [name.strip() for name in mark.args[0].split(",")]
        rows = [row.values if isinstance(row, type(pytest.param())) else row if len(names) > 1 else (row,) for row in mark.args[1]]
        axes.append([dict(zip(names, row)) for row in rows])
    wants = inspect.signature(test).parameters
    for combo in product(*axes):
        with pytest.MonkeyPatch.context() as monkeypatch:
            fixtures = {"tmp_path": tmp_path, "monkeypatch": monkeypatch}
            test(**{k: v for k, v in fixtures.items() if k in wants}, **{k: v for row in combo for k, v in row.items()})


def test_every_raise_runs_under_a_deterministic_test(tmp_path):
    assert not any(hasattr(test, "hypothesis") for test in FAULT_TESTS)
    files = {str(path) for path in SRC.rglob("*.py")}
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        for test in FAULT_TESTS:
            each_row(test, tmp_path)
    finally:
        sys.settrace(previous)
    unreached = [
        where
        for path, where, lines in raises()
        if not any((path, n) in ran for n in lines)
        and where not in CHILD_PROCESS_ONLY
        and where.partition(":")[0] not in CHILD_PROCESS_ONLY
    ]
    assert unreached == []
