import copy
import io
import json
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch import augment, cli
from legch.algebra import StructureError
from legch.cli import cli_dispatch
from legch.fileio import MAX_NUMBER_DIGITS, load_knot, serialize_barcode_file

from support import (
    CONTROL_IN_OUTPUT,
    CONTROLS,
    CORPUS_NAMES,
    CRITERION_10_COMMANDS,
    FirstTorusOracle,
    bar_born_at,
    corpus_argv,
    corpus_file,
    gen,
    load_corpus,
    mutate,
    shift_pair,
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(corpus_file(name))


GOLDEN = Path(__file__).with_name("cli_golden.json")


def golden_commands() -> list[list[str]]:
    """Criterion 10's commands; per corpus knot ``validate``, ``augment``,
    ``flood`` and ``barcode --render svg``; then five commands at augmentation
    0, 2, the last index and one past it; last, ``barcode island --heights
    file``, whose file holds no heights."""
    commands = [list(c) for c in CRITERION_10_COMMANDS]
    for name in CORPUS_NAMES:
        commands += [["validate", name], ["augment", name], ["flood", name], ["barcode", name, "--render", "svg"]]
        last = len(augment.enumerate_augmentations(load_corpus(name).dga)) - 1
        for aug in sorted({0, 2, last, last + 1}):
            for extra in ([], ["--render", "text"], ["--heights", "flood"]):
                commands.append(["barcode", name, "--aug", str(aug), *extra])
            commands += [["linearize", name, "--aug", str(aug)], ["morse", name, "--aug", str(aug)]]
    return commands + [["barcode", "island", "--heights", "file"]]


def golden_transcript() -> dict[str, dict]:
    """Exit code, stdout and stderr of each golden command, keyed by the
    command with the knot's name in place of its path."""
    transcript = {}
    for command in golden_commands():
        code, out, err = run(*corpus_argv(command))
        transcript[" ".join(command)] = {"exit": code, "stdout": out, "stderr": err}
    return transcript


def test_cli_output_matches_the_golden_transcript():
    """Every golden command prints exactly what ``tests/cli_golden.json`` holds,
    from one parser that keeps nothing from a call: after a usage error, then
    in order, then in reverse order.

    A change that means to alter CLI output regenerates the file, from the
    repository root, with

        PYTHONPATH=src:tests python -c "import json, test_cli; \\
            test_cli.GOLDEN.write_text(json.dumps(test_cli.golden_transcript(), indent=1, sort_keys=True) + '\\n')"
    """
    code, out, err = run("barcode", path("trefoil"), "--aug", "2", "--render", "pdf")
    assert (code, out) == (1, "") and "invalid choice: 'pdf'" in err
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden_transcript() == golden
    for command in golden_commands()[::-1]:
        code, out, err = run(*corpus_argv(command))
        assert {"exit": code, "stdout": out, "stderr": err} == golden[" ".join(command)], command


def test_one_parser_serves_every_call_in_one_process():
    """The parser is built once per process, and a usage error on the same
    arguments just before a golden command changes nothing that command prints."""
    assert cli._build_parser() is cli._build_parser()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for command in golden_commands():
        code, out, err = run(*corpus_argv(command), "--no-such-option")
        assert (code, out) == (1, "") and "unrecognized arguments: --no-such-option" in err, command
        code, out, err = run(*corpus_argv(command))
        assert {"exit": code, "stdout": out, "stderr": err} == golden[" ".join(command)], command


NOT_JSON = "[MALFORMED_JSON] not valid JSON: "
BOM = NOT_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
TOO_LONG = NOT_JSON + f"number literal has more than {MAX_NUMBER_DIGITS} digits"
KNOT_HEAD = b'{"generators": [{"name": "q", "grading": 1}], "differential": {"q": []}, "patches": [], '


@pytest.mark.parametrize(
    "payload, command, stderr",
    [
        (b"\xff\xfe{", "validate", NOT_JSON + "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"\xff\xfe{", "distance", NOT_JSON + "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 100000 + b"]" * 100000, "validate", NOT_JSON + "nested too deeply"),
        (b"[" * 100000 + b"]" * 100000, "distance", NOT_JSON + "nested too deeply"),
        (b"{ not json", "validate", NOT_JSON + "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"),
        (b"nope", "distance", NOT_JSON + "Expecting value: line 1 column 1 (char 0)"),
        (b"[]", "validate", "[BAD_SCHEMA] top level must be a JSON object"),
        (b"\xef\xbb\xbf" + corpus_file("trefoil").read_bytes(), "validate", BOM),
        (b'\xef\xbb\xbf{"bars": []}', "distance", BOM),
        (KNOT_HEAD + b'"heights": {"q": 1e30000000}}', "validate", TOO_LONG),
        (KNOT_HEAD + b'"heights": {"q": 1e-30000000}}', "validate", TOO_LONG),
        (KNOT_HEAD + b'"heights": {"q": 1e3000000}}', "barcode", TOO_LONG),
        (KNOT_HEAD + b'"heights": {"q": 1' + b"0" * 5000 + b"}}", "validate", TOO_LONG),
        (bar_born_at("1" + "0" * 5000), "distance", TOO_LONG),
        (bar_born_at("1e30000000"), "distance", TOO_LONG),
        (bar_born_at("0." + "0" * (MAX_NUMBER_DIGITS - 1) + "1"), "distance", TOO_LONG),
        (bar_born_at("-" + "1" * MAX_NUMBER_DIGITS + ".0"), "distance", TOO_LONG),
        (bar_born_at("1" * (MAX_NUMBER_DIGITS - 1) + "e02"), "distance", TOO_LONG),
        (bar_born_at(f"0.0e-{MAX_NUMBER_DIGITS - 1}"), "distance", TOO_LONG),
        (bar_born_at(f"5E+{MAX_NUMBER_DIGITS}"), "distance", TOO_LONG),
    ],
    ids=[
        "validate-invalid_utf8", "distance-invalid_utf8", "validate-deeply_nested", "distance-deeply_nested",
        "validate-not_json", "distance-not_json", "validate-top_level_array",
        "validate-byte_order_mark", "distance-byte_order_mark",
        "validate-huge_exponent", "validate-huge_negative_exponent", "barcode-big_exponent", "validate-long_int",
        "distance-long_int", "distance-huge_exponent", "distance-long_fraction", "distance-long_negative",
        "distance-long_leading_zero_exponent", "distance-long_zero", "distance-long_signed_exponent",
    ],
)
def test_unreadable_json_is_malformed(tmp_path, payload, command, stderr):
    # Files that hold no knot or barcode object, or a number past the digit
    # bound; validate and barcode read a knot file, distance two barcode files.
    # Each is refused in well under a second.
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    start = time.perf_counter()
    result = run(command, *[str(bad)] * (2 if command == "distance" else 1))
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", f"error: {stderr}\n")


# One fault per file, each on top of this valid knot file.
GOOD_KNOT = {
    "generators": [{"name": "q", "grading": 1}, {"name": "p", "grading": 0}],
    "differential": {"q": [["p"]], "p": []},
    "patches": [[{"name": "q", "coeff": 1}], [{"name": "q", "coeff": 1}, {"name": "p", "coeff": -1}]],
    "heights": {"q": 2, "p": 1},
}
HEIGHT_ORDER = "generator p appears in d(q) but does not sit strictly below it; these heights are invalid for this differential"
SINGLE_FAULTS = {
    "surrogate_name": (  # a lone surrogate, from JSON's "\ud800" escape
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"\\ud800"'))),
        "augment",
        "[BAD_SCHEMA] generators[1].name is not valid Unicode",
    ),
    "control_character_name": (  # a terminal escape and a line break
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"p\\u001b[2J\\nX"'))),
        "augment",
        "[BAD_SCHEMA] generators[1].name has a control character",
    ),
    "noncharacter_name": (  # XML 1.0 excludes U+FFFE and U+FFFF, so an SVG label could not hold it
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"p\\ufffe"'))),
        "barcode",
        "[BAD_SCHEMA] generators[1].name has U+FFFE or U+FFFF, which XML excludes",
    ),
    "bidirectional_control_name": (  # a right-to-left override would reverse the rest of a printed line
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"p\\u202e"'))),
        "augment",
        "[BAD_SCHEMA] generators[1].name has a line separator or a bidirectional control",
    ),
    "format_character_name": (  # a zero-width space would make "p" and "p\u200b" print alike
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"p\\u200b"'))),
        "augment",
        "[BAD_SCHEMA] generators[1].name has an invisible format character",
    ),
    "plus_in_name": (  # bar labels join names with '+', so a sum must not look like a name
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"a+b"'))),
        "validate",
        "[BAD_SCHEMA] generators[1].name contains '+'",
    ),
    "whitespace_in_name": (  # the CLI joins names with spaces, so "p q" would print as two names
        lambda k: k.update(json.loads(json.dumps(k).replace('"p"', '"p q"'))),
        "flood",
        "[BAD_SCHEMA] generators[1].name contains whitespace",
    ),
    "empty_name": (
        lambda k: k["generators"][1].update(name=""),
        "validate",
        "[BAD_SCHEMA] generators[1].name must be a nonempty string",
    ),
    "grading_not_integer": (
        lambda k: k["generators"][1].update(grading=0.5),
        "validate",
        "[BAD_SCHEMA] generators[1].grading must be an integer",
    ),
    "generators_not_array": (
        lambda k: k.update(generators={}),
        "validate",
        "[BAD_SCHEMA] 'generators' must be an array",
    ),
    "differential_not_object": (
        lambda k: k.update(differential=[]),
        "validate",
        "[BAD_SCHEMA] 'differential' must be an object",
    ),
    "patches_not_array": (lambda k: k.update(patches={}), "validate", "[BAD_SCHEMA] 'patches' must be an array"),
    "missing_patches": (lambda k: k.pop("patches"), "validate", "[BAD_SCHEMA] missing required key 'patches'"),
    "heights_not_object": (lambda k: k.update(heights=[]), "validate", "[BAD_SCHEMA] 'heights' must be an object"),
    "ng_resolved_not_boolean": (
        lambda k: k.update(ng_resolved=1),
        "validate",
        "[BAD_SCHEMA] 'ng_resolved' must be a boolean",
    ),
    "meta_not_object": (lambda k: k.update(meta=[]), "validate", "[BAD_SCHEMA] 'meta' must be an object"),
    "unknown_top_level_key": (lambda k: k.update(zz=1), "validate", "[BAD_SCHEMA] unknown top-level key 'zz'"),
    "duplicate_name": (
        lambda k: k["generators"].append({"name": "p", "grading": 0}),
        "validate",
        "[DUPLICATE_NAME] generator name 'p' appears twice",
    ),
    "unknown_differential_key": (
        lambda k: k["differential"].update(zz=[]),
        "validate",
        "[UNKNOWN_GENERATOR] differential key 'zz' is not a generator",
    ),
    "unknown_heights_key": (
        lambda k: k["heights"].update(zz=1),
        "validate",
        "[UNKNOWN_GENERATOR] heights key 'zz' is not a generator",
    ),
    "unknown_heights_key_before_missing_height": (
        lambda k: (k["heights"].pop("p"), k["heights"].update(zz=1)),
        "validate",
        "[UNKNOWN_GENERATOR] heights key 'zz' is not a generator",
    ),
    "string_height": (lambda k: k["heights"].update(p="1"), "validate", "[BAD_HEIGHT] height of 'p' must be a number"),
    "boolean_height": (lambda k: k["heights"].update(p=True), "validate", "[BAD_HEIGHT] height of 'p' must be a number"),
    "zero_height": (lambda k: k["heights"].update(p=0), "validate", "[BAD_HEIGHT] height of 'p' must be positive, got 0"),
    "negative_height": (
        lambda k: k["heights"].update(p=-1.5),
        "validate",
        "[BAD_HEIGHT] height of 'p' must be positive, got -3/2",
    ),
    "missing_height": (lambda k: k["heights"].pop("p"), "validate", "[BAD_HEIGHT] missing height for generator 'p'"),
    "missing_differential": (
        lambda k: k["differential"].pop("p"),
        "validate",
        "[BAD_SCHEMA] missing differential for generator 'p'",
    ),
    "unknown_letter": (
        lambda k: k["differential"].update(q=[["zz"]]),
        "validate",
        "[UNKNOWN_GENERATOR] differential['q'] uses unknown generator 'zz'",
    ),
    "bad_word_shape": (
        lambda k: k["differential"].update(q=["p"]),
        "validate",
        "[BAD_SCHEMA] differential['q'] words must be arrays of generator names",
    ),
    "patch_not_array": (lambda k: k["patches"].append({}), "validate", "[BAD_SCHEMA] patches[2] must be an array of corners"),
    "corner_not_object": (
        lambda k: k["patches"][0].append(["q", 1]),
        "validate",
        "[BAD_SCHEMA] patches[0] corners must be objects with keys 'name' and 'coeff'",
    ),
    "unknown_patch_corner": (
        lambda k: k["patches"].append([{"name": "zz", "coeff": 1}]),
        "validate",
        "[UNKNOWN_GENERATOR] patches[2] uses unknown generator 'zz'",
    ),
    "non_string_patch_corner": (
        lambda k: k["patches"][0][0].update(name=3),
        "validate",
        "[BAD_SCHEMA] patches[0] corner names must be strings",
    ),
    "patch_coefficient_not_integer": (
        lambda k: k["patches"][0][0].update(coeff=1.5),
        "validate",
        "[BAD_SCHEMA] patches[0] coefficient for 'q' must be an integer",
    ),
    "patch_coefficient_3": (
        lambda k: k["patches"][0][0].update(coeff=3),
        "validate",
        "[BAD_PATCH] patches[0] coefficient 3 for 'q' is not in {-2,-1,1,2}",
    ),
    "patch_coefficient_0": (
        lambda k: k["patches"][1][1].update(coeff=0),
        "validate",
        "[BAD_PATCH] patches[1] coefficient 0 for 'p' is not in {-2,-1,1,2}",
    ),
    "repeated_patch_corner": (
        lambda k: k["patches"][1].append({"name": "q", "coeff": -1}),
        "validate",
        "[BAD_PATCH] patches[1] uses 'q' twice",
    ),
    "empty_patch": (lambda k: k["patches"].append([]), "flood", "[BAD_PATCH] patches[2] has no corners"),
    "grading_violation": (
        lambda k: k["generators"][0].update(grading=2),
        "validate",
        "[GRADING_VIOLATION] word p in d(q) has grading 0, expected 1",
    ),
    "d_squared_nonzero": (
        lambda k: (
            k["generators"].append({"name": "r", "grading": 2}),
            k["differential"].update(r=[["q"]]),
            k["heights"].update(r=3),
        ),
        "validate",
        "[D_SQUARED_NONZERO] d(d(r)) = p is nonzero",
    ),
    "no_augmentation": (
        lambda k: k["differential"].update(q=[[]]),
        "linearize",
        "[NO_AUGMENTATION] this differential admits no augmentation",
    ),
    "bad_height_barcode": (lambda k: k["heights"].update(p=2), "barcode", "[BAD_HEIGHT] " + HEIGHT_ORDER),
    "bad_height_morse": (lambda k: k["heights"].update(p=2), "morse", "[BAD_HEIGHT] " + HEIGHT_ORDER),
}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_single_fault_files_report_their_code(tmp_path, fault):
    mutate, command, message = SINGLE_FAULTS[fault]
    knot = copy.deepcopy(GOOD_KNOT)
    mutate(knot)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(knot))
    assert run(command, str(bad)) == (1, "", f"error: {message}\n")


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_is_reported_without_a_traceback():
    err = io.StringIO()
    assert cli_dispatch(["validate", path("trefoil")], stdout=_ClosedPipe(), stderr=err) == 1
    assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command, first", [("augment", b"augmentations: 87381\n"), ("validate", b"")])
def test_a_reader_that_closes_stdout_early_gets_no_report(tmp_path, command, first):
    # T(2,17)'s 9 MB listing, far more than a pipe holds, breaks the pipe in
    # mid-stream once the reader has taken its first line; validate's one
    # line, held in the buffer, breaks it at the flush before exit, as the
    # reader closes the pipe before the process starts.  Stdout is buffered,
    # as it is by default.
    knot = tmp_path / "torus_2_17.json"
    knot.write_bytes(gen.torus_bytes(17))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "legch", command, str(knot)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        read = proc.stdout.readline() if first else b""
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, read, err) == (1, first, b"")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "trefoil"], 0),
        (["augment", "trefoil"], 0),
        (["linearize", "trefoil", "--aug", "2"], 0),
        (["flood", "trefoil"], 0),
        (["flood", "island"], 2),
        (["barcode", "trefoil", "--aug", "2"], 0),
        (["barcode", "trefoil", "--aug", "2", "--render", "text"], 0),
        (["barcode", "trefoil", "--aug", "2", "--render", "svg"], 0),
        (["distance", "bars", "bars"], 0),
        (["morse", "trefoil"], 0),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit {value}",
)
def test_a_process_without_stdout_exits_as_with_one(tmp_path, argv, code):
    # The child starts with fd 1 closed, so sys.stdout is None: every command
    # writes nothing, reports nothing and exits as it does with stdout open.
    bars = tmp_path / "bars.json"
    bars.write_text(run("barcode", path("trefoil"), "--aug", "2")[1])
    argv = [str(bars) if a == "bars" else path(a) if a in CORPUS_NAMES else a for a in argv]
    assert run(*argv)[0] == code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "legch", *argv], stderr=subprocess.PIPE, env=env, preexec_fn=lambda: os.close(1)
    )
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_rendering_into_a_closed_stream_is_reported_without_a_traceback(monkeypatch):
    # A closed stream's isatty raises ValueError, so text is plain; the write then fails.
    monkeypatch.delenv("LEGCH_COLOR", raising=False)
    out, err = io.StringIO(), io.StringIO()
    out.close()
    assert cli_dispatch(["barcode", path("trefoil"), "--render", "text"], stdout=out, stderr=err) == 1
    assert err.getvalue() == "error: I/O operation on closed file\n"


def test_fault_table_base_file_is_valid(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_KNOT))
    assert run("validate", str(good)) == (0, "OK: 2 generators, 2 patches, heights present\n", "")
    assert run("morse", str(good))[0] == 0


def test_svg_renders_heights_beyond_float_range(tmp_path):
    # 1e400 has no float; the text rendering never needed one.
    big = tmp_path / "big.json"
    big.write_bytes(KNOT_HEAD + b'"heights": {"q": 1e400}}')
    code, out, err = run("barcode", str(big), "--render", "svg")
    assert (code, err) == (0, "")
    assert out.startswith("<svg") and out.endswith("</svg>\n")
    assert ">1" + "0" * 400 + "</text>" in out


def test_missing_file_is_an_input_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    expected = f"error: [UNREADABLE_FILE] [Errno 2] No such file or directory: {missing!r}\n"
    # validate reads a knot file, distance two barcode files.
    assert run("validate", missing) == (1, "", expected)
    assert run("distance", missing, missing) == (1, "", expected)
    code, out, err = run("validate", str(tmp_path))  # a directory
    assert (code, out) == (1, "")
    assert err.startswith("error: [UNREADABLE_FILE] [Errno ")


def test_d_squared_message_is_bounded(tmp_path):
    # d(d(a)) has 4000 words of 100 to 139 letters, about 490 KB in print;
    # the message names the first 8 and counts the rest.
    knot = {
        "generators": [{"name": "a", "grading": 1}, {"name": "b", "grading": 0}, {"name": "e", "grading": -1}],
        "differential": {"a": [["b"] * 100], "b": [["b"] * i + ["e"] for i in range(40)], "e": []},
        "patches": [],
    }
    long_words = tmp_path / "long_words.json"
    long_words.write_text(json.dumps(knot))
    code, out, err = run("validate", str(long_words))
    assert (code, out) == (1, "")
    assert err.startswith("error: [D_SQUARED_NONZERO] d(d(a)) = ")
    assert re.search(r" \+ \d+ more words is nonzero\n$", err)
    assert len(err) < 2048


def knot_file_of(tmp_path, generators) -> str:
    """A knot file of (name, grading) generators with zero differentials."""
    knot = {
        "generators": [{"name": name, "grading": grading} for name, grading in generators],
        "differential": {name: [] for name, _ in generators},
        "patches": [],
    }
    file = tmp_path / "knot.json"
    file.write_text(json.dumps(knot))
    return str(file)


def free_knot_file(tmp_path, k: int) -> str:
    """A knot file of k grading-0 generators with zero differentials."""
    return knot_file_of(tmp_path, [(f"g{i}", 0) for i in range(k)])


def test_search_bound_is_coded(tmp_path, monkeypatch):
    # Six free grading-0 generators share one state per depth, seven in all,
    # each with no live polynomial: a pick is charged 7, and the listing 7 + 2^6.
    free = free_knot_file(tmp_path, 6)
    picks = (["linearize", "--aug", "0"], ["morse", "--aug", "0"])
    for bound, refused in ((2**6 - 1, (["augment"],)), (6, (["augment"], *picks))):
        monkeypatch.setattr(augment, "MAX_SEARCH_NODES", bound)
        message = f"augmentation search exceeds the bound of {bound} search nodes (6 grading-0 generators)"
        for argv in (["augment"], *picks):
            code, out, err = run(argv[0], free, *argv[1:])
            if argv in refused:
                assert (code, out, err) == (1, "", f"error: [SEARCH_BOUND] {message}\n")
            else:
                assert (code, err) == (0, "") and out, argv


def test_search_bound_on_a_deep_search_is_coded(tmp_path):
    # 1200 free generators take 1201 states, one per depth: a pick answers,
    # and the listing of 2^1200 is refused before it lists any.  The pick
    # costs 1378 (see test_search_bound_charges_the_bits_of_the_counts).
    free = free_knot_file(tmp_path, 1200)
    dga = load_knot(free).dga
    assert augment.pick_augmentation(dga, 2**1200 - 1) == (augment.Augmentation((1,) * 1200), 2**1200)
    with pytest.raises(StructureError, match=r"\(1200 grading-0 generators\)") as exc:
        augment.enumerate_augmentations(dga)
    assert exc.value.code == augment.SEARCH_BOUND
    code, out, err = run("augment", free)
    assert (code, out) == (1, "")
    assert err.startswith("error: [SEARCH_BOUND] augmentation search exceeds the bound of ")


def test_a_pick_substitutes_once_per_search_state(tmp_path, monkeypatch):
    # Nothing prunes on T(2,13), so its search tree has 2^14 - 1 nodes, but
    # only 3n - 2 = 37 distinct states.  A pick and a listing both build the
    # state graph once, substituting twice into each state above the leaf.
    calls = []
    fix = augment._fix

    def counted(*args):
        calls.append(None)
        return fix(*args)

    monkeypatch.setattr(augment, "_fix", counted)
    knot = tmp_path / "torus_2_13.json"
    knot.write_bytes(gen.torus_bytes(13))
    for argv, head in ((["linearize", "--aug", "4000"], "d(a1) = "), (["augment"], "augmentations: 5461\n")):
        calls.clear()
        code, out, _ = run(argv[0], str(knot), *argv[1:])
        assert code == 0 and out.startswith(head)
        assert len(calls) == 2 * (3 * 13 - 3)


@pytest.mark.parametrize("n", [19, 21])
def test_morse_on_a_large_torus_knot_picks_from_the_state_graph(tmp_path, n):
    # T(2,n) has 3n - 2 search states, though its unpruned search tree has
    # 2^(n+1) - 1 nodes, more than MAX_SEARCH_NODES from n = 17 on.
    assert FirstTorusOracle(9).augs == gen.TorusOracle(9).augs[:1]
    knot = tmp_path / f"torus_2_{n}.json"
    knot.write_bytes(gen.torus_bytes(n))
    start = time.perf_counter()
    result = run("morse", str(knot), "--aug", "0")
    elapsed = time.perf_counter() - start
    assert result == (0, FirstTorusOracle(n).morse(0), "")
    assert elapsed < 1.0, f"T(2,{n}) took {elapsed:.2f} s"


@pytest.mark.parametrize("n", range(3, 16))
def test_augment_listing_matches_the_torus_oracle(tmp_path, n):
    knot = tmp_path / f"torus_2_{n}.json"
    knot.write_bytes(gen.torus_bytes(n))
    assert run("augment", str(knot)) == (0, gen.TorusOracle(n).augment(), "")


class _Writes(list):
    """A stdout that keeps each write apart."""

    def write(self, text):
        self.append(text)
        return len(text)


def test_augment_streams_its_listing_from_one_state_graph(tmp_path, monkeypatch):
    # T(2,17)'s 87,381 lines take 9.1 MB; no write may hold more than 1 MB of them.
    n = 17
    knot = tmp_path / f"torus_2_{n}.json"
    knot.write_bytes(gen.torus_bytes(n))
    graphs = []
    state_graph = augment._state_graph
    monkeypatch.setattr(augment, "_state_graph", lambda dga: graphs.append(None) or state_graph(dga))
    out, err = _Writes(), io.StringIO()
    assert (cli_dispatch(["augment", str(knot)], stdout=out, stderr=err), err.getvalue()) == (0, "")
    assert len(graphs) == 1
    assert max(map(len, out)) <= 1 << 20
    lines = "".join(out).splitlines()
    count = gen.count_augmentations(n)
    assert (lines[0], len(lines)) == (f"augmentations: {count}", count + 1)
    first, last = (next(bits for bits in product(order, repeat=n) if gen.continuant_bit(bits)) for order in ((0, 1), (1, 0)))
    for i, line, bits in ((0, lines[1], first), (count - 1, lines[-1], last)):
        assert line == f"aug {i}: " + " ".join(f"b{j}={v}" for j, v in enumerate(bits, start=1))


@pytest.mark.parametrize(
    "generators",
    [
        [("a", 1), ("b", 2)],
        [("a", 1), ("x", 0)],
        [("x", 0), ("a", 1)],
        [("{0}", 0), ("a", 1), ("}{", 0), ("{1[0]}", 0)],
    ],
)
def test_augment_listing_with_few_or_braced_grading_0_generators(tmp_path, generators):
    # No grading-0 generator leaves "aug 0:" with no trailing space; braces in
    # a name are printed as they are.
    names = [name for name, grading in generators if grading == 0]
    want = [f"augmentations: {2 ** len(names)}"] + [
        f"aug {i}: {' '.join(f'{n}={v}' for n, v in zip(names, bits))}".rstrip()
        for i, bits in enumerate(product((0, 1), repeat=len(names)))
    ]
    code, out, err = run("augment", knot_file_of(tmp_path, generators))
    assert (code, err) == (0, "")
    assert out == "\n".join(want) + "\n"


def test_svg_labels_are_escaped(tmp_path):
    knot = tmp_path / "knot.json"
    knot.write_text(corpus_file("trefoil").read_text(encoding="utf-8").replace('"q3"', '"<b>&"'))
    code, out, err = run("barcode", str(knot), "--aug", "2", "--render", "svg")
    assert (code, err) == (0, "")
    labels = [t.text for t in ET.fromstring(out).iter("{http://www.w3.org/2000/svg}text")]
    assert "H0 <b>&+q5" in labels and "q1" in labels


def test_text_rendering_is_bold_on_a_terminal_unless_legch_color_is_0(monkeypatch):
    tty = io.StringIO()
    tty.isatty = lambda: True
    argv = ["barcode", path("unknot"), "--render", "text"]
    monkeypatch.delenv("LEGCH_COLOR", raising=False)
    assert cli_dispatch(argv, stdout=tty) == 0
    monkeypatch.setenv("LEGCH_COLOR", "0")
    assert cli_dispatch(argv, stdout=tty) == 0
    assert tty.getvalue() == "# bars: 1\n\x1b[1mH1\x1b[0m  [1, inf)  q\n# bars: 1\nH1  [1, inf)  q\n"


def test_distance_of_barcode_with_itself(tmp_path):
    _, barcode_json, _ = run("barcode", path("trefoil"), "--aug", "2")
    f = tmp_path / "b.json"
    f.write_text(barcode_json)
    code, out, _ = run("distance", str(f), str(f))
    assert code == 0
    assert out == "0\n"


def test_distance_trefoil_to_slid_trefoil(tmp_path):
    _, b1, _ = run("barcode", path("trefoil"), "--aug", "2")
    _, b2, _ = run("barcode", path("trefoil_rii"), "--aug", "2")
    f1, f2 = tmp_path / "b1.json", tmp_path / "b2.json"
    f1.write_text(b1)
    f2.write_text(b2)
    code, out, _ = run("distance", str(f1), str(f2))
    assert code == 0
    assert out == "0.15\n"


def _frames_below() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_distance_needs_no_recursion_depth(tmp_path):
    # 600 bars in one degree: the matching's augmenting paths grow long, and
    # they must not spend interpreter frames.
    files = []
    for side, barcode in zip("ab", shift_pair(Random(600), 600, Fraction(3, 4))):
        files.append(tmp_path / f"{side}.json")
        files[-1].write_bytes(serialize_barcode_file(barcode))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_below() + 100)
    try:
        code, out, err = run("distance", *map(str, files))
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == (0, "0.75\n", "")


def test_distance_prints_results_longer_than_the_int_str_limit(tmp_path):
    # Half of 1e3999 - 1e-3999 has 8000 digits, past Python's 4300-digit
    # limit on converting an int to str.
    long_bar, empty = tmp_path / "a.json", tmp_path / "b.json"
    long_bar.write_text('{"bars": [{"degree": 0, "birth": 1e-3999, "death": 1e3999}]}')
    empty.write_text('{"bars": []}')
    code, out, err = run("distance", str(long_bar), str(empty))
    assert (code, err) == (0, "")
    assert out == "4" + "9" * 3998 + "." + "9" * 3999 + "5\n"


USAGE_ERRORS = [
    pytest.param([command, *argv], id=f"{command}-{case}")
    for command, positionals, takes_aug in [
        ("validate", ["k.json"], False),
        ("augment", ["k.json"], False),
        ("linearize", ["k.json"], True),
        ("flood", ["k.json"], False),
        ("barcode", ["k.json"], True),
        ("distance", ["a.json", "b.json"], False),
        ("morse", ["k.json"], True),
    ]
    for case, argv in [
        ("missing positional", positionals[:-1]),
        ("unknown option", [*positionals, "--bogus"]),
        *([("aug z", [*positionals, "--aug", "z"])] if takes_aug else []),
    ]
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_every_subcommand_reports_usage_errors(argv):
    """The usage line is the subcommand's, also for an unknown option, which
    argparse reports from the top-level parser."""
    code, out, err = run(*argv)
    lines = err.splitlines()
    assert (code, out) == (1, "")
    assert lines[0].startswith(f"usage: legch {argv[0]} ") and lines[-1].startswith("error: "), err


@pytest.mark.parametrize(
    "argv, error",
    [
        ([], None),
        (["frobnicate"], "error: argument command: invalid choice: 'frobnicate'"),
        (["--bogus"], "error: unrecognized arguments: --bogus"),
        (["--bogus", "validate", "k.json"], "error: unrecognized arguments: --bogus"),
    ],
    ids=["no command", "unknown command", "top-level option", "top-level option before a command"],
)
def test_usage_errors_outside_a_command_print_the_top_level_usage(argv, error):
    code, out, err = run(*argv)
    lines = err.splitlines()
    assert (code, out) == (1, "")
    assert lines[0] == "usage: legch [-h] command ...", err
    assert lines[-1].startswith(error) if error else len(lines) == 1, err


def test_help_exits_zero():
    code, out, _ = run("--help")
    assert code == 0


def test_output_is_byte_identical_across_processes():
    argv = [sys.executable, "-m", "legch", "barcode", path("trefoil"), "--aug", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout
    json.loads(first.stdout)


NAMES = st.text(st.sampled_from(["a", "b", "é", "<", "&"]), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS_NAMES), st.data())
def test_every_command_fails_cleanly_on_mutated_knot_files(tmp_path_factory, name, data):
    """A corpus knot with drawn generator names and at most one mutation, through
    all seven commands: no exception, exit 0, 1 or 2, UTF-8 output with no control
    character but line breaks, SVG that parses and a code on every error line; only
    a failed strong Morse check exits 1 silently."""
    old = [g.name for g in load_corpus(name).dga.generators]
    names = data.draw(st.lists(NAMES, min_size=len(old), max_size=len(old), unique=True))
    if data.draw(st.integers(0, 3)) == 0:  # a lone surrogate, which UTF-8 cannot hold
        names[data.draw(st.integers(0, len(old) - 1))] += "\ud800"
    if data.draw(st.integers(0, 3)) == 0:  # a control character, which a terminal obeys, U+FFFF or whitespace
        names[data.draw(st.integers(0, len(old) - 1))] += data.draw(st.sampled_from([*CONTROLS, " ", "\xa0", "\u3000"]))
    new = dict(zip(old, map(json.dumps, names)))  # every quoted name, keys and letters too
    text = re.sub(r'"(\w+)"', lambda m: new.get(m.group(1), m.group(0)), corpus_file(name).read_text())
    doc = json.loads(text)
    mutate(doc, data, data.draw(st.integers(0, 1)), letters=st.sampled_from(names))
    folder = tmp_path_factory.mktemp("cli_fuzz")
    knot, bars = str(folder / "knot.json"), str(folder / "bars.json")
    Path(knot).write_text(json.dumps(doc))
    aug = str(data.draw(st.integers(-1, 5)))
    heights = data.draw(st.sampled_from([[], ["--heights", "file"], ["--heights", "flood"]]))
    render = data.draw(st.sampled_from([[], ["--render", "text"], ["--render", "svg"]]))
    commands = [
        ["validate", knot], ["augment", knot], ["linearize", knot, "--aug", aug], ["flood", knot],
        ["barcode", knot, "--aug", aug, *heights, *render],
        ["distance", bars, bars],  # on the barcode command's output
        ["morse", knot, "--aug", aug],
    ]
    for argv in commands:
        code, out, err = run(*argv)
        out.encode("utf-8"), err.encode("utf-8")  # raises on a lone surrogate
        assert code in (0, 1, 2)
        assert not CONTROL_IN_OUTPUT.search(out), out
        if code != 1:
            assert err == ""
        elif not err:
            assert argv[0] == "morse" and out.endswith("strong Morse identity: FAILS\n")
        for line in err.splitlines():
            assert not line.startswith("error:") or re.match(r"error: \[[A-Z_]+\] ", line), line
        if argv[0] == "barcode":
            Path(bars).write_text(out, encoding="utf-8")
            if code == 0 and render == ["--render", "svg"]:
                ET.fromstring(out)
