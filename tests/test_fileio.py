import io
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import StructureError
from legch.cli import cli_dispatch
from legch.fileio import (
    BAD_SCHEMA,
    INVALID_BAR,
    MALFORMED_JSON,
    MAX_NUMBER_DIGITS,
    KnotData,
    decimal_str,
    format_extended,
    parse_barcode_file,
    parse_knot_file,
    render_barcode,
    serialize_barcode_file,
)
from legch.persist import Bar, Barcode

from support import (
    CONTROL_IN_OUTPUT,
    CONTROLS,
    CORPUS_NAMES,
    LETTERS,
    LINE_AND_BIDI,
    VALUES,
    bar_born_at,
    barcode_of,
    corpus_file,
    differential_per_letter,
    gid_of,
    load_corpus,
    mutate,
    slots,
    trefoil_after_rii,
)

UNKNOT = load_corpus("unknot")
TREFOIL = load_corpus("trefoil")


# --- numbers -----------------------------------------------------------------

def test_decimal_rendering():
    assert decimal_str(Fraction(23, 10)) == "2.3"
    assert decimal_str(Fraction(3, 20)) == "0.15"
    assert decimal_str(4) == "4"
    assert decimal_str(Fraction(-1, 8)) == "-0.125"
    with pytest.raises(ValueError):
        decimal_str(Fraction(1, 3))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind", [int, Fraction])
def test_integers_past_the_int_str_limit_render(sign, kind):
    # 4501 digits, past Python's 4300-digit limit on str(int); flood heights
    # grow about half a digit per tier.
    x = kind(sign * 10**4500)
    want = ("-" if sign < 0 else "") + "1" + "0" * 4500
    assert decimal_str(x) == want
    assert format_extended(x) == want
    assert decimal_str(kind(sign * (10**4500 + 7))) == want[:-1] + "7"
    assert decimal_str(kind(sign * 10**1000 * 12345)) == str(sign * 12345) + "0" * 1000


# --- knot files -----------------------------------------------------------------

def test_corpus_files_parse():
    unknot = UNKNOT
    assert len(unknot.dga) == 1
    assert unknot.dga.generators[0].grading == 1
    assert not unknot.dga.differential[0]
    assert len(unknot.diagram.patches) == 2
    assert unknot.heights is not None and unknot.heights.of(0) == 1

    trefoil = TREFOIL
    by_name = {g.name: g for g in trefoil.dga.generators}
    assert [by_name[f"q{i}"].grading for i in range(1, 6)] == [1, 1, 0, 0, 0]
    assert [trefoil.heights.of(by_name[f"q{i}"].gid) for i in range(1, 6)] == [4, 4, 1, 1, 1]

    rii = load_corpus("trefoil_rii")
    assert rii.heights.of(gid_of(rii.dga, "a")) == Fraction(23, 10)
    assert rii.dga.generators[gid_of(rii.dga, "a")].grading == 1
    assert rii.dga.generators[gid_of(rii.dga, "b")].grading == 0

    island = load_corpus("island")
    assert island.heights is None
    assert len(island.diagram.patches) == 10


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_knot_file, corpus_file("trefoil").read_text(encoding="utf-8")),
        (parse_barcode_file, '{"bars": []}'),
    ],
    ids=["knot", "barcode"],
)
def test_a_leading_byte_order_mark_is_malformed_json(parse, text):
    """json.loads refuses a leading U+FEFF; the parsers keep that refusal and
    its message for a file given as str, which no command reads (the raw-payload
    table, ``test_cli.test_unreadable_json_is_malformed``, has the bytes)."""
    parse(text)
    with pytest.raises(StructureError) as exc:
        parse("\ufeff" + text)
    assert exc.value.code == MALFORMED_JSON
    assert str(exc.value) == (
        "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    )


@pytest.mark.parametrize(
    "largest, too_long",
    [
        ("9" * (MAX_NUMBER_DIGITS - 1) + ".5", "9" * MAX_NUMBER_DIGITS + ".5"),
        (f"1e{MAX_NUMBER_DIGITS - 1}", f"1e{MAX_NUMBER_DIGITS}"),
        (f"-1e-{MAX_NUMBER_DIGITS - 1}", f"-1e-{MAX_NUMBER_DIGITS}"),
        ("9" * MAX_NUMBER_DIGITS, "9" * (MAX_NUMBER_DIGITS + 1)),
        ("-" + "9" * MAX_NUMBER_DIGITS, "-" + "9" * (MAX_NUMBER_DIGITS + 1)),  # the sign is no digit
    ],
    ids=["mantissa", "exponent", "negative_exponent", "integer", "signed_integer"],
)
def test_largest_accepted_literal_round_trips(largest, too_long):
    barcode = parse_barcode_file(bar_born_at(largest))
    assert barcode.bars[0].birth == Fraction(largest)
    assert parse_barcode_file(serialize_barcode_file(barcode)) == barcode
    with pytest.raises(StructureError, match=f"more than {MAX_NUMBER_DIGITS} digits") as exc:
        parse_barcode_file(bar_born_at(too_long))
    assert exc.value.code == MALFORMED_JSON


def _digit_run(min_size: int):
    """Digit strings, short ones at random and long ones as runs, up to past the bound."""
    short = st.text("0123456789", min_size=min_size, max_size=12)
    run = st.builds(lambda d, k: d * k, st.sampled_from("0123456789"), st.integers(max(min_size, 1), MAX_NUMBER_DIGITS + 1))
    return st.one_of(short, run, st.builds(str.__add__, short, run), st.builds(str.__add__, run, short))


@st.composite
def float_literals(draw):
    """JSON float literals: a sign, an integer part without leading zeros, then a
    fraction, an exponent or both, each with leading and trailing zeros."""
    sign = draw(st.sampled_from(["", "-"]))
    whole = draw(st.one_of(st.just("0"), st.builds(str.__add__, st.sampled_from("123456789"), _digit_run(0))))
    fraction = draw(st.one_of(st.just(""), _digit_run(1).map(".".__add__)))
    exponent = ""
    if not fraction or draw(st.booleans()):
        e = draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        exponent = e + draw(st.one_of(st.text("0123456789", min_size=1, max_size=4), st.integers(0, MAX_NUMBER_DIGITS + 1).map(str)))
    return sign + whole + fraction + exponent


@settings(max_examples=300, deadline=None)
@given(float_literals())
def test_float_literals_read_exactly_or_fail_past_the_bound(literal):
    mantissa, _, exponent = literal.lower().partition("e")
    digits = len(mantissa.lstrip("-").replace(".", ""))
    if digits + abs(int(exponent or 0)) > MAX_NUMBER_DIGITS:
        with pytest.raises(StructureError, match=f"more than {MAX_NUMBER_DIGITS} digits") as exc:
            parse_barcode_file(bar_born_at(literal))
        assert exc.value.code == MALFORMED_JSON
    else:
        birth = parse_barcode_file(bar_born_at(literal)).bars[0].birth
        assert type(birth) is Fraction and birth == Fraction(literal)


@pytest.mark.parametrize(
    "literal, value",
    [
        ("-0.0", Fraction(0)),
        ("-0.5", Fraction(-1, 2)),
        ("0.000", Fraction(0)),
        ("120.2500", Fraction(481, 4)),
        ("7E+002", Fraction(700)),
        ("-25e-0003", Fraction(-1, 40)),
        ("0.05e1", Fraction(1, 2)),
        ("1.0", Fraction(1)),
        ("0." + "0" * (MAX_NUMBER_DIGITS - 2) + "1", Fraction(1, 10 ** (MAX_NUMBER_DIGITS - 1))),
        ("-" + "9" * (MAX_NUMBER_DIGITS - 1) + ".0", Fraction(1 - 10 ** (MAX_NUMBER_DIGITS - 1))),
    ],
    ids=lambda v: v if isinstance(v, str) and len(v) < 20 else None,
)
def test_float_literal_forms_read_exactly(literal, value):
    birth = parse_barcode_file(bar_born_at(literal)).bars[0].birth
    assert type(birth) is Fraction and birth == value == Fraction(literal)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORPUS_NAMES), st.data())
def test_mutated_corpus_files_parse_or_fail_with_a_code(name, data):
    """Drop or rename keys, swap value types, rename letters: the parser either
    accepts the file or raises StructureError, never anything else."""
    doc = json.loads(corpus_file(name).read_bytes())
    mutate(doc, data, data.draw(st.integers(1, 3)))
    try:
        assert isinstance(parse_knot_file(json.dumps(doc)), KnotData)
    except StructureError:
        pass


@st.composite
def knot_docs(draw):
    """Knot documents with well-formed generators and a differential of
    one-letter, longer, empty and repeated words, its keys in any order.  Half
    keep only the words that drop the grading by 1, with more one-letter words
    of that kind, so that many reach d².  Up to three faults go under any keys:
    an unknown letter, in a word of either kind; a letter that is no string; a
    value or a word that is no array; a missing or an unknown key."""
    n = draw(st.integers(1, 6))
    names = [f"q{i}" for i in range(n)]
    gradings = [draw(st.integers(0, 2)) for _ in range(n)]
    letter = st.integers(0, n - 1)
    word = st.one_of(letter.map(lambda g: (g,)), st.lists(letter, max_size=3).map(tuple))
    graded = draw(st.booleans())
    differential = {}
    for i in draw(st.permutations(range(n))):
        words = draw(st.lists(word, max_size=6))
        below = [(x,) for x in range(n) if gradings[x] == gradings[i] - 1]
        if graded:
            words = [w for w in words if sum(gradings[x] for x in w) == gradings[i] - 1]
            words += draw(st.lists(st.sampled_from(below), max_size=4)) if below else []
        words += draw(st.lists(st.sampled_from(words), max_size=2)) if words else []
        differential[names[i]] = [[names[x] for x in w] for w in words]
    kinds = ["unknown_letter", "unknown_letter", "letter", "word", "value", "missing_key", "unknown_key"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        key = draw(st.sampled_from(list(differential) or ["zz"]))
        kind = draw(st.sampled_from(kinds))
        words = differential.get(key)
        if kind == "value":
            differential[key] = draw(st.sampled_from(["q0", 0, None, {}, {"q0": []}]))
        elif kind == "missing_key":
            differential.pop(key, None)
        elif kind == "unknown_key":
            differential["zz"] = []
        elif type(words) is list and words:
            j = draw(st.integers(0, len(words) - 1))
            if kind == "word":
                words[j] = draw(st.sampled_from(["q0", 0, None, {}]))
            elif type(words[j]) is list and words[j]:
                m = draw(st.integers(0, len(words[j]) - 1))
                words[j][m] = "zz" if kind == "unknown_letter" else draw(st.sampled_from([0, None, True, ["q0"]]))
    generators = [{"name": name, "grading": k} for name, k in zip(names, gradings)]
    return {"generators": generators, "differential": differential, "patches": []}


def _dga_or_fault(read, doc):
    try:
        return read(doc)
    except StructureError as exc:
        return exc.code, str(exc)


@settings(max_examples=500, deadline=None)
@given(knot_docs())
def test_the_parser_reads_a_differential_as_the_per_letter_reference_does(doc):
    """The same DGA, or the same first fault's code and message, as the former
    reading: types checked key by key, each letter looked up by a scan of the
    names, and ``validate_dga_per_letter``."""
    parsed = _dga_or_fault(lambda d: parse_knot_file(json.dumps(d)).dga, doc)
    assert parsed == _dga_or_fault(differential_per_letter, doc)


# number literals, put into the JSON text verbatim: negative, past the float
# range, at the digit bound and just over it (MALFORMED_JSON)
NUMBERS = st.sampled_from(
    ["-3", "-0.5", "2.3", "1e3999", "-1e3999", "1e-3999", "9" * 3999, "1e4000", "1e-4000"]
)


# label text: plain, a lone surrogate, C0 and C1 control characters, U+FFFF
LABELS = st.lists(st.sampled_from(["q", "é", "\ud800", *CONTROLS]), max_size=3).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["trefoil", "trefoil_rii"]), st.data())
def test_mutated_barcode_files_parse_or_fail_with_a_code(tmp_path_factory, name, data):
    """Drop or rename keys, swap value types, write huge, tiny or negative
    numbers, put a death at or before its birth, write a label with any text:
    parse_barcode_file gives a Barcode that both writers and both renderers
    take, or raises StructureError, and legch distance exits 0 or 1 with a
    coded error, never a traceback."""
    other = serialize_barcode_file(barcode_of(load_corpus(name), 2))
    doc = json.loads(other)
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(slots(doc, [])))
        kind = data.draw(st.sampled_from(["drop", "rename_key", "value", "number", "reverse", "label"]))
        if kind == "value":
            container[key] = data.draw(VALUES)
        elif kind == "number":
            container[key] = f"<number {data.draw(NUMBERS)}>"
        elif kind in ("reverse", "label"):
            bars = doc.get("bars") if isinstance(doc, dict) else None
            if isinstance(bars, list) and bars and isinstance(bars[0], dict):
                if kind == "reverse":
                    bars[0]["death"] = bars[0].get("birth")
                else:
                    bars[0][data.draw(st.sampled_from(["birth_label", "death_label"]))] = data.draw(LABELS)
        elif isinstance(container, dict):
            value = container.pop(key)
            if kind == "rename_key":
                container[data.draw(LETTERS)] = value
        else:
            del container[key]
        if not isinstance(doc, (dict, list)) or not slots(doc, []):
            break
    text = re.sub(r'"<number ([^"]*)>"', r"\1", json.dumps(doc))
    try:
        barcode = parse_barcode_file(text)
    except StructureError:
        barcode = None
    if barcode is not None:
        assert parse_barcode_file(serialize_barcode_file(barcode)) == barcode
        assert not CONTROL_IN_OUTPUT.search(render_barcode(barcode, "text").decode("utf-8"))
        ET.fromstring(render_barcode(barcode, "svg"))
    folder = tmp_path_factory.mktemp("fuzz")
    mutated, base = folder / "mutated.json", folder / "base.json"
    mutated.write_text(text)
    base.write_bytes(other)
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(["distance", str(mutated), str(base)], stdout=out, stderr=err)
    if barcode is not None:
        assert (code, err.getvalue()) == (0, "")
        assert re.fullmatch(r"(-?[0-9]+(\.[0-9]+)?|inf)\n", out.getvalue())
    else:
        assert code == 1 and out.getvalue() == ""
        assert re.fullmatch(r"error: \[[A-Z_]+\] .*\n", err.getvalue(), re.S)


def test_heights_parse_exactly():
    doc = {"generators": [{"name": "q", "grading": 1}], "differential": {"q": []}, "patches": [], "heights": {"q": 2.3}}
    assert parse_knot_file(json.dumps(doc)).heights.of(0) == Fraction(23, 10)


def _gens(*names, grading=1):
    return [{"name": name, "grading": grading} for name in names]


@pytest.mark.parametrize(
    "doc, stderr",
    [
        (
            {"generators": _gens("a"), "differential": {"a": [["zz"], "a"]}},
            "[BAD_SCHEMA] differential['a'] words must be arrays of generator names",
        ),
        (
            {"generators": _gens("a", "b"), "differential": {"a": [["zz"]], "b": ["b"]}},
            "[BAD_SCHEMA] differential['b'] words must be arrays of generator names",
        ),
        (
            {"generators": _gens("a", "a"), "differential": {"a": [[1]]}},
            "[BAD_SCHEMA] differential['a'] words must be arrays of generator names",
        ),
        (
            {"generators": _gens("a", "a"), "differential": {"a": [["a", None]]}},
            "[BAD_SCHEMA] differential['a'] words must be arrays of generator names",
        ),
        (
            {"generators": _gens("a", "b"), "differential": {"a": [["b", 1]], "b": "b"}},
            "[BAD_SCHEMA] differential['a'] words must be arrays of generator names",
        ),
        (
            {"generators": _gens("a", "b"), "differential": {"a": {}, "b": [["a"], [None]]}},
            "[BAD_SCHEMA] differential['a'] must be an array of words",
        ),
        (
            {"generators": _gens("\ud800", "q\x01"), "differential": {}},
            "[BAD_SCHEMA] generators[0].name is not valid Unicode",
        ),
        (
            {"generators": _gens("q\x01", "\ud800"), "differential": {}},
            "[BAD_SCHEMA] generators[0].name has a control character",
        ),
        (
            {"generators": _gens("\x01\ud800"), "differential": {}},
            "[BAD_SCHEMA] generators[0].name is not valid Unicode",
        ),
        (
            {"generators": _gens("a", "b"), "differential": {"a": [], "b": []}, "heights": {"a": 0}},
            "[BAD_HEIGHT] height of 'a' must be positive, got 0",
        ),
        (
            {"generators": _gens("b", "a"), "differential": {"a": [], "b": []}, "heights": {"a": 0}},
            "[BAD_HEIGHT] missing height for generator 'b'",
        ),
        (
            {"generators": _gens("a", "b"), "differential": {"a": [], "b": []}, "heights": {"a": -0.0}},
            "[BAD_HEIGHT] height of 'a' must be positive, got 0",
        ),
        (
            {"generators": [{"name": "q"}], "differential": {"q": 5}},
            "[BAD_SCHEMA] generators[0] must be an object with keys 'name' and 'grading'",
        ),
        (
            {"generators": _gens("q", "q"), "differential": {"zz": [], "q": []}},
            "[DUPLICATE_NAME] generator name 'q' appears twice",
        ),
        (
            {"generators": _gens("q", "p"), "differential": {"q": [], "zz": []}},
            "[UNKNOWN_GENERATOR] differential key 'zz' is not a generator",
        ),
        (
            {"generators": _gens("q", "p"), "differential": {"q": [["zz"]]}},
            "[BAD_SCHEMA] missing differential for generator 'p'",
        ),
        (
            {"generators": _gens("a", "b"), "differential": {"b": [["yy"]], "a": [["zz"]]}},
            "[UNKNOWN_GENERATOR] differential['b'] uses unknown generator 'yy'",
        ),
        (
            {"generators": _gens("q", "p"), "differential": {"q": [["q"]], "p": [["zz"]]}},
            "[UNKNOWN_GENERATOR] differential['p'] uses unknown generator 'zz'",
        ),
    ],
    ids=[
        "non_list_word_before_unknown_letter",
        "non_list_word_after_unknown_letter",
        "non_string_letter_before_duplicate_name",
        "null_letter_before_duplicate_name",
        "non_string_letter_before_non_list_value",
        "non_list_value_before_non_string_letter",
        "surrogate_name_before_control_name",
        "control_name_before_surrogate_name",
        "surrogate_after_control_in_one_name",
        "zero_height_before_missing_height",
        "missing_height_before_zero_height",
        "negative_zero_height_before_missing_height",
        "generator_shape_before_differential_shape",
        "duplicate_name_before_unknown_key",
        "unknown_key_before_missing_differential",
        "missing_differential_before_unknown_letter",
        "unknown_letters_in_file_key_order",
        "unknown_letter_before_grading_violation",
    ],
)
def test_the_first_of_two_faults_is_reported(tmp_path, doc, stderr):
    """Each file holds two faults; ``legch validate`` names the one the parser
    meets first, in its fixed order of checks.  Among them is one file for each
    pair of adjacent checks on the generators and the differential."""
    knot = tmp_path / "knot.json"
    knot.write_text(json.dumps({**doc, "patches": []}))
    out, err = io.StringIO(), io.StringIO()
    assert cli_dispatch(["validate", str(knot)], stdout=out, stderr=err) == 1
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {stderr}\n")


def test_trefoil_rii_file_matches_builder():
    built = trefoil_after_rii(Fraction(3, 10))
    assert built == parse_knot_file(corpus_file("trefoil_rii").read_bytes())


# --- barcode files ----------------------------------------------------------------

def test_integer_and_decimal_ends_read_the_same(tmp_path):
    ints = tmp_path / "ints.json"
    decimals = tmp_path / "decimals.json"
    ints.write_text('{"bars": [{"degree": 0, "birth": 1, "death": 4}]}')
    decimals.write_text('{"bars": [{"degree": 0, "birth": 1.0, "death": 4.00}]}')
    b_int = parse_barcode_file(ints.read_bytes())
    b_dec = parse_barcode_file(decimals.read_bytes())
    assert b_int == b_dec
    assert serialize_barcode_file(b_int) == serialize_barcode_file(b_dec)
    out, err = io.StringIO(), io.StringIO()
    assert cli_dispatch(["distance", str(ints), str(decimals)], stdout=out, stderr=err) == 0
    assert (out.getvalue(), err.getvalue()) == ("0\n", "")


def test_barcode_round_trip():
    barcode = barcode_of(TREFOIL, 2)
    data = serialize_barcode_file(barcode)
    again = parse_barcode_file(data)
    assert again == barcode
    assert serialize_barcode_file(again) == data


def test_barcode_file_bytes():
    """Sorted keys, JSON string labels, exact decimals; "inf" is in the golden transcript."""
    bar = Bar(-1, Fraction(1, 8), Fraction(10**50), 'é"\n', "q1")
    assert serialize_barcode_file(Barcode((bar,))).decode() == """{
  "bars": [
    {
      "birth": 0.125,
      "birth_label": "é\\"\\n",
      "death": 1%s,
      "death_label": "q1",
      "degree": -1
    }
  ]
}
""" % ("0" * 50)
    assert serialize_barcode_file(Barcode(())) == b'{\n  "bars": []\n}\n'


def test_barcode_parse_reads_inf_and_labels():
    doc = {"bars": [{"degree": 1, "birth": 1, "death": "inf"}]}
    barcode = parse_barcode_file(json.dumps(doc))
    assert barcode.bars[0].death == math.inf
    # A label names a sum of generators, joined by '+', which no generator name holds.
    doc = {"bars": [{"degree": 0, "birth": 1, "death": 2, "birth_label": "a+b", "death_label": "q"}]}
    assert parse_barcode_file(json.dumps(doc)).bars[0].birth_label == "a+b"
    # A null label is no label.
    doc = {"bars": [{"degree": 0, "birth": 1, "death": 2, "death_label": None}]}
    assert parse_barcode_file(json.dumps(doc)).bars[0] == Bar(0, 1, 2)


def _second_bar(bar: str) -> str:
    return '{"bars": [{"degree": 0, "birth": 0, "death": 1}, %s]}' % bar


def _labelled(key: str, label: str) -> str:
    return _second_bar('{"degree": 0, "birth": 1, "death": 2, "%s": %s}' % (key, json.dumps(label)))


@pytest.mark.parametrize(
    "data, code, message",
    [
        ("[]", BAD_SCHEMA, "barcode file must be an object with a 'bars' array"),
        ('{"bars": {}}', BAD_SCHEMA, "barcode file must be an object with a 'bars' array"),
        ('{"bar": []}', BAD_SCHEMA, "barcode file must be an object with a 'bars' array"),
        (_second_bar("1"), BAD_SCHEMA, "bars[1] must be an object"),
        (_second_bar('{"zz": 0, "birth": 1, "yy": 0}'), BAD_SCHEMA, "bars[1] has unknown key 'zz'"),
        (_second_bar('{"birth": 1, "death": 2, "zz": 0}'), BAD_SCHEMA, "bars[1] has unknown key 'zz'"),
        (_second_bar('{"death": 2, "birth": 1}'), BAD_SCHEMA, "bars[1] is missing 'degree'"),
        (_second_bar('{"death": 2, "degree": 0}'), BAD_SCHEMA, "bars[1] is missing 'birth'"),
        (_second_bar('{"birth": 1, "degree": 0, "death_label": "q"}'), BAD_SCHEMA, "bars[1] is missing 'death'"),
        (_second_bar('{"degree": true, "birth": 1, "death": 2}'), BAD_SCHEMA, "bars[1].degree must be an integer"),
        (_second_bar('{"degree": 0, "birth": true, "death": 2}'), BAD_SCHEMA, "bars[1].birth must be a number"),
        (_second_bar('{"degree": 0, "birth": "1", "death": 2}'), BAD_SCHEMA, "bars[1].birth must be a number"),
        (_second_bar('{"degree": 0, "birth": "inf", "death": 2}'), BAD_SCHEMA, "bars[1].birth must be a number"),
        (
            _second_bar('{"degree": 0, "birth": 1, "death": Infinity}'),
            BAD_SCHEMA,
            "bars[1].death must be a number or 'inf'",
        ),
        (_second_bar('{"degree": 0, "birth": 1, "death": NaN}'), BAD_SCHEMA, "bars[1].death must be a number or 'inf'"),
        (
            _second_bar('{"degree": 0, "birth": 1, "death": "Infinity"}'),
            BAD_SCHEMA,
            "bars[1].death must be a number or 'inf'",
        ),
        (
            _second_bar('{"degree": 0, "birth": 1, "death": 2, "birth_label": 3}'),
            BAD_SCHEMA,
            "bars[1].birth_label must be a string",
        ),
        (
            _second_bar('{"degree": 0, "birth": 1, "death": 2, "death_label": ["q"]}'),
            BAD_SCHEMA,
            "bars[1].death_label must be a string",
        ),
        (
            _second_bar('{"degree": 0, "birth": 1, "death": 1.0}'),
            INVALID_BAR,
            "bars[1]: bar must have birth < death, got [1, 1)",
        ),
        (
            _second_bar('{"degree": 0, "birth": 2, "death": 1}'),
            INVALID_BAR,
            "bars[1]: bar must have birth < death, got [2, 1)",
        ),
        (_labelled("birth_label", "\ud800"), BAD_SCHEMA, "bars[1].birth_label is not valid Unicode"),
        (_labelled("death_label", "\ud800"), BAD_SCHEMA, "bars[1].death_label is not valid Unicode"),
        (_labelled("birth_label", "q\x1b[2J"), BAD_SCHEMA, "bars[1].birth_label has a control character"),
        (_labelled("death_label", "q\x1b[2J"), BAD_SCHEMA, "bars[1].death_label has a control character"),
        (_labelled("birth_label", "\x85"), BAD_SCHEMA, "bars[1].birth_label has a control character"),
        (_labelled("death_label", "\x85"), BAD_SCHEMA, "bars[1].death_label has a control character"),
        (
            _labelled("death_label", "q\uffff"),
            BAD_SCHEMA,
            "bars[1].death_label has U+FFFE or U+FFFF, which XML excludes",
        ),
        (
            _labelled("birth_label", "q\u2028"),
            BAD_SCHEMA,
            "bars[1].birth_label has a line separator or a bidirectional control",
        ),
    ],
    ids=[
        "top_level_array", "bars_not_array", "no_bars_key",
        "not_an_object", "unknown_before_missing", "unknown_after_required", "missing_degree_first",
        "missing_birth", "missing_death", "bool_degree", "bool_birth", "string_birth", "inf_birth",
        "bare_infinity_death", "nan_death", "string_infinity_death", "number_label", "array_label", "birth_equal_to_death",
        "birth_after_death", "surrogate_birth_label", "surrogate_death_label", "escape_birth_label",
        "escape_death_label", "c1_control_birth_label", "c1_control_death_label", "noncharacter_death_label",
        "line_separator_birth_label",
    ],
)
def test_barcode_faults_keep_their_messages_and_order(data, code, message):
    """Every fault of a barcode file, most in the second bar, behind a valid
    first one: a bar's unknown keys are named, in file order, before its
    missing keys, and those in the order degree, birth, death.  The writers
    print labels as they are, so a label that UTF-8, a terminal or XML could
    not take is a fault, and its message does not echo the label."""
    with pytest.raises(StructureError) as exc:
        parse_barcode_file(data)
    assert (exc.value.code, str(exc.value)) == (code, message)


def test_every_surrogate_and_control_character_fails_isprintable():
    """Names and labels are screened with ``str.isprintable``, and only a text
    that fails it is searched for the four faults: so every surrogate, every
    control character, U+FFFE, U+FFFF, each line or paragraph separator and each
    bidirectional control must fail it.  A text that fails it and holds none of
    them, such as a no-break or a zero-width space, is still accepted."""
    faulty = [*range(0x20), *range(0x7F, 0xA0), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF, *map(ord, LINE_AND_BIDI)]
    assert not any(chr(c).isprintable() for c in faulty)
    label = "q\u00a0\u200b"
    assert not label.isprintable()
    doc = {"bars": [{"degree": 0, "birth": 1, "death": 2, "birth_label": label}]}
    assert parse_barcode_file(json.dumps(doc)).bars[0].birth_label == label


# --- rendering --------------------------------------------------------------------

def test_render_empty_barcode_keeps_header():
    assert render_barcode(Barcode(()), "text") == b"# bars: 0\n"


def test_render_svg_geometry_is_scale_free_beyond_float_range():
    # Scaling by a power of two is exact, so every drawn coordinate stays put.
    barcode = barcode_of(TREFOIL, 2)
    scale = Fraction(2**2000)
    huge = Barcode(
        tuple(
            bar._replace(birth=bar.birth * scale, death=bar.death * scale if bar.finite else bar.death)
            for bar in barcode.bars
        )
    )

    def shapes(b):
        return [line for line in render_barcode(b, "svg").decode().splitlines() if line.startswith(("<line", "<path"))]

    assert shapes(huge) == shapes(barcode)


# Ends 2**-2 apart at 10**17, where floats are 16 apart: every tick's x is the
# same float, so only an exact sort puts their labels in increasing order.
TIED_SVG = [
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="134" viewBox="0 0 640 134">',
    '<style>text{font-family:monospace;font-size:11px;}</style>',
    '<line x1="120.0" y1="116.0" x2="580.0" y2="116.0" stroke="black" stroke-width="1"/>',
    '<line x1="120.0" y1="113.0" x2="120.0" y2="119.0" stroke="black" stroke-width="1"/>',
    '<text x="120.0" y="130.0" text-anchor="middle">0</text>',
    '<line x1="120.0" y1="113.0" x2="120.0" y2="119.0" stroke="black" stroke-width="1"/>',
    '<text x="120.0" y="130.0" text-anchor="middle">3</text>',
    '<line x1="520.0" y1="113.0" x2="520.0" y2="119.0" stroke="black" stroke-width="1"/>',
    '<text x="520.0" y="130.0" text-anchor="middle">100000000000000000.25</text>',
    '<line x1="520.0" y1="113.0" x2="520.0" y2="119.0" stroke="black" stroke-width="1"/>',
    '<text x="520.0" y="130.0" text-anchor="middle">100000000000000000.5</text>',
    '<line x1="520.0" y1="113.0" x2="520.0" y2="119.0" stroke="black" stroke-width="1"/>',
    '<text x="520.0" y="130.0" text-anchor="middle">100000000000000000.75</text>',
    '<line x1="520.0" y1="35.0" x2="596.0" y2="35.0" stroke="black" stroke-width="4" stroke-linecap="butt"/>',
    '<path d="M 596.0 30.0 L 604.0 35.0 L 596.0 40.0 Z" fill="black"/>',
    '<text x="514.0" y="39.0" text-anchor="end">H0 a</text>',
    '<line x1="120.0" y1="57.0" x2="520.0" y2="57.0" stroke="black" stroke-width="4" stroke-linecap="butt"/>',
    '<text x="114.0" y="61.0" text-anchor="end">H1</text>',
    '<line x1="520.0" y1="79.0" x2="520.0" y2="79.0" stroke="black" stroke-width="4" stroke-linecap="butt"/>',
    '<text x="514.0" y="83.0" text-anchor="end">H1 b</text>',
    '<text x="526.0" y="83.0" text-anchor="start">c</text>',
    '</svg>',
]


def test_render_svg_orders_ticks_exactly_where_floats_tie():
    big = 10**17
    barcode = Barcode(
        (
            Bar(0, big + Fraction(1, 2), math.inf, "a"),
            Bar(1, 3, big + Fraction(1, 2)),
            Bar(1, big + Fraction(1, 4), big + Fraction(3, 4), "b", "c"),
        )
    )
    svg = render_barcode(barcode, "svg").decode()
    assert svg.splitlines() == TIED_SVG
    ticks = re.findall(r'text-anchor="middle">([^<]*)<', svg)
    assert [Fraction(t) for t in ticks] == [0, 3, big + Fraction(1, 4), big + Fraction(1, 2), big + Fraction(3, 4)]


@pytest.mark.parametrize(
    "x, text",
    [
        (math.inf, "inf"),
        (float("inf"), "inf"),
        (0, "0"),
        (Fraction(0), "0"),
        (Fraction(-5, 4), "-1.25"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-2, 7), "-2/7"),
    ],
)
def test_format_extended(x, text):
    assert format_extended(x) == text


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_barcode(Barcode(()), "png")
