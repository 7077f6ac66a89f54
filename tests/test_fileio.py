import io
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch import corpus
from legch.algebra import StructureError
from legch.cli import cli_dispatch
from legch.fileio import (
    BAD_HEIGHT,
    BAD_SCHEMA,
    D_SQUARED_NONZERO,
    DUPLICATE_NAME,
    GRADING_VIOLATION,
    INVALID_BAR,
    MALFORMED_JSON,
    UNKNOWN_GENERATOR,
    MAX_NUMBER_DIGITS,
    KnotData,
    decimal_str,
    parse_barcode_file,
    parse_knot_file,
    render_barcode,
    serialize_barcode_file,
)
from legch.persist import Bar, Barcode

from support import CONTROL_IN_OUTPUT, CONTROLS, LETTERS, VALUES, barcode_of, gid_of, load_corpus, mutate, slots

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


def err_code(data) -> str:
    with pytest.raises(StructureError) as exc:
        parse_knot_file(data)
    return exc.value.code


def minimal(**overrides):
    doc = {
        "generators": [{"name": "q", "grading": 1}],
        "differential": {"q": []},
        "patches": [],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_error_codes():
    assert err_code(b"{ not json") == MALFORMED_JSON
    assert err_code(json.dumps([])) == BAD_SCHEMA
    assert err_code(minimal(differential={"q": [["zz"]]})) == UNKNOWN_GENERATOR
    assert (
        err_code(minimal(generators=[{"name": "q", "grading": 1}, {"name": "q", "grading": 0}],
                         differential={"q": []}))
        == DUPLICATE_NAME
    )
    assert (
        err_code(minimal(generators=[{"name": "q", "grading": 1}],
                         differential={"q": [["q"]]}))
        == GRADING_VIOLATION
    )
    two_step = {
        "generators": [
            {"name": "a", "grading": 2},
            {"name": "b", "grading": 1},
            {"name": "c", "grading": 0},
        ],
        "differential": {"a": [["b"]], "b": [["c"]], "c": []},
        "patches": [],
    }
    assert err_code(json.dumps(two_step)) == D_SQUARED_NONZERO
    assert err_code(minimal(heights={"q": 0})) == BAD_HEIGHT
    assert err_code(minimal(heights={})) == BAD_HEIGHT
    assert err_code(minimal(patches=[[{"name": "q", "coeff": 5}]])) == "BAD_PATCH"
    assert err_code(minimal(extra_key=1)) == BAD_SCHEMA


@pytest.mark.parametrize("parse", [parse_knot_file, parse_barcode_file])
@pytest.mark.parametrize(
    "payload",
    [b"\xff\xfe{", b"[" * 100000 + b"]" * 100000],
    ids=["invalid_utf8", "deeply_nested"],
)
def test_undecodable_input_is_malformed_json(parse, payload):
    with pytest.raises(StructureError) as exc:
        parse(payload)
    assert exc.value.code == MALFORMED_JSON


def _bar_born_at(literal: str) -> str:
    return '{"bars": [{"degree": 0, "birth": %s, "death": "inf"}]}' % literal


@pytest.mark.parametrize(
    "largest, too_long",
    [
        ("9" * (MAX_NUMBER_DIGITS - 1) + ".5", "9" * MAX_NUMBER_DIGITS + ".5"),
        (f"1e{MAX_NUMBER_DIGITS - 1}", f"1e{MAX_NUMBER_DIGITS}"),
        (f"-1e-{MAX_NUMBER_DIGITS - 1}", f"-1e-{MAX_NUMBER_DIGITS}"),
    ],
    ids=["mantissa", "exponent", "negative_exponent"],
)
def test_largest_accepted_literal_round_trips(largest, too_long):
    barcode = parse_barcode_file(_bar_born_at(largest))
    assert barcode.bars[0].birth == Fraction(largest)
    assert parse_barcode_file(serialize_barcode_file(barcode)) == barcode
    with pytest.raises(StructureError, match=f"more than {MAX_NUMBER_DIGITS} digits") as exc:
        parse_barcode_file(_bar_born_at(too_long))
    assert exc.value.code == MALFORMED_JSON


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(corpus.NAMES), st.data())
def test_mutated_corpus_files_parse_or_fail_with_a_code(name, data):
    """Drop or rename keys, swap value types, rename letters: the parser either
    accepts the file or raises StructureError, never anything else."""
    doc = json.loads(corpus.corpus_path(name).read_bytes())
    mutate(doc, data, data.draw(st.integers(1, 3)))
    try:
        assert isinstance(parse_knot_file(json.dumps(doc)), KnotData)
    except StructureError:
        pass


# number literals, put into the JSON text verbatim: negative, past the float
# range, at the digit bound and just over it (MALFORMED_JSON)
NUMBERS = st.sampled_from(
    ["-3", "-0.5", "2.3", "1e3999", "-1e3999", "1e-3999", "9" * 3999, "1e4000", "1e-4000"]
)


# label text: plain, a lone surrogate, C0 and C1 control characters
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
    kd = parse_knot_file(minimal(heights={"q": 2.3}))
    assert kd.heights.of(0) == Fraction(23, 10)


def test_trefoil_rii_file_matches_builder():
    built = corpus.trefoil_after_rii(Fraction(3, 10))
    assert built == parse_knot_file(corpus.corpus_path("trefoil_rii").read_bytes())


def test_trefoil_after_rii_needs_an_exact_delta():
    with pytest.raises(TypeError):
        corpus.trefoil_after_rii(0.3)
    assert corpus.trefoil_after_rii("0.3").meta["bigon_area"] == Fraction(3, 10)


# --- barcode files ----------------------------------------------------------------

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


def test_barcode_parse_inf_and_errors():
    doc = {"bars": [{"degree": 1, "birth": 1, "death": "inf"}]}
    barcode = parse_barcode_file(json.dumps(doc))
    assert barcode.bars[0].death == math.inf

    with pytest.raises(StructureError) as exc:
        parse_barcode_file(json.dumps({"bars": [{"degree": 0, "birth": 2, "death": 1}]}))
    assert exc.value.code == INVALID_BAR
    with pytest.raises(StructureError) as exc:
        parse_barcode_file(json.dumps({"bars": [{"degree": 0, "birth": 1}]}))
    assert exc.value.code == BAD_SCHEMA
    with pytest.raises(StructureError):
        parse_barcode_file(b"nope")
    # Labels order tied bars, so a label that is not a string cannot be sorted.
    tied = [{"degree": 0, "birth": 1, "death": 2, "birth_label": label} for label in ("q", [])]
    with pytest.raises(StructureError, match=r"bars\[1\]\.birth_label must be a string") as exc:
        parse_barcode_file(json.dumps({"bars": tied}))
    assert exc.value.code == BAD_SCHEMA


@pytest.mark.parametrize("key", ["birth_label", "death_label"])
@pytest.mark.parametrize(
    "label, fault",
    [("\ud800", "is not valid Unicode"), ("q\x1b[2J", "has a control character"), ("\x85", "has a control character")],
    ids=["surrogate", "escape", "c1_control"],
)
def test_barcode_labels_must_be_printable(key, label, fault):
    """The writers print labels as they are: UTF-8 cannot hold a lone surrogate
    (JSON's "\\ud800" escape), and a control character would reach a terminal or
    an SVG.  The message does not echo the label."""
    doc = {"bars": [{"degree": 0, "birth": 1, "death": 2, key: label}]}
    with pytest.raises(StructureError) as exc:
        parse_barcode_file(json.dumps(doc))
    assert (exc.value.code, str(exc.value)) == (BAD_SCHEMA, f"bars[0].{key} {fault}")


# --- rendering --------------------------------------------------------------------

def test_render_unknot_text():
    assert render_barcode(barcode_of(UNKNOT), "text") == b"# bars: 1\nH1  [1, inf)  q\n"


def test_render_trefoil_text():
    text = render_barcode(barcode_of(TREFOIL, 2), "text").decode()
    lines = text.splitlines()
    assert lines[0] == "# bars: 4"
    assert lines[1:] == [
        "H0  [1, 4)  q3+q5 -> q1",
        "H0  [1, inf)  q3",
        "H0  [1, inf)  q4",
        "H1  [4, inf)  q1+q2",
    ]


def test_render_empty_barcode_keeps_header():
    assert render_barcode(Barcode(()), "text") == b"# bars: 0\n"


def test_render_text_color_is_opt_in():
    plain = render_barcode(barcode_of(UNKNOT), "text")
    colored = render_barcode(barcode_of(UNKNOT), "text", color=True)
    assert plain != colored
    assert b"\x1b[1m" in colored and b"\x1b[1m" not in plain


def test_render_svg_deterministic_and_well_formed():
    barcode = barcode_of(TREFOIL, 2)
    svg1 = render_barcode(barcode, "svg")
    svg2 = render_barcode(barcode, "svg")
    assert svg1 == svg2
    text = svg1.decode()
    assert text.startswith("<svg")
    assert text.count("<line") >= 5  # axis plus one per bar
    assert "q3+q5" in text and "q1+q2" in text


def test_render_svg_geometry_is_scale_free_beyond_float_range():
    # Scaling by a power of two is exact, so every drawn coordinate stays put.
    barcode = barcode_of(TREFOIL, 2)
    scale = Fraction(2**2000)
    huge = Barcode(
        tuple(
            replace(bar, birth=bar.birth * scale, death=bar.death * scale if bar.finite else bar.death)
            for bar in barcode.bars
        )
    )

    def shapes(b):
        return [line for line in render_barcode(b, "svg").decode().splitlines() if line.startswith(("<line", "<path"))]

    assert shapes(huge) == shapes(barcode)


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_barcode(Barcode(()), "png")
