"""Knot and barcode file formats, plus text/SVG barcode rendering.

Both formats are UTF-8 JSON.  Numbers are parsed as exact rationals and written
back as exact decimals, so heights survive a round trip unchanged.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import NamedTuple

from .algebra import BAD_HEIGHT, BAD_SCHEMA  # also the parser's codes
from .algebra import DGA, Element, Generator, HeightAssignment, StructureError, _first, validate_dga
from .diagram import LagrangianDiagramData

UNKNOWN_GENERATOR = "UNKNOWN_GENERATOR"
DUPLICATE_NAME = "DUPLICATE_NAME"
UNREADABLE_FILE = "UNREADABLE_FILE"
MALFORMED_JSON = "MALFORMED_JSON"
BAD_PATCH = "BAD_PATCH"
INVALID_BAR = "INVALID_BAR"

# Most digits a number literal may have, counting the exponent's size as digits.
# decimal_str writes an accepted number back with no more digits, under Python's
# 4300-digit limit, and Fraction never expands a huge exponent.
MAX_NUMBER_DIGITS = 4000


class KnotData(NamedTuple):
    dga: DGA
    diagram: LagrangianDiagramData
    heights: HeightAssignment | None


# ---------------------------------------------------------------------------
# exact numbers

_CHUNK = 10**1000


def _digits(n: int) -> str:
    """str(n) for n >= 0, also past Python's 4300-digit limit on int-to-str,
    which ``Decimal`` does not have: a distance between two accepted numbers
    can need 2 * MAX_NUMBER_DIGITS digits, and flood heights grow with the tiers."""
    return str(n) if n < _CHUNK else format(Decimal(n), "f")


def decimal_str(x) -> str:
    """Exact decimal rendering of an int or a Fraction whose denominator
    divides a power of ten; raises otherwise rather than round."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return "-" + _digits(-n) if n < 0 else _digits(n)
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError(f"{x} has no finite decimal expansion")
    places = max(twos, fives)
    scaled = abs(n) * 10**places // x.denominator
    digits = _digits(scaled).rjust(places + 1, "0")
    sign = "-" if n < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_extended(x) -> str:
    """Decimal when possible, 'inf' for infinity, 'p/q' as a last resort."""
    if isinstance(x, float) and x == math.inf:
        return "inf"
    try:
        return decimal_str(x)
    except ValueError:
        return str(x)


# ---------------------------------------------------------------------------
# knot files

def _check_text(text: str, where: str, *args) -> None:
    """Names and labels are printed as they are; no message echoes them.  UTF-8 cannot hold a
    lone surrogate (JSON's "\\ud800" escape); a C0 or C1 control, a line or paragraph separator or
    a bidirectional control would reach a terminal or an SVG; XML 1.0 excludes U+FFFE and U+FFFF;
    an invisible format character (category Cf, such as U+200B or U+FEFF) would make two names
    print alike.  All fail ``isprintable``: only a text that fails it is searched."""
    if not text.isprintable():
        if any("\ud800" <= c <= "\udfff" for c in text):
            raise StructureError(f"{where.format(*args)} is not valid Unicode", BAD_SCHEMA)
        if any(c < " " or "\x7f" <= c <= "\x9f" for c in text):
            raise StructureError(f"{where.format(*args)} has a control character", BAD_SCHEMA)
        if "\ufffe" in text or "\uffff" in text:
            raise StructureError(f"{where.format(*args)} has U+FFFE or U+FFFF, which XML excludes", BAD_SCHEMA)
        if any(c in "\u061c\u200e\u200f\u2028\u2029\u202a\u202b\u202c\u202d\u202e\u2066\u2067\u2068\u2069" for c in text):
            raise StructureError(f"{where.format(*args)} has a line separator or a bidirectional control", BAD_SCHEMA)
        import unicodedata  # here, so that a command whose names all print pays nothing for it
        if "Cf" in map(unicodedata.category, text):
            raise StructureError(f"{where.format(*args)} has an invisible format character", BAD_SCHEMA)


# json's hooks, or ValueError past the bound: only a long literal or one with an exponent can exceed it
def _parse_float(literal: str) -> Fraction:
    """JSON fixes a float's form, -?digits[.digits][(e|E)[+-]digits]: its digits over 10**places, shifted."""
    if len(literal) > MAX_NUMBER_DIGITS or "e" in literal or "E" in literal:
        mantissa, _, exponent = literal.lower().partition("e")
        whole, _, places = mantissa.partition(".")
        if len(whole) - whole.startswith("-") + len(places) + abs(int(exponent or 0)) > MAX_NUMBER_DIGITS:
            raise ValueError(f"number literal has more than {MAX_NUMBER_DIGITS} digits")
        n, shift = int(whole + places), int(exponent or 0) - len(places)
        return Fraction(n * 10**shift) if shift >= 0 else Fraction(n, 10**-shift)
    whole, _, places = literal.partition(".")
    return Fraction(int(whole + places), 10 ** len(places))


def _parse_int(literal: str) -> int:
    if len(literal) > MAX_NUMBER_DIGITS and len(literal) - literal.startswith("-") > MAX_NUMBER_DIGITS:
        raise ValueError(f"number literal has more than {MAX_NUMBER_DIGITS} digits")
    return int(literal)


_DECODER = json.JSONDecoder(parse_float=_parse_float, parse_int=_parse_int)  # built once: json.loads builds one per call


def _load_json(data: bytes | str):
    """Decode UTF-8 and parse JSON with exact, bounded numbers; any failure is MALFORMED_JSON."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if data.startswith("\ufeff"):  # json.loads' own check, which JSONDecoder.decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        return _DECODER.decode(data)
    except ValueError as exc:  # also bad JSON and bad UTF-8
        raise StructureError(f"not valid JSON: {exc}", MALFORMED_JSON) from None
    except RecursionError:
        raise StructureError("not valid JSON: nested too deeply", MALFORMED_JSON) from None


def parse_knot_file(data: bytes | str) -> KnotData:
    """Check a knot file and build its data.  JSON gives plain types, so exact
    type tests stand for the isinstance checks (a bool is no int here).  One
    type pass covers every differential word and letter; only a fault walks the
    keys, so a file raises its first fault in the order of the checks below."""
    doc = _load_json(data)
    if type(doc) is not dict:
        raise StructureError("top level must be a JSON object", BAD_SCHEMA)

    known = {"generators", "differential", "patches", "heights", "ng_resolved", "meta"}
    for key in doc:
        if key not in known:
            raise StructureError(f"unknown top-level key {key!r}", BAD_SCHEMA)
    for key in ("generators", "differential", "patches"):
        if key not in doc:
            raise StructureError(f"missing required key {key!r}", BAD_SCHEMA)

    # Each check raises from its own branch, so a message is built only for a fault.
    raw_gens = doc["generators"]
    if type(raw_gens) is not list:
        raise StructureError("'generators' must be an array", BAD_SCHEMA)
    gens: list[Generator] = []
    for i, entry in enumerate(raw_gens):
        if not (type(entry) is dict and entry.keys() == {"name", "grading"}):
            raise StructureError(f"generators[{i}] must be an object with keys 'name' and 'grading'", BAD_SCHEMA)
        name, grading = entry["name"], entry["grading"]
        if type(name) is not str or name == "":
            raise StructureError(f"generators[{i}].name must be a nonempty string", BAD_SCHEMA)
        _check_text(name, "generators[{}].name", i)
        if "+" in name:  # bar labels join names with '+'
            raise StructureError(f"generators[{i}].name contains '+'", BAD_SCHEMA)
        if name.split() != [name]:  # the CLI joins names with spaces; split() cuts at each c.isspace()
            raise StructureError(f"generators[{i}].name contains whitespace", BAD_SCHEMA)
        if type(grading) is not int:
            raise StructureError(f"generators[{i}].grading must be an integer", BAD_SCHEMA)
        gens.append(Generator(i, name, grading))

    raw_diff = doc["differential"]
    if type(raw_diff) is not dict:
        raise StructureError("'differential' must be an object", BAD_SCHEMA)
    columns = raw_diff.values()
    if not ({list}.issuperset(map(type, columns)) and {list}.issuperset(map(type, chain.from_iterable(columns)))
            and {str}.issuperset(map(type, chain.from_iterable(chain.from_iterable(columns))))):
        for name, words in raw_diff.items():
            if type(words) is not list:
                raise StructureError(f"differential[{name!r}] must be an array of words", BAD_SCHEMA)
            if not ({list}.issuperset(map(type, words)) and {str}.issuperset(map(type, chain.from_iterable(words)))):
                raise StructureError(f"differential[{name!r}] words must be arrays of generator names", BAD_SCHEMA)
    # One name index resolves the letters here and the patch corners and height keys below.
    index: dict[str, int] = {}
    for gid, name, _ in gens:
        if name in index:
            raise StructureError(f"generator name {name!r} appears twice", DUPLICATE_NAME)
        index[name] = gid
    for name in raw_diff:
        if name not in index:
            raise StructureError(f"differential key {name!r} is not a generator", UNKNOWN_GENERATOR)
    for name in index:
        if name not in raw_diff:
            raise StructureError(f"missing differential for generator {name!r}", BAD_SCHEMA)
    resolve = partial(map, index.__getitem__)  # a word's letters, looked up with no Python frame per word
    single = {name: (gid,) for name, gid in index.items()}.__getitem__  # a one-letter word: one shared tuple
    cols = {}
    for name, words in raw_diff.items():
        try:  # a set shorter than the list holds a repeated word, which Element(...) reduces mod 2
            col = frozenset(map(single, map(_first, words)) if {1}.issuperset(map(len, words)) else map(tuple, map(resolve, words)))
            cols[name] = Element._of(col) if len(col) == len(words) else Element(map(resolve, words))
        except KeyError as exc:
            raise StructureError(
                f"differential[{name!r}] uses unknown generator {exc.args[0]!r}", UNKNOWN_GENERATOR
            ) from None
    dga = DGA(tuple(gens), tuple(map(cols.__getitem__, index)))
    validate_dga(dga)

    raw_patches = doc["patches"]
    if type(raw_patches) is not list:
        raise StructureError("'patches' must be an array", BAD_SCHEMA)
    patches = []
    for i, corners in enumerate(raw_patches):
        if type(corners) is not list:
            raise StructureError(f"patches[{i}] must be an array of corners", BAD_SCHEMA)
        if corners == []:  # the inequality 0 > 0
            raise StructureError(f"patches[{i}] has no corners", BAD_PATCH)
        form: dict[int, int] = {}
        for corner in corners:
            if not (type(corner) is dict and corner.keys() == {"name", "coeff"}):
                raise StructureError(f"patches[{i}] corners must be objects with keys 'name' and 'coeff'", BAD_SCHEMA)
            cname, coeff = corner["name"], corner["coeff"]
            if type(cname) is not str:
                raise StructureError(f"patches[{i}] corner names must be strings", BAD_SCHEMA)
            if cname not in index:
                raise StructureError(f"patches[{i}] uses unknown generator {cname!r}", UNKNOWN_GENERATOR)
            if type(coeff) is not int:
                raise StructureError(f"patches[{i}] coefficient for {cname!r} must be an integer", BAD_SCHEMA)
            if coeff not in (-2, -1, 1, 2):
                raise StructureError(f"patches[{i}] coefficient {coeff} for {cname!r} is not in {{-2,-1,1,2}}", BAD_PATCH)
            if index[cname] in form:
                raise StructureError(f"patches[{i}] uses {cname!r} twice", BAD_PATCH)
            form[index[cname]] = coeff
        patches.append(tuple(sorted(form.items())))

    if type(doc.get("ng_resolved", False)) is not bool:
        raise StructureError("'ng_resolved' must be a boolean", BAD_SCHEMA)
    diagram = LagrangianDiagramData(crossings=tuple(range(len(gens))), patches=tuple(patches))

    heights = None
    if "heights" in doc:
        raw_heights = doc["heights"]
        if type(raw_heights) is not dict:
            raise StructureError("'heights' must be an object", BAD_SCHEMA)
        for name in raw_heights:
            if name not in index:
                raise StructureError(f"heights key {name!r} is not a generator", UNKNOWN_GENERATOR)
        for name in index:
            if name not in raw_heights:
                raise StructureError(f"missing height for generator {name!r}", BAD_HEIGHT)
            value = raw_heights[name]
            if type(value) not in (int, Fraction):
                raise StructureError(f"height of {name!r} must be a number", BAD_HEIGHT)
            if value.numerator <= 0:
                raise StructureError(f"height of {name!r} must be positive, got {value}", BAD_HEIGHT)
        heights = HeightAssignment(tuple(map(raw_heights.__getitem__, index)))

    if type(doc.get("meta", {})) is not dict:  # checked, not kept
        raise StructureError("'meta' must be an object", BAD_SCHEMA)
    return KnotData(dga=dga, diagram=diagram, heights=heights)


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StructureError(str(exc), UNREADABLE_FILE) from None


def load_knot(path) -> KnotData:
    return parse_knot_file(_read(path))


# ---------------------------------------------------------------------------
# barcode files

def parse_barcode_file(data: bytes | str) -> Barcode:
    from .persist import Bar, Barcode  # imported here, so that a knot command does not load persist
    doc = _load_json(data)
    if not (type(doc) is dict and "bars" in doc and type(doc["bars"]) is list):
        raise StructureError("barcode file must be an object with a 'bars' array", BAD_SCHEMA)
    required = {"degree", "birth", "death"}
    allowed = required | {"birth_label", "death_label"}
    bars = []
    # Exact type tests, as in parse_knot_file; each end keeps the type JSON gave
    # it, and a death is compared with "inf" only when it is no number.
    for i, entry in enumerate(doc["bars"]):
        if type(entry) is not dict:
            raise StructureError(f"bars[{i}] must be an object", BAD_SCHEMA)
        if not required <= entry.keys() <= allowed:  # one set test; the loops only name the fault
            for key in entry:
                if key not in allowed:
                    raise StructureError(f"bars[{i}] has unknown key {key!r}", BAD_SCHEMA)
            for key in ("degree", "birth", "death"):
                if key not in entry:
                    raise StructureError(f"bars[{i}] is missing {key!r}", BAD_SCHEMA)
        degree, birth, death = entry["degree"], entry["birth"], entry["death"]
        if type(degree) is not int:
            raise StructureError(f"bars[{i}].degree must be an integer", BAD_SCHEMA)
        if type(birth) not in (int, Fraction):
            raise StructureError(f"bars[{i}].birth must be a number", BAD_SCHEMA)
        if type(death) not in (int, Fraction):
            if death != "inf":
                raise StructureError(f"bars[{i}].death must be a number or 'inf'", BAD_SCHEMA)
            death = math.inf
        birth_label = death_label = None
        if len(entry) > 3:  # a label key is present
            birth_label, death_label = entry.get("birth_label"), entry.get("death_label")
            for key, label in (("birth_label", birth_label), ("death_label", death_label)):
                if label is not None:
                    if type(label) is not str:
                        raise StructureError(f"bars[{i}].{key} must be a string", BAD_SCHEMA)
                    _check_text(label, "bars[{}].{}", i, key)
        if not birth < death:
            raise StructureError(f"bars[{i}]: bar must have birth < death, got [{birth}, {death})", INVALID_BAR)
        bars.append(Bar(degree, birth, death, birth_label, death_label))
    return Barcode(tuple(bars))


# json.dumps(s, ensure_ascii=False) for a str s, without building an encoder
_json_string = json.encoder.encode_basestring


def serialize_barcode_file(b: Barcode) -> bytes:
    """The file ``parse_barcode_file`` reads: each bar's keys in sorted order,
    two-space indent, exact decimals, and a label only when it is set."""
    entries = []
    for bar in b.bars:
        fields = [f'"birth": {decimal_str(bar.birth)}']
        if bar.birth_label is not None:
            fields.append(f'"birth_label": {_json_string(bar.birth_label)}')
        fields.append(f'"death": {decimal_str(bar.death)}' if bar.finite else '"death": "inf"')
        if bar.death_label is not None:
            fields.append(f'"death_label": {_json_string(bar.death_label)}')
        fields.append(f'"degree": {decimal_str(bar.degree)}')
        entries.append("    {\n      " + ",\n      ".join(fields) + "\n    }")
    bars = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return f'{{\n  "bars": {bars}\n}}\n'.encode("utf-8")


def load_barcode(path) -> Barcode:
    return parse_barcode_file(_read(path))


# ---------------------------------------------------------------------------
# rendering

_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


def render_barcode(b: Barcode, format: str = "text", color: bool = False) -> bytes:
    if format == "text":
        return _render_text(b, color)
    if format == "svg":
        return _render_svg(b)
    raise ValueError(f"unknown render format {format!r}")


def _render_text(b: Barcode, color: bool) -> bytes:
    lines = [f"# bars: {len(b.bars)}"]
    for bar in b.bars:
        head = f"H{bar.degree}"
        if color:
            head = f"{_BOLD}{head}{_RESET}"
        interval = f"[{format_extended(bar.birth)}, {format_extended(bar.death)})"
        line = f"{head}  {interval}"
        if bar.birth_label:
            line += f"  {bar.birth_label}"
            if bar.death_label:
                line += f" -> {bar.death_label}"
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _xml_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_svg(b: Barcode) -> bytes:
    left, top, row_height, width = 120.0, 24.0, 22.0, 640.0
    span = width - left - 60.0
    finite = [bar.finite for bar in b.bars]
    finite_ends = [bar.birth for bar in b.bars] + [bar.death for bar, f in zip(b.bars, finite) if f]
    ratios = [(t.numerator, t.denominator) for t in finite_ends]
    # Divide every end by 2^shift, which is exact, so that the largest converts to
    # a float; shift is 0 unless some end passes about 2^1000.
    shift = max([0] + [n.bit_length() - d.bit_length() - 1000 for n, d in ratios])
    reals = [n / (d << shift) for n, d in ratios]
    t_max = max(reals, default=1.0) * 1.15 or 1.0
    xs = [left + span * t / t_max for t in reals]  # each end's x once: the births', then the finite deaths'
    death_xs = iter(xs[len(b.bars):])

    height = top * 2 + row_height * max(len(b.bars), 1) + 20.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<style>text{font-family:monospace;font-size:11px;}</style>',
    ]
    axis_y = height - 18.0
    parts.append(
        f'<line x1="{left:.1f}" y1="{axis_y:.1f}" x2="{left + span:.1f}" y2="{axis_y:.1f}" '
        'stroke="black" stroke-width="1"/>'
    )
    scale = math.lcm(*(d for _, d in ratios))  # integer keys sort as the ends do
    ticks = {n * (scale // d): (t, tx) for (n, d), t, tx in zip(((0, 1), *ratios), (0, *finite_ends), (left, *xs))}
    low, high, under = f"{axis_y - 3:.1f}", f"{axis_y + 3:.1f}", f"{axis_y + 14:.1f}"
    for _, (t, tx) in sorted(ticks.items()):
        x = f"{tx:.1f}"
        parts.append(f'<line x1="{x}" y1="{low}" x2="{x}" y2="{high}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x}" y="{under}" text-anchor="middle">{format_extended(t)}</text>')
    for i, (bar, x0, f) in enumerate(zip(b.bars, xs, finite)):
        y = top + row_height * i + row_height / 2
        x1 = next(death_xs) if f else left + span + 16.0
        parts.append(
            f'<line x1="{x0:.1f}" y1="{y:.1f}" x2="{x1:.1f}" y2="{y:.1f}" '
            'stroke="black" stroke-width="4" stroke-linecap="butt"/>'
        )
        if not f:
            parts.append(f'<path d="M {x1:.1f} {y - 5:.1f} L {x1 + 8:.1f} {y:.1f} L {x1:.1f} {y + 5:.1f} Z" fill="black"/>')
        caption = f"H{bar.degree} {bar.birth_label}" if bar.birth_label else f"H{bar.degree}"
        parts.append(f'<text x="{x0 - 6:.1f}" y="{y + 4:.1f}" text-anchor="end">{_xml_text(caption)}</text>')
        if bar.death_label:
            parts.append(f'<text x="{x1 + 6:.1f}" y="{y + 4:.1f}" text-anchor="start">{_xml_text(bar.death_label)}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
