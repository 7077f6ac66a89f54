"""The public records: value semantics, and a cold import graph that holds
neither ``dataclasses`` nor ``inspect`` and, per command, only the modules it runs.

Eleven records are named tuples, so they also have a length, iterate and
equal a plain tuple of their fields.  ``Element`` and ``DGA`` are not tuples:
a DGA's length is its generator count, and ``Element(...)`` keeps each word of
odd count.
"""

import copy
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import legch
from legch.algebra import DGA, Element, Generator, HeightAssignment
from legch.augment import Augmentation, LinearizedComplex
from legch.diagram import LagrangianDiagramData, Tiering
from legch.fileio import KnotData
from legch.metrics import LaurentPolynomial, StrongMorseReport
from legch.persist import Bar, Barcode, FilteredComplex

from support import corpus_file

ROOT = Path(__file__).resolve().parent.parent


def _generators():
    return (Generator(0, "a", 1), Generator(1, "b", 0))


def _dga():
    return DGA(_generators(), (Element([(1,)]), Element()))


# Each record with fresh field values, in field order; two calls give equal fields.
FIELDS = {
    Generator: lambda: {"gid": 0, "name": "a", "grading": 1},
    Element: lambda: {"words": [(0, 1), (1,)]},
    DGA: lambda: {"generators": _generators(), "differential": (Element([(1,)]), Element())},
    HeightAssignment: lambda: {"heights": (2, Fraction(1, 2))},
    Augmentation: lambda: {"values": (0, 1)},
    LinearizedComplex: lambda: {"generators": _generators(), "columns": (frozenset({1}), frozenset())},
    LagrangianDiagramData: lambda: {"crossings": (0, 1), "patches": (((0, 1), (1, 1)),)},
    Tiering: lambda: {"tiers": (frozenset({0}), frozenset({1})), "status": "success", "unassigned": frozenset()},
    FilteredComplex: lambda: {
        "generators": _generators(),
        "heights": HeightAssignment((2, 1)),
        "columns": (frozenset({1}), frozenset()),
    },
    Bar: lambda: {"degree": 0, "birth": Fraction(1, 2), "death": math.inf, "birth_label": "b", "death_label": None},
    Barcode: lambda: {"bars": (Bar(0, 1, 2), Bar(1, 1, math.inf))},
    StrongMorseReport: lambda: {
        "mc": LaurentPolynomial({0: 1, 1: 1}),
        "pc": LaurentPolynomial(),
        "finite_bars": LaurentPolynomial({0: 1}),
        "holds": True,
    },
    KnotData: lambda: {
        "dga": _dga(),
        "diagram": LagrangianDiagramData((0, 1), (((0, 1), (1, 1)),)),
        "heights": HeightAssignment((2, 1)),
    },
}
RECORDS = pytest.mark.parametrize("record", list(FIELDS), ids=lambda record: record.__name__)


@RECORDS
def test_positional_and_keyword_construction_agree(record):
    fields = FIELDS[record]()
    built = record(*fields.values())
    assert built == record(**fields)
    assert type(built) is record
    for name, value in fields.items():
        if record is not Element:  # its words are normalised, checked below
            assert getattr(built, name) == value


@RECORDS
def test_equal_fields_give_equal_records_and_hashes(record):
    first, second = record(**FIELDS[record]()), record(**FIELDS[record]())
    assert first == second and not first != second
    if record is StrongMorseReport:  # its counting polynomials are dicts
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@RECORDS
def test_fields_are_read_only(record):
    built = record(**FIELDS[record]())
    for name in FIELDS[record]():
        with pytest.raises(AttributeError):
            setattr(built, name, None)
        with pytest.raises(AttributeError):
            delattr(built, name)


@RECORDS
def test_records_with_different_fields_differ(record):
    fields = FIELDS[record]()
    changed = dict(fields, **{next(iter(fields)): [(0,)] if record is Element else "other"})
    assert record(**fields) != record(**changed)


@RECORDS
def test_copies_and_pickles_are_equal(record):
    built = record(**FIELDS[record]())
    for clone in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert clone == built and type(clone) is record


def test_bar_labels_default_to_none_and_finite_reads_the_death():
    bar = Bar(1, 2, 3)
    assert (bar.birth_label, bar.death_label) == (None, None)
    assert bar.finite and not Bar(1, 2, float("inf")).finite


def test_element_and_dga_are_not_tuples():
    dga = _dga()
    assert not isinstance(dga, tuple) and not isinstance(Element(), tuple)
    assert len(dga) == 2
    assert Element([(0,), (1, 0), (0,)]) == Element([(1, 0)])
    assert not Element([(0,), (0,)]) and Element([()])
    assert dga.compiled_words is dga.compiled_words  # compiled once
    assert repr(Element([(0,)])) == "Element(words=frozenset({(0,)}))"


# Each command, and the legch submodules it loads besides algebra, cli, diagram
# and fileio: the handlers import augment, persist and metrics where they run them.
COLD_COMMANDS = [
    (["validate", "trefoil"], []),
    (["flood", "trefoil"], []),
    (["augment", "trefoil"], ["augment"]),
    (["linearize", "trefoil", "--aug", "1"], ["augment"]),
    (["barcode", "trefoil", "--render", "text"], ["augment", "persist"]),
    (["morse", "trefoil"], ["augment", "metrics", "persist"]),
    (["distance", "bars", "bars"], ["augment", "metrics", "persist"]),
]


def test_cold_cli_import_leaves_out_dataclasses_and_inspect(tmp_path):
    """Each ``legch`` command starts a fresh interpreter, so what it imports is
    paid on every command; pytest imports every module itself, so only a fresh
    interpreter can tell.  Per command: its exit code and the legch submodules
    it loads; then, with ``legch.corpus`` too, whether ``dataclasses`` or
    ``inspect`` came in."""
    bars = tmp_path / "bars.json"
    bars.write_text('{"bars": [{"degree": 0, "birth": 1, "death": 2}]}')
    paths = {"trefoil": str(corpus_file("trefoil")), "bars": str(bars)}
    code = (
        "import io, sys; before = set(sys.modules)\n"
        "from legch.cli import cli_dispatch\n"
        "code = cli_dispatch(sys.argv[1:], io.StringIO(), io.StringIO())\n"
        "print(code, *sorted(m[6:] for m in sys.modules if m.startswith('legch.')))\n"
        "import legch.corpus\n"
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded, expected = {}, {}
    for argv, modules in COLD_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-c", code, *[paths.get(arg, arg) for arg in argv]],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded[argv[0]] = proc.stdout
        expected[argv[0]] = f"0 {' '.join(sorted(['algebra', 'cli', 'diagram', 'fileio', *modules]))}\n[]\n"
    assert loaded == expected


def test_the_package_names_only_its_submodules():
    """Only a submodule's name resolves on the package; ``__main__``, which would run the CLI, is not one."""
    with pytest.raises(AttributeError, match="module 'legch' has no attribute 'nosuch'"):
        legch.nosuch
    assert not hasattr(legch, "__main__")
