"""The public records: value semantics, and a cold import graph that holds
neither ``dataclasses`` nor ``inspect``.

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

from legch.algebra import DGA, Element, Generator, HeightAssignment
from legch.augment import Augmentation, LinearizedComplex
from legch.diagram import LagrangianDiagramData, Tiering
from legch.fileio import KnotData
from legch.metrics import LaurentPolynomial, StrongMorseReport
from legch.persist import Bar, Barcode, FilteredComplex

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


def test_cold_cli_import_leaves_out_dataclasses_and_inspect():
    """Each ``legch`` command starts a fresh interpreter, so what
    ``legch.cli`` imports is paid on every command; pytest imports both
    modules itself, so only a fresh interpreter can tell."""
    code = (
        "import sys; before = set(sys.modules); import legch.cli, legch.corpus; "
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
