import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import (
    D_SQUARED_NONZERO,
    DGA,
    GRADING_VIOLATION,
    Element,
    Generator,
    HeightAssignment,
    StructureError,
    apply_differential,
    format_element,
    format_word,
    validate_dga,
)

from support import (
    ONE,
    apply_differential_per_letter,
    dga_from_complex,
    gid_of,
    height_of_element,
    load_corpus,
    planted_complex,
    times,
    torus_2n_dga,
    validate_dga_per_letter,
    word_grading,
)

TREFOIL = load_corpus("trefoil").dga
TREFOIL_H = load_corpus("trefoil").heights


def gid(name):
    return gid_of(TREFOIL, name)


# --- words and gradings -------------------------------------------------

def test_unit_word_has_grading_zero():
    assert word_grading((), TREFOIL) == 0


def test_trefoil_word_gradings():
    assert word_grading((gid("q5"), gid("q4"), gid("q3")), TREFOIL) == 0
    assert word_grading((gid("q1"), gid("q3")), TREFOIL) == 1


words = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=4
).map(tuple)


@given(words, words)
def test_word_grading_additive_under_concatenation(w1, w2):
    assert word_grading(w1 + w2, TREFOIL) == word_grading(w1, TREFOIL) + word_grading(
        w2, TREFOIL
    )


# --- heights -------------------------------------------------------------

def test_height_of_product_word():
    h = HeightAssignment((4, 4))
    assert height_of_element(Element([(0, 1)]), h) == 8


def test_height_of_sum_is_max():
    h = HeightAssignment((1, 1))
    elem = Element([(0,)]) + Element([(1,)])
    assert height_of_element(elem, h) == 1


def test_height_of_zero_is_minus_infinity():
    assert height_of_element(Element(), HeightAssignment(())) == -math.inf


def test_height_of_unit_word_is_zero():
    assert height_of_element(ONE, HeightAssignment(())) == 0


@given(words, words)
def test_height_multiplicative_on_words(w1, w2):
    h = TREFOIL_H
    a, b = Element([w1]), Element([w2])
    assert height_of_element(times(a, b), h) == height_of_element(a, h) + height_of_element(
        b, h
    )


@given(words, words)
def test_height_of_sum_bounded_by_max(w1, w2):
    h = TREFOIL_H
    a, b = Element([w1]), Element([w2])
    lhs = height_of_element(a + b, h)
    bound = max(height_of_element(a, h), height_of_element(b, h))
    assert lhs <= bound
    if w1 != w2:
        assert lhs == bound


# --- element arithmetic ---------------------------------------------------

elements = st.lists(words, min_size=0, max_size=5).map(Element)


@given(elements)
def test_element_self_inverse(a):
    assert a + a == Element()


@given(elements, elements)
def test_element_addition_commutes(a, b):
    assert a + b == b + a


@given(elements, elements, elements)
def test_element_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(elements, elements, elements)
def test_multiplication_distributes(a, b, c):
    assert times(a + b, c) == times(a, c) + times(b, c)


@given(elements)
def test_unit_is_multiplicative_identity(a):
    assert times(ONE, a) == a
    assert times(a, ONE) == a


def test_zero_element_distinct_from_unit():
    assert Element() != ONE
    assert not Element()
    assert ONE


def test_mod_two_reduction_of_duplicate_words():
    assert Element([(0,), (0,)]) == Element()
    assert Element([(0,), (1,), (0,)]) == Element([(1,)])


# --- differential ---------------------------------------------------------

def test_trefoil_differential_of_q1():
    image = apply_differential(Element([(gid("q1"),)]), TREFOIL)
    expected = Element(
        [
            (),
            (gid("q5"),),
            (gid("q5"), gid("q4"), gid("q3")),
            (gid("q3"),),
        ]
    )
    assert image == expected


def test_differential_kills_unit():
    assert apply_differential(ONE, TREFOIL) == Element()


def test_differential_of_q3q4_vanishes():
    w = Element([(gid("q3"), gid("q4"))])
    assert apply_differential(w, TREFOIL) == Element()


@given(elements)
def test_differential_squares_to_zero(a):
    once = apply_differential(a, TREFOIL)
    assert apply_differential(once, TREFOIL) == Element()


def test_leibniz_rule_on_products():
    a = Element([(gid("q1"),)])
    b = Element([(gid("q2"),)])
    da = apply_differential(a, TREFOIL)
    db = apply_differential(b, TREFOIL)
    assert apply_differential(times(a, b), TREFOIL) == times(da, b) + times(a, db)


# --- validation -----------------------------------------------------------

def test_corpus_dgas_are_valid():
    for name in ("unknot", "trefoil", "trefoil_rii", "island"):
        validate_dga(load_corpus(name).dga)


def test_constant_differential_variant_is_valid():
    # A single grading-1 generator with d(q) = 1 passes both checks even though
    # it admits no augmentation.
    dga = DGA.from_data([("q", 1)], {"q": [[]]})
    validate_dga(dga)


def test_grading_violation_reported():
    dga = DGA.from_data([("q", 1)], {"q": [["q"]]})
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == GRADING_VIOLATION


def test_d_squared_violation_reported():
    dga = DGA.from_data(
        [("a", 2), ("b", 1), ("c", 0)],
        {"a": [["b"]], "b": [["c"]], "c": []},
    )
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == D_SQUARED_NONZERO
    assert str(info.value) == "d(d(a)) = c is nonzero"


def test_every_grading_is_checked_before_any_d_squared():
    # d(d(a)) = c is nonzero, but x, a later generator, breaks the grading.
    dga = DGA.from_data(
        [("a", 2), ("b", 1), ("c", 0), ("x", 1)],
        {"a": [["b"]], "b": [["c"]], "c": [], "x": [["x"]]},
    )
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == GRADING_VIOLATION
    assert str(info.value) == "word x in d(x) has grading 1, expected 0"


def test_the_first_bad_word_of_the_first_bad_column_is_named():
    # d(a) holds two bad words, xx and by; c, a later generator, holds a third.
    # The message names the word the column's own iteration reaches first.
    dga = DGA.from_data(
        [("a", 2), ("b", 1), ("x", 0), ("y", 3), ("c", 1)],
        {"a": [["b"], ["x", "x"], ["b", "y"]], "b": [], "x": [], "y": [], "c": [["y"]]},
    )
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == GRADING_VIOLATION
    assert str(info.value) == "word by in d(a) has grading 4, expected 1"


# --- validation at scale, against the former per-letter code ----------------

def outcome(validate, dga):
    try:
        validate(dga)
    except StructureError as exc:
        return exc.code, str(exc)
    return None


def test_torus_2_19_validates():
    dga = torus_2n_dga(19)
    assert sum(len(elem.words) for elem in dga.differential) == 13532
    validate_dga(dga)


def test_planted_complex_validates_and_a_toggled_word_fails_as_before():
    fc, _ = planted_complex(Random(20), max_n=400)
    dga = dga_from_complex(fc)
    assert len(dga) > 300
    validate_dga(dga)
    # Toggling p in d(g) changes d(d(g)) by d(p), which is nonzero here.
    g, p = next(
        (g, p)
        for g in dga.generators
        for p in dga.generators
        if p.grading == g.grading - 1 and dga.differential[p.gid]
    )
    for word, code in [((p.gid,), D_SQUARED_NONZERO), ((g.gid,), GRADING_VIOLATION)]:
        cols = list(dga.differential)
        cols[g.gid] = cols[g.gid] + Element([word])
        toggled = DGA(dga.generators, tuple(cols))
        assert outcome(validate_dga, toggled)[0] == code
        assert outcome(validate_dga, toggled) == outcome(validate_dga_per_letter, toggled)


@st.composite
def dgas_with_an_element(draw):
    """Arbitrary gradings and words, one-letter and longer mixed, and an element
    over the same generators.  Half of the DGAs keep only the words that drop the
    grading by 1, so that validation reaches d², which need not vanish.

    Half of them also get a generator x with d(x) = d(u) for a longer word u,
    and one above it with d = x + u; the element then holds x and u, so x's whole
    column cancels u's expansion term by term."""
    n = draw(st.integers(1, 6))
    letter = st.integers(0, n - 1)
    word = st.one_of(letter.map(lambda g: (g,)), st.lists(letter, max_size=3).map(tuple))
    gradings = [draw(st.integers(0, 2)) for _ in range(n)]
    graded = draw(st.booleans())
    cols = []
    for k in gradings:
        words = draw(st.lists(word, max_size=6))
        if graded:
            words = [w for w in words if sum(gradings[x] for x in w) == k - 1]
        cols.append(Element(words))
    gens = [Generator(i, f"g{i}", k) for i, k in enumerate(gradings)]
    elem = Element(draw(st.lists(word, max_size=6)))
    if draw(st.booleans()):
        u = draw(st.lists(letter, min_size=2, max_size=3).map(tuple))
        x = Generator(n, f"g{n}", sum(gradings[g] for g in u))
        gens += [x, Generator(n + 1, f"g{n + 1}", x.grading + 1)]
        cols += [apply_differential_per_letter(Element([u]), DGA(tuple(gens[:n]), tuple(cols))), Element([(n,), u])]
        elem = elem + cols[-1]
    return DGA(tuple(gens), tuple(cols)), elem


@settings(max_examples=300, deadline=None)
@given(dgas_with_an_element())
def test_differential_and_validation_match_the_former_code(case):
    dga, elem = case
    assert apply_differential(elem, dga) == apply_differential_per_letter(elem, dga)
    # the code and the whole message, so a D_SQUARED_NONZERO lists the same words
    assert outcome(validate_dga, dga) == outcome(validate_dga_per_letter, dga)


def test_a_column_cancels_a_longer_words_expansion():
    # d(x) = wz and d(y) = w, so d(x + yz) = wz + wz = 0; d(v) = x + yz + y adds w.
    gens = tuple(Generator(i, name, k) for i, (name, k) in enumerate([("w", 0), ("z", 0), ("y", 1), ("x", 1), ("g", 2), ("v", 2)]))
    w, z, y, x, g, v = range(6)
    cols = [Element(), Element(), Element([(w,)]), Element([(w, z)]), Element([(x,), (y, z)]), Element([(x,), (y, z), (y,)])]
    dga = DGA(gens, tuple(cols))
    assert not apply_differential(cols[g], dga)
    assert apply_differential(cols[v], dga) == Element([(w,)]) == apply_differential_per_letter(cols[v], dga)
    assert outcome(validate_dga, dga) == (D_SQUARED_NONZERO, "d(d(v)) = w is nonzero")
    assert outcome(validate_dga, dga) == outcome(validate_dga_per_letter, dga)


def test_dga_structure_checks():
    with pytest.raises(StructureError):
        DGA.from_data([("a", 0), ("a", 1)], {"a": []})
    with pytest.raises(StructureError):
        DGA.from_data([("a", 0)], {})
    with pytest.raises(StructureError):
        DGA.from_data([("a", 0)], {"a": [["zz"]]})


def test_format_element():
    e = Element([(gid("q3"),)]) + Element([(gid("q5"),)])
    assert format_element(e, TREFOIL) == "q3 + q5"
    assert format_element(Element(), TREFOIL) == "0"
    assert format_element(ONE, TREFOIL) == "1"
    assert (
        format_element(apply_differential(Element([(gid("q1"),)]), TREFOIL), TREFOIL)
        == "1 + q3 + q5 + q5q4q3"
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), max_size=5).map(tuple), max_size=40))
def test_format_element_names_the_first_eight_of_all_words_sorted(words):
    elem = Element(words)
    ordered = sorted(elem.words, key=lambda w: (len(w), w))
    text = " + ".join(format_word(w, TREFOIL) for w in ordered[:8]) or "0"
    more = len(ordered) - 8
    if more > 0:
        text += f" + {more} more word{'s' * (more > 1)}"
    assert format_element(elem, TREFOIL) == text
