import json
import math
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch import algebra
from legch.algebra import (
    D_SQUARED_NONZERO,
    DGA,
    GRADING_VIOLATION,
    Element,
    Generator,
    HeightAssignment,
    StructureError,
    format_element,
    format_word,
    validate_dga,
)
from legch.fileio import parse_knot_file

from support import (
    ONE,
    apply_differential,
    dga_from_complex,
    dga_of,
    gid_of,
    height_of_element,
    knot_doc,
    load_corpus,
    planted_complex,
    plus,
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
    elem = plus(Element([(0,)]), Element([(1,)]))
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
    lhs = height_of_element(plus(a, b), h)
    bound = max(height_of_element(a, h), height_of_element(b, h))
    assert lhs <= bound
    if w1 != w2:
        assert lhs == bound


# --- element arithmetic ---------------------------------------------------

elements = st.lists(words, min_size=0, max_size=5).map(Element)


@given(elements)
def test_element_self_inverse(a):
    assert plus(a, a) == Element()


@given(elements, elements)
def test_element_addition_commutes(a, b):
    assert plus(a, b) == plus(b, a)


@given(elements, elements, elements)
def test_element_addition_associates(a, b, c):
    assert plus(plus(a, b), c) == plus(a, plus(b, c))


@given(elements, elements, elements)
def test_multiplication_distributes(a, b, c):
    assert times(plus(a, b), c) == plus(times(a, c), times(b, c))


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
    assert apply_differential(times(a, b), TREFOIL) == plus(times(da, b), times(a, db))


# --- validation -----------------------------------------------------------

def test_corpus_dgas_are_valid():
    for name in ("unknot", "trefoil", "trefoil_rii", "island"):
        validate_dga(load_corpus(name).dga)


def test_constant_differential_variant_is_valid():
    # A single grading-1 generator with d(q) = 1 passes both checks even though
    # it admits no augmentation.
    dga = dga_of([("q", 1)], {"q": [[]]})
    validate_dga(dga)


def test_grading_violation_reported():
    dga = dga_of([("q", 1)], {"q": [["q"]]})
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == GRADING_VIOLATION


def test_d_squared_violation_reported():
    dga = dga_of(
        [("a", 2), ("b", 1), ("c", 0)],
        {"a": [["b"]], "b": [["c"]], "c": []},
    )
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == D_SQUARED_NONZERO
    assert str(info.value) == "d(d(a)) = c is nonzero"


def test_every_grading_is_checked_before_any_d_squared():
    # d(d(a)) = c is nonzero, but x, a later generator, breaks the grading.
    dga = dga_of(
        [("a", 2), ("b", 1), ("c", 0), ("x", 1)],
        {"a": [["b"]], "b": [["c"]], "c": [], "x": [["x"]]},
    )
    with pytest.raises(StructureError) as info:
        validate_dga(dga)
    assert info.value.code == GRADING_VIOLATION
    assert str(info.value) == "word x in d(x) has grading 1, expected 0"


def test_the_first_bad_word_of_the_first_bad_column_is_named():
    # d(a) holds two bad words, xx and by; c, a later generator, holds a third.
    # The message names the column's least bad word, shortest first, then by ids.
    dga = dga_of(
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


def test_equal_columns_name_the_same_bad_word():
    # q0, q1 and q2 all have grading 0, so both 1 and q2 are bad words in d(q0).
    # Built in two ways, the column is one frozenset whose iteration order may differ.
    dga = dga_of([("q0", 0), ("q1", 0), ("q2", 0)], {"q0": [], "q1": [], "q2": []})
    message = "word 1 in d(q0) has grading 0, expected -1"
    for column in (Element([(0,), (0,), (2,), ()]), plus(Element([(2,)]), Element([()]))):
        assert column == Element([(2,), ()])
        built = DGA(dga.generators, (column, Element(), Element()))
        for validate in (validate_dga, validate_dga_per_letter):
            assert outcome(validate, built) == (GRADING_VIOLATION, message)


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
        cols[g.gid] = plus(cols[g.gid], Element([word]))
        toggled = DGA(dga.generators, tuple(cols))
        assert outcome(validate_dga, toggled)[0] == code
        assert outcome(validate_dga, toggled) == outcome(validate_dga_per_letter, toggled)


def test_a_planted_knot_file_validates_and_a_toggled_word_fails_as_before():
    """The toggles above, read from knot-file bytes at n > 2000.  Two more
    generators give one column that mixes one-letter and longer words: u = ab,
    d(x) = d(u) and d(y) = x + u, so d(d(y)) = d(u) + d(u) = 0."""
    fc, _ = planted_complex(Random(5), max_n=2600)
    dga = dga_from_complex(fc)
    n = len(dga)
    assert n > 2000
    a, b = next(
        (a, b) for a in dga.generators for b in dga.generators if dga.differential[a.gid] and dga.differential[b.gid]
    )
    u = (a.gid, b.gid)
    x = Generator(n, "x", a.grading + b.grading)
    y = Generator(n + 1, "y", x.grading + 1)
    cols = [*dga.differential, apply_differential(Element([u]), dga), Element([(x.gid,), u])]
    dga = DGA((*dga.generators, x, y), tuple(cols))
    assert {len(w) for w in cols[y.gid].words} == {1, 2}

    def read(d):
        return parse_knot_file(json.dumps(knot_doc(d)).encode()).dga

    assert read(dga) == dga
    g, p = next(
        (g, p)
        for g in dga.generators
        for p in dga.generators
        if p.grading == g.grading - 1 and dga.differential[p.gid] and g.gid < n
    )
    q = next(q for q in dga.generators if q.grading == x.grading and dga.differential[q.gid])
    for target, word, code in [
        (g, (p.gid,), D_SQUARED_NONZERO),
        (g, (g.gid,), GRADING_VIOLATION),
        (y, (q.gid,), D_SQUARED_NONZERO),
        (y, (y.gid,), GRADING_VIOLATION),
    ]:
        cols = list(dga.differential)
        cols[target.gid] = plus(cols[target.gid], Element([word]))
        toggled = DGA(dga.generators, tuple(cols))
        assert outcome(read, toggled)[0] == code
        assert outcome(read, toggled) == outcome(validate_dga_per_letter, toggled)


@st.composite
def dgas_with_an_element(draw):
    """Arbitrary gradings and words, one-letter and longer mixed, and an element
    over the same generators.  Half of the DGAs keep only the words that drop the
    grading by 1, and their element only the words of its last word's grading, so
    that validation reaches d², which need not vanish.

    Half of them also get a generator x with d(x) = d(u) for a longer word u,
    and one above it with d = x + u; the element then ends in x and u, so x's
    whole column cancels u's expansion term by term."""
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
    words = draw(st.lists(word, min_size=1, max_size=6))
    if draw(st.booleans()):
        u = draw(st.lists(letter, min_size=2, max_size=3).map(tuple))
        x = Generator(n, f"g{n}", sum(gradings[g] for g in u))
        gens += [x, Generator(n + 1, f"g{n + 1}", x.grading + 1)]
        cols += [apply_differential(Element([u]), DGA(tuple(gens[:n]), tuple(cols))), Element([(n,), u])]
        gradings.append(x.grading)
        words += [(n,), u]
    if graded:
        words = [w for w in words if sum(gradings[x] for x in w) == sum(gradings[x] for x in words[-1])]
    return DGA(tuple(gens), tuple(cols)), Element(words)


def headed_by(elem: Element, dga: DGA) -> DGA:
    """``dga`` behind a new first generator t with d(t) = ``elem``, every other id
    one higher.  t's grading is one above the least grading of ``elem``'s words,
    so when they all share it and ``dga`` passes the grading check,
    validation reaches d(d(t)) = d(elem) before any other d²."""
    grading = 1 + min((word_grading(w, dga) for w in elem.words), default=0)

    def shifted(e):
        return Element(tuple(g + 1 for g in w) for w in e.words)

    gens = [Generator(0, "t", grading), *(g._replace(gid=g.gid + 1) for g in dga.generators)]
    return DGA(tuple(gens), (shifted(elem), *map(shifted, dga.differential)))


@settings(max_examples=300, deadline=None)
@given(dgas_with_an_element())
def test_differential_and_validation_match_the_former_code(case):
    dga, elem = case
    # the code and the whole message, so a D_SQUARED_NONZERO lists the same words
    assert outcome(validate_dga, dga) == outcome(validate_dga_per_letter, dga)
    # the element's image, as the d² of a column that validation checks first
    headed = headed_by(elem, dga)
    assert outcome(validate_dga, headed) == outcome(validate_dga_per_letter, headed)


def test_a_column_cancels_a_longer_words_expansion():
    # d(x) = wz and d(y) = w, so d(x + yz) = wz + wz = 0; d(v) = x + yz + y adds w.
    gens = tuple(Generator(i, name, k) for i, (name, k) in enumerate([("w", 0), ("z", 0), ("y", 1), ("x", 1), ("g", 2), ("v", 2)]))
    w, z, y, x, _, v = range(6)
    cols = [Element(), Element(), Element([(w,)]), Element([(w, z)]), Element([(x,), (y, z)]), Element([(x,), (y, z), (y,)])]
    dga = DGA(gens, tuple(cols))
    without_v = DGA(gens[:v], tuple(cols[:v]))
    assert outcome(validate_dga, without_v) is None is outcome(validate_dga_per_letter, without_v)
    assert outcome(validate_dga, dga) == (D_SQUARED_NONZERO, "d(d(v)) = w is nonzero")
    assert outcome(validate_dga, dga) == outcome(validate_dga_per_letter, dga)


# --- d² expands only the words that hold a letter whose differential is nonzero

def with_a_live_cycle(n: int, j: int) -> DGA:
    """T(2,n) with a generator c of grading -1 and d(b_j) = c: b_j, of grading 0,
    is no longer a cycle, and every word of d(a1) and d(a2) that holds it
    expands to a word that holds c."""
    dga = torus_2n_dga(n)
    c = Generator(len(dga), "c", -1)
    cols = [*dga.differential, Element()]
    cols[gid_of(dga, f"b{j}")] = Element([(c.gid,)])
    return DGA((*dga.generators, c), tuple(cols))


@pytest.mark.parametrize("n, j", [(n, j) for n in (5, 9) for j in range(1, n + 1)])
def test_a_torus_letter_with_a_differential_fails_d_squared_as_before(n, j):
    dga = with_a_live_cycle(n, j)
    code, message = outcome(validate_dga, dga)
    assert code == D_SQUARED_NONZERO and "c" in message.split(" = ")[1]
    assert outcome(validate_dga, dga) == outcome(validate_dga_per_letter, dga)


def dga_with_cycles(rng: Random) -> DGA:
    """A DGA in which at least half of the generators are cycles, of gradings
    -1 to 1.  Each live letter maps to one word of cycles.  Each pair (x, y)
    over a word u of 2 to 6 letters, cycles and live letters mixed, has
    d(x) = d(u) and d(y) = x + u, so d(d(y)) = 0; in half of the DGAs one y
    loses x, and its d² is d(u)."""
    gradings, cols = [], []

    def add(grading, words):
        gradings.append(grading)
        cols.append(Element(words))
        return len(cols) - 1

    cycles = [add(rng.randint(-1, 1), []) for _ in range(rng.randint(4, 8))]
    live = []
    for _ in range(rng.randint(1, len(cycles) // 3)):
        word = tuple(rng.choices(cycles, k=rng.randint(0, 3)))
        live.append(add(sum(gradings[g] for g in word) + 1, [word]))
    pairs = []
    for _ in range(rng.randint(1, (len(cycles) - len(live)) // 2)):
        u = tuple(rng.choices(cycles + live, k=rng.randint(2, 6)))
        gens = tuple(Generator(i, f"g{i}", k) for i, k in enumerate(gradings))
        x = add(sum(gradings[g] for g in u), apply_differential(Element([u]), DGA(gens, tuple(cols))).words)
        pairs.append((add(gradings[x] + 1, [(x,), u]), x))
    if rng.random() < 0.5:
        y, x = rng.choice(pairs)
        cols[y] = plus(cols[y], Element([(x,)]))
    return DGA(tuple(Generator(i, f"g{i}", k) for i, k in enumerate(gradings)), tuple(cols))


def test_dgas_of_cycles_and_live_letters_validate_as_the_per_letter_oracle_does():
    seen = Counter()
    for seed in range(300):
        dga = dga_with_cycles(Random(seed))
        live = {g for g, elem in enumerate(dga.differential) if elem}
        assert 2 * len(live) <= len(dga)
        for word in (w for elem in dga.differential for w in elem.words if len(w) > 1):
            seen[len(live.intersection(word)), len(set(word) - live) > 0] += 1
            seen["live grading 0"] += any(dga.generators[g].grading == 0 for g in live.intersection(word))
        got = outcome(validate_dga, dga)
        assert got == outcome(validate_dga_per_letter, dga), seed
        seen[got and got[0]] += 1
    # both outcomes, and long words of cycles only, of one live letter among
    # cycles and of several live letters, some of them of grading 0
    assert seen[None] > 50 and seen[D_SQUARED_NONZERO] > 50, seen
    assert seen[0, True] and seen[1, True] and seen[2, True] and seen["live grading 0"], seen


def test_a_torus_file_validates_without_expanding_a_word_of_cycles(monkeypatch):
    """Every word of T(2,13)'s differential is a product of the cycles b_i, so
    d² builds no ``Element`` and looks up no letter's differential."""
    dga = torus_2n_dga(13)
    built, looked_up = [], []

    class Counted(Element):
        def __init__(self, words=()):
            built.append(self)
            super().__init__(words)

    class Lookups(tuple):
        def __getitem__(self, i):
            looked_up.append(i)
            return super().__getitem__(i)

    monkeypatch.setattr(algebra, "Element", Counted)
    validate_dga(DGA(dga.generators, Lookups(dga.differential)))
    assert (built, looked_up) == ([], [])


def test_dga_structure_checks():
    """Names and letters are checked where a DGA enters, in the knot-file parser."""
    for generators, differential, message in [
        ([("a", 0), ("a", 1)], {"a": []}, "[DUPLICATE_NAME] generator name 'a' appears twice"),
        ([("a", 0)], {}, "[BAD_SCHEMA] missing differential for generator 'a'"),
        ([("a", 0)], {"a": [["zz"]]}, "[UNKNOWN_GENERATOR] differential['a'] uses unknown generator 'zz'"),
    ]:
        gens = [{"name": name, "grading": k} for name, k in generators]
        doc = {"generators": gens, "differential": differential, "patches": []}
        with pytest.raises(StructureError) as info:
            parse_knot_file(json.dumps(doc))
        assert f"[{info.value.code}] {info.value}" == message


def test_format_element():
    e = plus(Element([(gid("q3"),)]), Element([(gid("q5"),)]))
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
