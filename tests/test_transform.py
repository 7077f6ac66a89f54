"""The two moves of the invariance theorem, stabilization and conjugation by a
semimonotonic elementary automorphism (Chekanov 2002), and the theorem itself
as an oracle over the whole pipeline: a stabilization with gap delta adds one
bar [h_bot, h_top) to every barcode, which therefore moves by at most delta/2,
and a semimonotonic conjugation leaves the barcodes of all augmentations as
they were.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import DGA, Element, HeightAssignment, validate_dga
from legch.augment import Augmentation, enumerate_augmentations, linearized_differential, pick_augmentation
from legch.metrics import interleaving_distance
from legch.persist import build_filtered_complex, compute_barcode

from support import (
    check_chain_complex,
    conjugate,
    dga_from_complex,
    dga_of,
    flood_heights,
    gen,
    gid_of,
    height_of_element,
    is_semimonotonic,
    load_corpus,
    planted_complex,
    stabilize,
    torus_2n_dga,
    triples,
)

UNKNOT = load_corpus("unknot")
TREFOIL = load_corpus("trefoil")


def gid(name):
    return gid_of(TREFOIL.dga, name)


def word(*letters) -> Element:
    return Element([letters])


def barcode(dga, h, eps):
    lin = linearized_differential(dga, eps)
    check_chain_complex(dga.generators, lin.columns)
    return compute_barcode(build_filtered_complex(lin, h))


def all_barcodes(dga, h):
    """The sorted bar multisets of every augmentation."""
    return sorted(triples(barcode(dga, h, eps)) for eps in enumerate_augmentations(dga))


# --- stabilization ----------------------------------------------------------

def test_stabilize_unknot_at_grading_two():
    dga, h = stabilize(UNKNOT.dga, 2, Fraction(5), Fraction(3), UNKNOT.heights)
    assert len(dga) == len(UNKNOT.dga) + 2
    top = gid_of(dga, "e2")
    bot = gid_of(dga, "e1")
    assert dga.generators[top].grading == 2 and dga.generators[bot].grading == 1
    assert dga.differential[top] == word(bot)
    assert not dga.differential[bot]
    assert h.of(top) == 5 and h.of(bot) == 3
    validate_dga(dga)


def test_stabilized_trefoil_is_valid():
    dga, _ = stabilize(TREFOIL.dga, 3, Fraction(9), Fraction(8), TREFOIL.heights)
    validate_dga(dga)


def normalized_count(dga: DGA) -> Fraction:
    """The number of augmentations squared, times 2^(-chi*), where chi* sums
    (-1)^k r_k over gradings k >= 0 and (-1)^(k+1) r_k over k < 0, r_k being
    the number of generators of grading k.  The count times 2^(-chi*/2) is
    the normalized count of Ng–Sabloff (2006), which stabilization leaves
    unchanged; squared, it is rational."""
    chi = sum((-1 if g.grading & 1 else 1) * (1 if g.grading >= 0 else -1) for g in dga.generators)
    return Fraction(pick_augmentation(dga, 0)[1]) ** 2 / Fraction(2) ** chi


def assert_stabilizations_keep_the_normalized_count(dga: DGA, value: Fraction):
    # At k = 0 the new grading-0 generator is free, so the count doubles and
    # chi* grows by 2; at every other k, chi* and the count stay.
    assert normalized_count(dga) == value
    heights = HeightAssignment((1,) * len(dga))
    for k in range(-2, 4):
        assert normalized_count(stabilize(dga, k, 2, 1, heights)[0]) == value, k


@pytest.mark.parametrize(
    "name, value", [("unknot", 2), ("trefoil", Fraction(25, 2)), ("trefoil_rii", Fraction(25, 2)), ("island", 2**9)]
)
def test_stabilizations_keep_the_normalized_count_on_the_corpus(name, value):
    # island: nine free grading-0 generators, so 2^9 augmentations and chi* = 9
    assert_stabilizations_keep_the_normalized_count(load_corpus(name).dga, value)


@pytest.mark.parametrize("n", [5, 9, 21])
def test_stabilizations_keep_the_normalized_count_on_torus_knots(n):
    # T(2,n) has n grading-0 and 2 grading-1 generators, so chi* = n - 2; the
    # count comes from the transfer matrix.  No brute force reaches n = 21.
    value = Fraction(gen.count_augmentations(n) ** 2, 2 ** (n - 2))
    assert_stabilizations_keep_the_normalized_count(torus_2n_dga(n), value)


def test_stabilize_rejects_bad_heights():
    for top, bot in [(3, 3), (2, 3), (3, 0), (0, -1)]:
        with pytest.raises(ValueError):
            stabilize(UNKNOT.dga, 1, Fraction(top), Fraction(bot), UNKNOT.heights)


def test_stabilize_twice_picks_fresh_names():
    dga, h = stabilize(UNKNOT.dga, 2, Fraction(5), Fraction(3), UNKNOT.heights)
    dga, _ = stabilize(dga, 2, Fraction(7), Fraction(6), h)
    names = {g.name for g in dga.generators}
    assert {"e2", "e1", "e2_2", "e1_2"} <= names
    validate_dga(dga)


def test_stabilization_adds_exactly_one_finite_bar():
    eps = enumerate_augmentations(TREFOIL.dga)[0]
    base = barcode(TREFOIL.dga, TREFOIL.heights, eps)
    dga, h = stabilize(TREFOIL.dga, 3, Fraction(9), Fraction(8), TREFOIL.heights)
    stabilized = barcode(dga, h, enumerate_augmentations(dga)[0])
    extra = (2, Fraction(8), Fraction(9))  # degree k-1, [h_bot, h_top)
    assert sorted(triples(stabilized)) == sorted(triples(base) + (extra,))


# --- elementary automorphisms -------------------------------------------------

def test_zero_addend_is_identity():
    assert conjugate(TREFOIL.dga, gid("q1"), Element()) == TREFOIL.dga


def test_elementary_automorphism_is_an_involution():
    once = conjugate(TREFOIL.dga, gid("q1"), word(gid("q2")))
    twice = conjugate(once, gid("q1"), word(gid("q2")))
    assert twice == TREFOIL.dga
    assert once != TREFOIL.dga


def test_conjugation_by_q1_to_q1_plus_q2():
    # d(q1) + d(q2) leaves only the two length-3 words; the constant and
    # length-1 words cancel in pairs over Z2.
    out = conjugate(TREFOIL.dga, gid("q1"), word(gid("q2")))
    expected = Element(
        [
            (gid("q5"), gid("q4"), gid("q3")),
            (gid("q3"), gid("q4"), gid("q5")),
        ]
    )
    assert out.differential[gid("q1")] == expected
    for name in ("q2", "q3", "q4", "q5"):
        assert out.differential[gid(name)] == TREFOIL.dga.differential[gid(name)]
    validate_dga(out)


def test_addend_must_avoid_target():
    with pytest.raises(ValueError):
        conjugate(TREFOIL.dga, gid("q1"), word(gid("q1"), gid("q3")))


def test_inhomogeneous_addend_rejected():
    with pytest.raises(ValueError):
        conjugate(TREFOIL.dga, gid("q1"), word(gid("q3")))


def test_apply_elementary_preserves_validity():
    # q3 -> q3 + q5 touches words inside the trefoil differential.
    out = conjugate(TREFOIL.dga, gid("q3"), word(gid("q5")))
    validate_dga(out)
    assert conjugate(out, gid("q3"), word(gid("q5"))) == TREFOIL.dga


# --- semimonotonicity ---------------------------------------------------------

# Three grading-0 crossings, one high crossing over two low ones.
TRIPLE_H = HeightAssignment((3, 1, 1))


def test_semimonotonic_when_addend_sits_below():
    assert is_semimonotonic(0, Element([(1,), (2,)]), TRIPLE_H)  # a -> a + b + c


def test_not_semimonotonic_when_a_letter_sits_above():
    h = HeightAssignment((3, 1, 5))
    assert not is_semimonotonic(0, Element([(1,), (2,)]), h)


def test_zero_addend_is_semimonotonic():
    assert is_semimonotonic(0, Element(), TRIPLE_H)


# d(x) = a + bc, with x above a above b and c.
CONJ = dga_of(
    [("x", 1), ("a", 0), ("b", 0), ("c", 0)],
    {"x": [["a"], ["b", "c"]], "a": [], "b": [], "c": []},
)
CONJ_H = HeightAssignment((5, 3, 1, 1))


def test_letter_level_reading_differs_from_element_height():
    # With h(b) = h(c) = 2 below h(a) = 3, the word bc passes the letter-level
    # test even though its height 4 exceeds the target's: the two readings
    # differ exactly on multi-letter words.  Each linearization keeps one
    # letter of a word, so the barcodes survive a -> a + bc, which here
    # reduces d(x) to a.
    h = HeightAssignment((5, 3, 2, 2))
    a, addend = gid_of(CONJ, "a"), word(gid_of(CONJ, "b"), gid_of(CONJ, "c"))
    assert height_of_element(addend, h) > h.of(a)
    assert is_semimonotonic(a, addend, h)
    conjugated = conjugate(CONJ, a, addend)
    assert conjugated.differential[gid_of(CONJ, "x")] == word(a)
    assert all_barcodes(conjugated, h) == all_barcodes(CONJ, h)


def test_conjugated_linearized_differential_is_strictly_height_decreasing():
    a, c = gid_of(CONJ, "a"), gid_of(CONJ, "c")
    assert is_semimonotonic(a, word(c), CONJ_H)
    conjugated = conjugate(CONJ, a, word(c))
    for eps in enumerate_augmentations(conjugated):
        # Filtration validity is exactly what compute_barcode enforces.
        compute_barcode(build_filtered_complex(linearized_differential(conjugated, eps), CONJ_H))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_elementary_automorphisms_are_involutions(seed):
    rng = Random(seed)
    dga = TREFOIL.dga
    grading_one = [g.gid for g in dga.generators if g.grading == 1]
    grading_zero = [g.gid for g in dga.generators if g.grading == 0]
    target = rng.choice(grading_one + grading_zero)
    pool = grading_one if dga.generators[target].grading == 1 else grading_zero
    words = []
    for other in pool:
        if other != target and rng.random() < 0.6:
            words.append((other,))
    if dga.generators[target].grading == 0 and rng.random() < 0.5:
        lows = [g for g in grading_zero if g != target]
        if len(lows) >= 2:
            words.append((lows[0], lows[1], lows[0]))
    once = conjugate(dga, target, Element(words))
    validate_dga(once)
    assert conjugate(once, target, Element(words)) == dga


# --- the invariance theorem as an oracle ---------------------------------------

def filtered_dga(rng: Random):
    """A (2,n) torus knot with flood heights, a planted complex, or the corpus
    trefoil with its file heights."""
    kind = rng.choice(("torus", "planted", "trefoil"))
    if kind == "torus":
        dga = torus_2n_dga(rng.randint(3, 9))
        h = flood_heights(dga)
    elif kind == "planted":
        fc, _ = planted_complex(rng, max_n=10)
        dga, h = dga_from_complex(fc), fc.heights
    else:
        dga, h = TREFOIL.dga, TREFOIL.heights
    # the hypothesis of the theorem: d lowers the height of every word
    for g, col in zip(dga.generators, dga.differential):
        assert height_of_element(col, h) < h.of(g.gid)
    return dga, h


def stabilization(rng: Random):
    """A degree k and heights h_bot, gap = h_top - h_bot, in quarters."""
    return rng.randint(0, 2), Fraction(rng.randint(1, 40), 4), Fraction(rng.randint(1, 40), 4)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_stabilization_adds_one_bar_to_every_barcode(seed):
    rng = Random(seed)
    (dga, h), (k, h_bot, gap) = filtered_dga(rng), stabilization(rng)
    h_top = h_bot + gap
    stabilized, sh = stabilize(dga, k, h_top, h_bot, h)
    augs = enumerate_augmentations(dga)
    # the new grading-0 generator of a degree-0 stabilization takes either value
    tops = (0, 1) if k == 0 else (0,)
    extended = [(eps, Augmentation(eps.values + (top, 0))) for eps in augs for top in tops]
    assert enumerate_augmentations(stabilized) == [ext for _, ext in extended]
    distances = {}  # many augmentations share a barcode
    for eps, ext in extended:
        base, moved = barcode(dga, h, eps), barcode(stabilized, sh, ext)
        assert sorted(triples(moved)) == sorted(triples(base) + ((k - 1, h_bot, h_top),))
        if triples(base) not in distances:
            distances[triples(base)] = interleaving_distance(base, moved)
    assert max(distances.values(), default=0) <= gap / 2


def random_step(rng: Random, dga: DGA, h: HeightAssignment):
    """A random elementary map (target, addend), or None if no letter qualifies
    as a target.

    Each of the one to three addend words has one letter of the target's
    grading among up to two of grading 0, and no letter sits above the
    target.  Letters tied with it come up often, the target itself among
    them, and the semimonotonic test must turn the target down.  Substituting
    into a word multiplies it, so targets are letters of at most eight words:
    the torus b_i, in dozens of words, are left alone.
    """
    occurs = {}
    for col in dga.differential:
        for w in col.words:
            for g in set(w):
                occurs[g] = occurs.get(g, 0) + 1
    targets = [t.gid for t in dga.generators if occurs.get(t.gid, 0) <= 8]
    if not targets:
        return None
    target = rng.choice(targets)
    grading, bound = dga.generators[target].grading, h.of(target)
    below = [g for g in dga.generators if h.of(g.gid) <= bound]
    ends = [g.gid for g in below if g.grading == grading]
    zeros = [g.gid for g in below if g.grading == 0]
    words = []
    for _ in range(rng.randint(1, 3)):
        letters = [rng.choice(zeros) for _ in range(rng.randint(0, 2) if zeros else 0)]
        letters.insert(rng.randint(0, len(letters)), rng.choice(ends))
        words.append(tuple(letters))
    return target, Element(words)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_semimonotonic_conjugations_keep_every_barcode(seed):
    rng = Random(seed)
    (dga, h), (k, h_bot, gap) = filtered_dga(rng), stabilization(rng)
    dga, h = stabilize(dga, k, h_bot + gap, h_bot, h)
    before = all_barcodes(dga, h)
    steps = rng.randint(2, 20)
    for _ in range(400):  # proposals, about one in eight of them semimonotonic
        step = random_step(rng, dga, h)
        if not steps or step is None:
            break
        if is_semimonotonic(*step, h):
            dga = conjugate(dga, *step)
            steps -= 1
    validate_dga(dga)
    assert all_barcodes(dga, h) == before
