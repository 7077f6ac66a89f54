from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import (
    DGA,
    Element,
    HeightAssignment,
    height_of_element,
    validate_dga,
)
from legch.augment import Augmentation, enumerate_augmentations, linearized_differential
from legch.persist import FilteredComplex, build_filtered_complex, compute_barcode
from legch.transform import (
    ElementaryAutomorphism,
    TameIsomorphism,
    apply_elementary,
    apply_tame,
    induced_linear_map,
    is_semimonotonic,
    stabilize,
)

from support import gid_of, load_corpus

UNKNOT = load_corpus("unknot")
TREFOIL = load_corpus("trefoil")


def gid(name):
    return gid_of(TREFOIL.dga, name)


# --- stabilization ----------------------------------------------------------

def test_stabilize_unknot_at_grading_two():
    dga, h = stabilize(UNKNOT.dga, 2, Fraction(5), Fraction(3), UNKNOT.heights)
    assert len(dga) == len(UNKNOT.dga) + 2
    top = gid_of(dga, "e2")
    bot = gid_of(dga, "e1")
    assert dga.grading_of(top) == 2 and dga.grading_of(bot) == 1
    assert dga.d(top) == Element.from_word((bot,))
    assert not dga.d(bot)
    assert h.of(top) == 5 and h.of(bot) == 3
    validate_dga(dga)


def test_stabilized_trefoil_is_valid():
    dga, _ = stabilize(TREFOIL.dga, 3, Fraction(9), Fraction(8), TREFOIL.heights)
    validate_dga(dga)


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


def _barcode_of(kd, eps_index=0):
    eps = enumerate_augmentations(kd.dga)[eps_index]
    lin = linearized_differential(kd.dga, eps)
    return compute_barcode(build_filtered_complex(lin, kd.heights))


def test_stabilization_adds_exactly_one_finite_bar():
    base = _barcode_of(TREFOIL)
    dga, h = stabilize(TREFOIL.dga, 3, Fraction(9), Fraction(8), TREFOIL.heights)
    eps = enumerate_augmentations(dga)[0]
    lin = linearized_differential(dga, eps)
    stabilized = compute_barcode(build_filtered_complex(lin, h))
    extra = (2, Fraction(8), Fraction(9))  # degree k-1, [h_bot, h_top)
    assert sorted(stabilized.triples()) == sorted(base.triples() + (extra,))


# --- elementary automorphisms -------------------------------------------------

def test_zero_addend_is_identity():
    phi = ElementaryAutomorphism(gid("q1"), Element.zero())
    assert apply_elementary(TREFOIL.dga, phi) == TREFOIL.dga


def test_elementary_automorphism_is_an_involution():
    phi = ElementaryAutomorphism(gid("q1"), Element.from_word((gid("q2"),)))
    once = apply_elementary(TREFOIL.dga, phi)
    twice = apply_elementary(once, phi)
    assert twice == TREFOIL.dga
    assert once != TREFOIL.dga


def test_conjugation_by_q1_to_q1_plus_q2():
    # d(q1) + d(q2) leaves only the two length-3 words; the constant and
    # length-1 words cancel in pairs over Z2.
    phi = ElementaryAutomorphism(gid("q1"), Element.from_word((gid("q2"),)))
    out = apply_elementary(TREFOIL.dga, phi)
    expected = Element(
        [
            (gid("q5"), gid("q4"), gid("q3")),
            (gid("q3"), gid("q4"), gid("q5")),
        ]
    )
    assert out.d(gid("q1")) == expected
    for name in ("q2", "q3", "q4", "q5"):
        assert out.d(gid(name)) == TREFOIL.dga.d(gid(name))
    validate_dga(out)


def test_addend_must_avoid_target():
    with pytest.raises(ValueError):
        ElementaryAutomorphism(gid("q1"), Element.from_word((gid("q1"), gid("q3"))))


def test_inhomogeneous_addend_rejected():
    phi = ElementaryAutomorphism(gid("q1"), Element.from_word((gid("q3"),)))
    with pytest.raises(ValueError):
        apply_elementary(TREFOIL.dga, phi)


def test_apply_elementary_preserves_validity():
    # q3 -> q3 + q5 touches words inside the trefoil differential.
    phi = ElementaryAutomorphism(gid("q3"), Element.from_word((gid("q5"),)))
    out = apply_elementary(TREFOIL.dga, phi)
    validate_dga(out)
    assert apply_elementary(out, phi) == TREFOIL.dga


def test_apply_tame_relabels():
    phi = ElementaryAutomorphism(gid("q3"), Element.from_word((gid("q5"),)))
    relabel = (1, 0, 2, 3, 4)  # swap q1 and q2, same gradings
    iso = TameIsomorphism((phi,), relabel)
    out = apply_tame(TREFOIL.dga, iso)
    validate_dga(out)
    assert out.generator(0).name == "q2"
    assert out.generator(1).name == "q1"


# --- semimonotonicity and the induced linear map ------------------------------

# Three grading-0 crossings with trivial differential: the strand-slide shape
# with one high crossing over two low ones.
TRIPLE = DGA.from_data(
    [("a", 0), ("b", 0), ("c", 0)], {"a": [], "b": [], "c": []}
)
TRIPLE_H = HeightAssignment({0: 3, 1: 1, 2: 1})


def triple_phi(*words) -> ElementaryAutomorphism:
    return ElementaryAutomorphism(0, Element(words))


def test_semimonotonic_when_addend_sits_below():
    phi = triple_phi((1,), (2,))  # a -> a + b + c
    assert is_semimonotonic(phi, TRIPLE_H)


def test_not_semimonotonic_when_a_letter_sits_above():
    h = HeightAssignment({0: 3, 1: 1, 2: 5})
    phi = triple_phi((1,), (2,))
    assert not is_semimonotonic(phi, h)


def test_zero_addend_is_semimonotonic():
    assert is_semimonotonic(triple_phi(), TRIPLE_H)


def test_letter_level_reading_differs_from_element_height():
    # With h(b) = h(c) = 2 below h(a) = 3, the word bc passes the letter-level
    # test even though its height 4 exceeds the target: the two readings differ
    # exactly on multi-letter words.  The induced linear map only ever picks up
    # single letters, so height preservation survives.
    h = HeightAssignment({0: 3, 1: 2, 2: 2})
    phi = triple_phi((1, 2))
    assert height_of_element(phi.addend, h) > h.of(0)
    assert is_semimonotonic(phi, h)
    for eps in enumerate_augmentations(TRIPLE):
        cols = induced_linear_map(TRIPLE, phi, eps)
        assert max(h.of(p) for p in cols[0]) == h.of(0)


def triple_eps(b, c) -> Augmentation:
    return Augmentation((0, b, c))


def slide_move_phi(eps: Augmentation) -> ElementaryAutomorphism:
    # a -> a + eps(c) b + eps(b) c: the eps values are coefficients of the addend.
    words = []
    if eps.values[2]:
        words.append((1,))
    if eps.values[1]:
        words.append((2,))
    return ElementaryAutomorphism(0, Element(words))


def test_induced_map_identity_when_values_vanish():
    eps = triple_eps(0, 0)
    cols = induced_linear_map(TRIPLE, slide_move_phi(eps), eps)
    assert cols == {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}


def test_induced_map_on_strand_slide_addend():
    # With eps(c) = 1 and eps(b) = 0 the addend element is b alone, and the
    # induced map sends a to a + b.
    eps = triple_eps(0, 1)
    phi = slide_move_phi(eps)
    assert phi.addend == Element([(1,)])
    cols = induced_linear_map(TRIPLE, phi, eps)
    assert cols[0] == frozenset({0, 1})
    assert cols[1] == frozenset({1})
    assert cols[2] == frozenset({2})


def test_induced_map_of_semimonotonic_step_preserves_heights():
    phi = triple_phi((1,), (2,), (1, 2))
    assert is_semimonotonic(phi, TRIPLE_H)
    for eps in enumerate_augmentations(TRIPLE):
        cols = induced_linear_map(TRIPLE, phi, eps)
        for g, col in cols.items():
            assert max(TRIPLE_H.of(p) for p in col) == TRIPLE_H.of(g)


def test_induced_map_requires_valid_augmentation():
    phi = triple_phi((1,))
    with pytest.raises(ValueError):
        induced_linear_map(TRIPLE, phi, Augmentation((1, 1)))  # wrong length


# --- conjugated linearized differential stays filtered -------------------------

CONJ = DGA.from_data(
    [("x", 1), ("a", 0), ("b", 0), ("c", 0)],
    {"x": [["a"], ["b", "c"]], "a": [], "b": [], "c": []},
)
CONJ_H = HeightAssignment({0: 5, 1: 3, 2: 1, 3: 1})


def test_conjugated_linearized_differential_is_strictly_height_decreasing():
    phi = ElementaryAutomorphism(gid_of(CONJ, "a"), Element.from_word((gid_of(CONJ, "c"),)))
    assert is_semimonotonic(phi, CONJ_H)
    for eps in enumerate_augmentations(CONJ):
        lin = linearized_differential(CONJ, eps)
        cols = {g: set(col) for g, col in enumerate(lin.columns)}
        phi_cols = induced_linear_map(CONJ, phi, eps)

        def apply_map(mapping, support):
            out = set()
            for p in support:
                out ^= mapping[p]
            return out

        conjugated = tuple(
            frozenset(apply_map(phi_cols, apply_map(cols, phi_cols[g])))
            for g in range(len(CONJ))
        )
        # Filtration validity is exactly what FilteredComplex enforces.
        FilteredComplex.from_columns(CONJ.generators, CONJ_H, conjugated)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_elementary_automorphisms_are_involutions(seed):
    rng = Random(seed)
    dga = TREFOIL.dga
    grading_one = [g.gid for g in dga.generators if g.grading == 1]
    grading_zero = [g.gid for g in dga.generators if g.grading == 0]
    target = rng.choice(grading_one + grading_zero)
    pool = grading_one if dga.grading_of(target) == 1 else grading_zero
    words = []
    for other in pool:
        if other != target and rng.random() < 0.6:
            words.append((other,))
    if dga.grading_of(target) == 0 and rng.random() < 0.5:
        lows = [g for g in grading_zero if g != target]
        if len(lows) >= 2:
            words.append((lows[0], lows[1], lows[0]))
    phi = ElementaryAutomorphism(target, Element(words))
    once = apply_elementary(dga, phi)
    validate_dga(once)
    assert apply_elementary(once, phi) == dga
