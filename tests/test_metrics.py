import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import DGA
from legch.metrics import LaurentPolynomial, check_strong_morse, interleaving_distance
from legch.persist import Bar, Barcode, compute_barcode

from support import (
    barcode_of,
    brute_force_distance,
    dga_from_complex,
    evaluate_at,
    kuhn_distance,
    load_corpus,
    planted_complex,
    random_barcode,
    shift_pair,
    threshold_bound,
)

UNKNOT = load_corpus("unknot")
TREFOIL = load_corpus("trefoil")
RII = load_corpus("trefoil_rii")


UNKNOT_BARCODE = barcode_of(UNKNOT, 0)
TREFOIL_BARCODE = barcode_of(TREFOIL, 2)
RII_BARCODE = barcode_of(RII, 2)


# --- Laurent polynomials ------------------------------------------------------

def test_polynomial_normalization_and_equality():
    assert LaurentPolynomial({2: 0, 1: 1}) == LaurentPolynomial({1: 1})
    assert LaurentPolynomial([1, 0, 1]) == LaurentPolynomial({1: 2, 0: 1})


def test_polynomial_formatting():
    assert str(LaurentPolynomial()) == "0"
    assert str(LaurentPolynomial({1: 2, 0: 3})) == "2z+3"
    assert str(LaurentPolynomial({1: 1})) == "z"
    assert str(LaurentPolynomial({0: 1, 1: 1})) == "z+1"
    assert str(LaurentPolynomial({-1: 3, 2: 1, 0: -4})) == "z^2-4+3z^-1"
    assert str(LaurentPolynomial({2: 0, 1: -1, 0: 0})) == "-z"
    assert str(LaurentPolynomial({0: 0})) == "0"


def test_polynomial_arithmetic():
    assert evaluate_at(LaurentPolynomial({1: 2, 0: 1}), 1) == 3
    assert evaluate_at(LaurentPolynomial({-2: 1}), 2) == Fraction(1, 4)


# --- counting polynomials -------------------------------------------------------
# The strong Morse report counts each polynomial from one of its two arguments,
# so an empty DGA or barcode stands in for the other.

def morse_chekanov(dga: DGA):
    return check_strong_morse(dga, Barcode(())).mc


def poincare_chekanov(b: Barcode):
    return check_strong_morse(DGA((), ()), b).pc


def finite_bar_polynomial(b: Barcode):
    return check_strong_morse(DGA((), ()), b).finite_bars


def test_morse_chekanov_counts_generators():
    assert str(morse_chekanov(UNKNOT.dga)) == "z"
    assert str(morse_chekanov(TREFOIL.dga)) == "2z+3"
    assert str(morse_chekanov(RII.dga)) == "3z+4"
    empty = DGA((), ())
    assert morse_chekanov(empty) == LaurentPolynomial()


def test_poincare_chekanov_counts_infinite_bars():
    assert str(poincare_chekanov(UNKNOT_BARCODE)) == "z"
    assert str(poincare_chekanov(TREFOIL_BARCODE)) == "z+2"
    assert poincare_chekanov(Barcode(())) == LaurentPolynomial()


def test_finite_bar_polynomial():
    assert str(finite_bar_polynomial(TREFOIL_BARCODE)) == "1"
    assert finite_bar_polynomial(UNKNOT_BARCODE) == LaurentPolynomial()
    assert str(finite_bar_polynomial(RII_BARCODE)) == "2"


# --- strong Morse identity -------------------------------------------------------

def test_strong_morse_on_unknot():
    report = check_strong_morse(UNKNOT.dga, UNKNOT_BARCODE)
    assert report.holds
    assert (str(report.mc), str(report.pc), str(report.finite_bars)) == ("z", "z", "0")


def test_strong_morse_on_trefoil():
    report = check_strong_morse(TREFOIL.dga, TREFOIL_BARCODE)
    assert report.holds
    assert (str(report.mc), str(report.pc), str(report.finite_bars)) == ("2z+3", "z+2", "1")


def test_strong_morse_on_rii_diagram():
    report = check_strong_morse(RII.dga, RII_BARCODE)
    assert report.holds
    assert (str(report.mc), str(report.pc), str(report.finite_bars)) == ("3z+4", "z+2", "2")


def test_strong_morse_detects_mismatched_data():
    report = check_strong_morse(TREFOIL.dga, UNKNOT_BARCODE)
    assert not report.holds


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_strong_morse_on_random_complexes(seed):
    fc, _ = planted_complex(Random(seed))
    report = check_strong_morse(dga_from_complex(fc), compute_barcode(fc))
    assert report.holds


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_half_defect_identity_at_one(seed):
    fc, _ = planted_complex(Random(seed))
    report = check_strong_morse(dga_from_complex(fc), compute_barcode(fc))
    assert report.holds
    assert evaluate_at(report.finite_bars, 1) == (
        evaluate_at(report.mc, 1) - evaluate_at(report.pc, 1)
    ) / 2


# --- interleaving distance --------------------------------------------------------

def test_distance_to_self_is_zero():
    for barcode in (UNKNOT_BARCODE, TREFOIL_BARCODE, RII_BARCODE):
        assert interleaving_distance(barcode, barcode) == 0


def test_distance_between_trefoil_and_slid_trefoil():
    d = interleaving_distance(TREFOIL_BARCODE, RII_BARCODE)
    assert d == Fraction(3, 20)  # exactly 0.15: delete the [2, 2.3) bar


def test_distance_infinite_when_infinite_bar_counts_differ():
    assert interleaving_distance(UNKNOT_BARCODE, TREFOIL_BARCODE) == math.inf


def test_distance_moves_endpoints():
    b1 = Barcode((Bar(0, Fraction(1), math.inf),))
    b2 = Barcode((Bar(0, Fraction(4), math.inf),))
    assert interleaving_distance(b1, b2) == 3


def test_deleting_beats_bad_matching():
    b1 = Barcode((Bar(0, Fraction(0), Fraction(1)),))
    b2 = Barcode((Bar(0, Fraction(100), Fraction(101)),))
    assert interleaving_distance(b1, b2) == Fraction(1, 2)


def test_empty_degrees_contribute_nothing():
    b1 = Barcode((Bar(5, Fraction(1), Fraction(2)),))
    assert interleaving_distance(b1, Barcode(())) == Fraction(1, 2)
    assert interleaving_distance(Barcode(()), Barcode(())) == 0


seeds = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=80, deadline=None)
@given(seeds, seeds)
def test_distance_matches_exhaustive_matching(s1, s2):
    b1 = random_barcode(Random(s1), max_bars=4)
    b2 = random_barcode(Random(s2), max_bars=4)
    assert interleaving_distance(b1, b2) == brute_force_distance(b1, b2)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_distance_is_symmetric(s1, s2):
    b1, b2 = random_barcode(Random(s1)), random_barcode(Random(s2))
    assert interleaving_distance(b1, b2) == interleaving_distance(b2, b1)


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, seeds)
def test_triangle_inequality(s1, s2, s3):
    b1, b2, b3 = (
        random_barcode(Random(s1), max_bars=5),
        random_barcode(Random(s2), max_bars=5),
        random_barcode(Random(s3), max_bars=5),
    )
    d13 = interleaving_distance(b1, b3)
    d12 = interleaving_distance(b1, b2)
    d23 = interleaving_distance(b2, b3)
    assert d13 <= d12 + d23


def _grid_barcode(rng: Random, n: int, infinite: list[int]) -> Barcode:
    """``n`` bars, ``infinite[k]`` of them infinite in degree k, on a coarse
    grid of thirds and sevenths: endpoints tie and denominators are not powers
    of two."""
    bars = [
        Bar(k, Fraction(rng.randint(0, 12), rng.choice((1, 3, 7))), math.inf)
        for k, count in enumerate(infinite)
        for _ in range(count)
    ]
    while len(bars) < n:
        birth = Fraction(rng.randint(0, 12), rng.choice((1, 3, 7)))
        length = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 7)))
        bars.append(Bar(rng.randrange(len(infinite)), birth, birth + length))
    return Barcode(tuple(bars))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(9, 40), st.integers(9, 40), st.integers(1, 2))
def test_distance_matches_the_former_matcher_beyond_brute_force(seed, n1, n2, n_degrees):
    rng = Random(seed)
    infinite = [rng.randint(0, 4) for _ in range(n_degrees)]
    b1 = _grid_barcode(rng, n1, infinite)
    if rng.random() < 0.1:
        infinite[-1] += 1
    b2 = _grid_barcode(rng, n2, infinite)
    d = interleaving_distance(b1, b2)
    assert d == kuhn_distance(b1, b2)
    assert d >= threshold_bound(b1, b2)


def test_the_threshold_bound_is_not_always_the_distance():
    # Each bar's cheapest option costs 0, so the bound is 0, but one of the
    # two copies of [0, 10) has no partner left and is deleted at half its length.
    twice = Barcode((Bar(0, Fraction(0), Fraction(10)), Bar(0, Fraction(0), Fraction(10))))
    once = Barcode((Bar(0, Fraction(0), Fraction(10)),))
    assert threshold_bound(twice, once) == 0
    assert interleaving_distance(twice, once) == interleaving_distance(once, twice) == 5
    assert brute_force_distance(twice, once) == 5


def test_the_distance_meets_the_threshold_bound_or_exceeds_it():
    # Finite bars in one degree, so the distance is the finite bars' one and a
    # distance above the bound is reached by bisection; both outcomes occur.
    outcomes = set()
    for seed in range(60):
        rng = Random(seed)
        b1 = _grid_barcode(rng, rng.randint(1, 12), [0])
        b2 = _grid_barcode(rng, rng.randint(1, 12), [0])
        d, bound = interleaving_distance(b1, b2), threshold_bound(b1, b2)
        assert d == kuhn_distance(b1, b2)
        assert d >= bound
        outcomes.add("equal" if d == bound else "greater")
    assert outcomes == {"equal", "greater"}


@pytest.mark.parametrize(
    "n, delta", [(200, Fraction(1, 3)), (200, Fraction(7, 20)), (600, Fraction(3, 4))]
)
def test_planted_shift_pairs_are_exactly_delta(n, delta):
    b1, b2 = shift_pair(Random(n), n, delta)
    assert interleaving_distance(b1, b2) == delta
    assert interleaving_distance(b2, b1) == delta
