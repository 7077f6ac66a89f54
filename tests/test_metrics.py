import math
from fractions import Fraction
from operator import add
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch import metrics
from legch.algebra import DGA, HeightAssignment
from legch.augment import enumerate_augmentations, linearized_differential
from legch.fileio import parse_barcode_file, serialize_barcode_file
from legch.metrics import LaurentPolynomial, check_strong_morse, interleaving_distance
from legch.persist import Bar, Barcode, FilteredComplex, build_filtered_complex, compute_barcode

from support import (
    barcode_of,
    brute_force_distance,
    dga_from_complex,
    evaluate_at,
    flood_heights,
    kuhn_distance,
    load_corpus,
    planted_complex,
    random_barcode,
    shift_pair,
    threshold_bound,
    torus_2n_dga,
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
    # Infinite bars pair in order of birth, whatever order a barcode holds.
    b1 = Barcode((Bar(0, 5, math.inf), Bar(0, 1, math.inf)))
    b2 = Barcode((Bar(0, 2, math.inf), Bar(0, 6, math.inf)))
    assert interleaving_distance(b1, b2) == 1


def test_deleting_beats_bad_matching():
    b1 = Barcode((Bar(0, Fraction(0), Fraction(1)),))
    b2 = Barcode((Bar(0, Fraction(100), Fraction(101)),))
    assert interleaving_distance(b1, b2) == Fraction(1, 2)


def test_empty_degrees_contribute_nothing():
    b1 = Barcode((Bar(5, Fraction(1), Fraction(2)),))
    assert interleaving_distance(b1, Barcode(())) == Fraction(1, 2)
    assert interleaving_distance(Barcode(()), Barcode(())) == 0


def test_distance_reads_mixed_ends_and_any_float_infinity():
    """Integer and Fraction ends under one scale, and an infinite end that is
    float("inf") rather than the math.inf object, as Bar.finite reads it."""
    def bars(inf):
        return Barcode((
            Bar(0, 1, Fraction(7, 2)), Bar(0, Fraction(1, 4), 2), Bar(1, 2, inf),
            Bar(1, Fraction(5, 8), 3), Bar(1, Fraction(-3, 5), Fraction(1, 5)),
        ))
    other = Barcode((Bar(0, 1, 4), Bar(1, Fraction(9, 4), math.inf), Bar(1, 0, Fraction(5, 2))))
    assert float("inf") is not math.inf
    mixed, plain = bars(float("inf")), bars(math.inf)
    # degree 0 deletes [1/4, 2) at 7/8; degree 1 matches its infinite bars at 1/4
    assert interleaving_distance(mixed, other) == interleaving_distance(plain, other) == Fraction(7, 8)
    assert brute_force_distance(mixed, other) == Fraction(7, 8)
    assert interleaving_distance(mixed, parse_barcode_file(serialize_barcode_file(mixed))) == 0


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


# --- the distance's branches: the bound, a direct listing, counting rounds ------
# _finite_distance returns the threshold bound L when it is feasible; otherwise
# it lists the candidate costs above L at once when at most 8 per bar remain,
# and first narrows them by counting rounds when more do.


@pytest.fixture
def probe(monkeypatch):
    """The bounds L that ``_finite_distance`` computes and one entry per
    candidate count it makes, recorded as it runs."""
    bounds, counts = [], []
    lower_bound, candidate_runs = metrics._lower_bound, metrics._candidate_runs

    def bound(*args):
        bounds.append(lower_bound(*args))
        return bounds[-1]

    def runs(*args):
        counts.append(args[:2])
        return candidate_runs(*args)

    monkeypatch.setattr(metrics, "_lower_bound", bound)
    monkeypatch.setattr(metrics, "_candidate_runs", runs)
    return bounds, counts


def _probed_distance(probe, b1: Barcode, b2: Barcode):
    """The distance of two barcodes of finite bars in one degree, both sides
    nonempty; L as a distance; and the branch that decided it."""
    bounds, counts = probe
    bounds.clear()
    counts.clear()
    d = interleaving_distance(b1, b2)
    (bound,) = bounds
    branch = ("bound", "listed")[len(counts)] if len(counts) < 2 else "counted"
    scale = math.lcm(*(end.denominator for bar in b1.bars + b2.bars for end in (bar.birth, bar.death)))
    return d, Fraction(bound, 2 * scale), branch


def _clustered_barcode(rng: Random, n: int, births: list[Fraction], longest: int) -> Barcode:
    """``n`` finite bars in degree 0 born at a few shared places, so that
    many bars compete for the same partners and the bound L often fails."""
    bars = []
    for _ in range(n):
        birth = rng.choice(births)
        bars.append(Bar(0, birth, birth + Fraction(rng.randint(1, longest), rng.choice((1, 2, 4)))))
    return Barcode(tuple(bars))


def test_clustered_pairs_match_the_matcher_on_every_branch(probe):
    # Up to 150 bars a pair; the larger pairs hold more than 8 candidates per
    # bar above L, so they count before they list.
    branches = set()
    for seed in range(24):
        rng = Random(seed)
        births = [Fraction(rng.randint(0, 40), 4) for _ in range(rng.randint(1, 5))]
        longest = rng.choice((4, 12, 30))
        n1, n2 = (rng.randint(2, 100), rng.randint(2, 50)) if seed % 4 == 0 else (rng.randint(2, 40), rng.randint(2, 40))
        b1, b2 = _clustered_barcode(rng, n1, births, longest), _clustered_barcode(rng, n2, births, longest)
        d, bound, branch = _probed_distance(probe, b1, b2)
        assert d == kuhn_distance(b1, b2)
        assert bound == threshold_bound(b1, b2)
        assert interleaving_distance(b2, b1) == d
        branches.add(branch)
    assert branches == {"bound", "listed", "counted"}


def test_small_clustered_pairs_match_exhaustive_matching(probe):
    branches = set()
    for seed in range(150):
        rng = Random(seed)
        births = [Fraction(rng.randint(0, 8), 2) for _ in range(rng.randint(1, 3))]
        b1 = _clustered_barcode(rng, rng.randint(1, 6), births, rng.choice((2, 6)))
        b2 = _clustered_barcode(rng, rng.randint(1, 6), births, rng.choice((2, 6)))
        d, bound, branch = _probed_distance(probe, b1, b2)
        assert d == brute_force_distance(b1, b2)
        assert bound == threshold_bound(b1, b2)
        branches.add(branch)
    assert {"bound", "listed"} <= branches


def test_a_counting_round_narrows_before_the_listing(probe):
    # 120 bars born at two places: up to 2 * 60 * 60 coordinate gaps against at
    # most 8 * 120 listed, so pivots are tested before the listing.
    rng = Random(2)
    births = [Fraction(0), Fraction(7, 4)]
    b1, b2 = _clustered_barcode(rng, 60, births, 30), _clustered_barcode(rng, 60, births, 30)
    d, bound, branch = _probed_distance(probe, b1, b2)
    assert branch == "counted"
    assert bound == threshold_bound(b1, b2) < d == kuhn_distance(b1, b2)
    ranges = probe[1]
    for (lo, hi), (a, b) in zip(ranges, ranges[1:]):
        assert lo <= a < b <= hi and (a, b) != (lo, hi)


def _quarter_pair(n: int, last_birth: int) -> list[Barcode]:
    """``n`` finite bars in degree 0 from ``Random(1)`` and from ``Random(2)``,
    drawn as ``test_gallery.random_pair`` draws its files: births k/4 with
    0 <= k <= ``last_birth`` and lengths j/4 with 1 <= j <= 400."""
    pair = []
    for seed in (1, 2):
        rng = Random(seed)
        bars = []
        for _ in range(n):
            k, j = rng.randint(0, last_birth), rng.randint(1, 400)
            bars.append(Bar(0, Fraction(k, 4), Fraction(k + j, 4)))
        pair.append(Barcode(tuple(bars)))
    return pair


def test_the_matchings_tested_do_not_grow_with_the_scale_of_the_ends(monkeypatch):
    # Both pairs fail the threshold bound, so their distance is searched for
    # among the candidate costs: 12 and 17 matching tests today.  Scaling
    # every end moves no candidate's rank, so a search over the candidates
    # tests as many at every scale; a bisection over magnitudes would not.
    calls = []
    covers = metrics._covers

    def counted(*args):
        calls.append(None)
        return covers(*args)

    monkeypatch.setattr(metrics, "_covers", counted)
    # the gallery's random 1000-bar pair, and 300 bars born in [0, 50]
    for pair, distance in ((_quarter_pair(1000, 8000), Fraction(293, 8)), (_quarter_pair(300, 200), Fraction(25, 2))):
        counts = []
        for factor in (1, 10**40, Fraction(1, 10**40)):
            calls.clear()
            b1, b2 = (Barcode(tuple(Bar(0, bar.birth * factor, bar.death * factor) for bar in b.bars)) for b in pair)
            assert interleaving_distance(b1, b2) == distance * factor
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] <= 24, counts


def _bars(*ends, degree=0) -> Barcode:
    return Barcode(tuple(Bar(degree, Fraction(b), Fraction(d)) for b, d in ends))


@pytest.mark.parametrize(
    "ends1, ends2, expected",
    [
        # |dx| = delta: the births differ by 3/2, the deaths agree
        ([("0", "5")], [("3/2", "5")], Fraction(3, 2)),
        # |dy| = delta: the deaths differ by 3/2, the births agree
        ([("0", "5")], [("0", "13/2")], Fraction(3, 2)),
        # both at once, with a partner at each end of the window
        ([("1", "6"), ("1", "6")], [("5/2", "15/2"), ("-1/2", "9/2")], Fraction(3, 2)),
        # two long bars compete for one near partner, so the bound 3/2 fails
        # and the bisected answer is a gap at the window's edge: |dx| = delta,
        ([("0", "5"), ("0", "5")], [("1/2", "5"), ("2", "5")], Fraction(2)),
        # and |dy| = delta
        ([("0", "5"), ("0", "5")], [("0", "11/2"), ("0", "3")], Fraction(2)),
    ],
)
def test_window_edges_are_inclusive(probe, ends1, ends2, expected):
    b1, b2 = _bars(*ends1), _bars(*ends2)
    for one, other in ((b1, b2), (b2, b1)):
        d, bound, branch = _probed_distance(probe, one, other)
        assert d == expected == brute_force_distance(one, other)
        assert bound == threshold_bound(one, other)
        assert (branch == "bound") == (bound == d)


def test_coincident_duplicate_and_one_sided_bars():
    cases = [
        # coincident points on both sides, more copies on one
        (_bars(("1", "3"), ("1", "3"), ("1", "3")), _bars(("1", "3"))),
        (_bars(("1", "3"), ("1", "3")), _bars(("1", "3"), ("1", "3"))),
        # coincident points of different bars, one side only in degree 1
        (
            Barcode(_bars(("0", "4"), ("0", "4")).bars + _bars(("2", "3"), degree=1).bars),
            _bars(("0", "4"), ("1", "5"), ("1", "5")),
        ),
        # a degree on each side that the other lacks
        (_bars(("0", "2"), degree=2), _bars(("5", "9"), degree=-1)),
        # equal x, different y; equal y, different x
        (_bars(("0", "4"), ("0", "6")), _bars(("0", "5"), ("1", "6"))),
    ]
    for b1, b2 in cases:
        d = interleaving_distance(b1, b2)
        assert d == interleaving_distance(b2, b1) == brute_force_distance(b1, b2) == kuhn_distance(b1, b2)
        assert d >= threshold_bound(b1, b2)


# --- stability: moving every height by at most s moves the barcode by at most s

def _moved(fc: FilteredComplex, rng: Random, bound: Fraction, pinned=None):
    """``fc`` with each height moved by a random multiple of ``bound`` / 21 of
    size at most ``bound``, or, for every generator of grading ``pinned``, by
    exactly ``bound`` one way; and the largest move."""
    moves = [bound * Fraction(rng.randint(-21, 21), 21) for _ in fc.generators]
    if pinned is not None:
        sign = rng.choice((-1, 1))
        moves = [sign * bound if g.grading == pinned else m for g, m in zip(fc.generators, moves)]
    heights = HeightAssignment(tuple(map(add, fc.heights.heights, moves)))
    return FilteredComplex(fc.generators, heights, fc.columns), max(map(abs, moves))


def _check_stability(fc: FilteredComplex, rng: Random, bound: Fraction) -> None:
    """Every entry of a column sits more than 2 * ``bound`` below it, so moved
    heights stay valid, and the distance is at most the largest move.  Where
    every generator of grading k moves by the same s, every infinite bar of
    degree k moves by exactly s: cycles and boundaries of degree k, and so
    when a class is first born, depend on the heights of grading k alone.  On
    a line no matching of those bars beats |s|, so the distance is |s|."""
    barcode = compute_barcode(fc)
    moved, largest = _moved(fc, rng, bound)
    assert interleaving_distance(barcode, compute_barcode(moved)) <= largest
    degrees = sorted({bar.degree for bar in barcode.bars if not bar.finite})
    moved, _ = _moved(fc, rng, bound, rng.choice(degrees))
    assert interleaving_distance(barcode, compute_barcode(moved)) == bound


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 1500), st.fractions(Fraction(1, 1000), Fraction(1, 10), max_denominator=1000))
def test_moving_heights_of_a_drawn_planted_complex_moves_its_barcode_at_most_as_far(seed, max_n, s):
    # Planted heights are quarters, so moves of at most 1/10 keep them valid.
    rng = Random(seed)
    fc, _ = planted_complex(rng, max_n=max_n)
    moved, largest = _moved(fc, rng, s)
    b1, b2 = compute_barcode(fc), compute_barcode(moved)
    d = interleaving_distance(b1, b2)
    assert d <= largest <= s
    if len(b1.bars) + len(b2.bars) <= 300:
        assert d == kuhn_distance(b1, b2)


def test_moving_planted_heights_moves_the_barcode_at_most_as_far():
    # Planted heights are quarters, so moves of at most 1/10 keep them valid.
    for seed in range(40):
        rng = Random(seed)
        fc, _ = planted_complex(rng, max_n=400)
        _check_stability(fc, rng, Fraction(1, 10))


def test_moving_torus_heights_moves_every_barcode_at_most_as_far():
    # Flood heights are integers, so moves of at most 2/5 keep them valid.
    rng = Random(0)
    for n in range(3, 10):
        dga = torus_2n_dga(n)
        heights = flood_heights(dga)
        for eps in enumerate_augmentations(dga):
            fc = build_filtered_complex(linearized_differential(dga, eps), heights)
            _check_stability(fc, rng, Fraction(2, 5))


def test_moving_corpus_heights_moves_every_barcode_at_most_as_far():
    # The smallest gap between a column and an entry is 3/10, in trefoil_rii, so
    # moves of at most 1/10 keep the file heights valid; island has no heights.
    rng = Random(0)
    for name in ("unknot", "trefoil", "trefoil_rii"):
        kd = load_corpus(name)
        for eps in enumerate_augmentations(kd.dga):
            fc = build_filtered_complex(linearized_differential(kd.dga, eps), kd.heights)
            _check_stability(fc, rng, Fraction(1, 10))
