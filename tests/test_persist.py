import math
import re
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import BAD_HEIGHT, Generator, HeightAssignment, StructureError
from legch.augment import Augmentation, enumerate_augmentations, linearized_differential
from legch.persist import (
    FilteredComplex,
    build_filtered_complex,
    compute_barcode,
)

from support import (
    dga_of,
    flood_heights,
    gen,
    gf2_rank,
    homology_rank_oracle,
    in_degree,
    load_corpus,
    persistent_rank_oracle,
    planted_complex,
    torus_2n_dga,
    triples,
    zero_grading_values,
)

UNKNOT = load_corpus("unknot")
TREFOIL = load_corpus("trefoil")
RII = load_corpus("trefoil_rii")


def pinned_trefoil_complex():
    eps = enumerate_augmentations(TREFOIL.dga)[2]  # values (1,0,0) on q3,q4,q5
    assert zero_grading_values(eps, TREFOIL.dga) == (1, 0, 0)
    lin = linearized_differential(TREFOIL.dga, eps)
    return build_filtered_complex(lin, TREFOIL.heights)


# --- construction ---------------------------------------------------------

def test_trefoil_complex_builds():
    fc = pinned_trefoil_complex()
    assert len(fc.generators) == 5


def test_unknot_complex_builds():
    lin = linearized_differential(UNKNOT.dga, enumerate_augmentations(UNKNOT.dga)[0])
    fc = build_filtered_complex(lin, UNKNOT.heights)
    assert fc.columns == (frozenset(),)


def test_equal_heights_rejected_naming_the_pair():
    eps = enumerate_augmentations(TREFOIL.dga)[2]
    lin = linearized_differential(TREFOIL.dga, eps)
    flat = HeightAssignment((1,) * len(TREFOIL.dga))
    with pytest.raises(StructureError) as exc:
        compute_barcode(build_filtered_complex(lin, flat))
    assert exc.value.code == BAD_HEIGHT
    assert re.match(r"generator q[35] appears in d\(q[12]\) but does not sit strictly below it", str(exc.value))


def test_first_height_fault_in_generator_order_is_named():
    # q sits lowest, so a scan in height order would name d(q) first.
    dga = dga_of([("a", 0), ("b", 0), ("p", 1), ("q", 1)], {"a": [], "b": [], "p": [["a"]], "q": [["b"]]})
    heights = HeightAssignment((5, 5, 2, 1))
    with pytest.raises(StructureError, match="^generator a appears in d\\(p\\) but") as exc:
        compute_barcode(build_filtered_complex(linearized_differential(dga, Augmentation((0,) * 4)), heights))
    assert exc.value.code == BAD_HEIGHT


def test_equal_columns_name_the_same_height_fault():
    # g0 and g8 both sit above top; the two builds of top's column are equal
    # frozensets that iterate in different orders.
    gens = tuple(Generator(i, f"g{i}", 0) for i in range(9)) + (Generator(9, "top", 1),)
    heights = HeightAssignment((5,) + (1,) * 7 + (5, 2))
    for column in (frozenset([0, 8]), frozenset([8, 0])):
        with pytest.raises(StructureError, match="^generator g0 appears in d\\(top\\) but") as exc:
            compute_barcode(FilteredComplex(gens, heights, (frozenset(),) * 9 + (column,)))
        assert exc.value.code == BAD_HEIGHT


def test_missing_height_rejected():
    gens = (Generator(0, "a", 0), Generator(1, "b", 1))
    with pytest.raises(StructureError, match="no height assigned to generator id 1") as exc:
        compute_barcode(FilteredComplex(gens, HeightAssignment((1,)), (frozenset(), frozenset({0}))))
    assert exc.value.code == BAD_HEIGHT


# --- barcodes ----------------------------------------------------------------

def test_trefoil_barcode_matches_the_worked_example():
    barcode = compute_barcode(pinned_trefoil_complex())
    assert triples(barcode) == (
        (0, Fraction(1), Fraction(4)),
        (0, Fraction(1), math.inf),
        (0, Fraction(1), math.inf),
        (1, Fraction(4), math.inf),
    )
    finite = [b for b in barcode.bars if b.finite][0]
    assert finite.birth_label == "q3+q5"
    assert finite.death_label in ("q1", "q2")
    h1 = in_degree(barcode, 1)[0]
    assert h1.birth_label == "q1+q2"


def test_unknot_barcode_is_one_infinite_bar():
    lin = linearized_differential(UNKNOT.dga, enumerate_augmentations(UNKNOT.dga)[0])
    barcode = compute_barcode(build_filtered_complex(lin, UNKNOT.heights))
    assert triples(barcode) == ((1, Fraction(1), math.inf),)
    assert barcode.bars[0].birth_label == "q"


def test_rii_barcode_adds_one_short_bar():
    eps = enumerate_augmentations(RII.dga)[2]
    lin = linearized_differential(RII.dga, eps)
    barcode = compute_barcode(build_filtered_complex(lin, RII.heights))
    assert triples(barcode) == (
        (0, Fraction(1), Fraction(4)),
        (0, Fraction(1), math.inf),
        (0, Fraction(1), math.inf),
        (0, Fraction(2), Fraction(23, 10)),
        (1, Fraction(4), math.inf),
    )


def test_rii_barcode_same_for_every_augmentation():
    expected = None
    for eps in enumerate_augmentations(RII.dga):
        lin = linearized_differential(RII.dga, eps)
        got = triples(compute_barcode(build_filtered_complex(lin, RII.heights)))
        if expected is None:
            expected = got
        assert got == expected


def test_empty_complex_has_empty_barcode():
    fc = FilteredComplex((), HeightAssignment(()), ())
    assert compute_barcode(fc).bars == ()


# --- oracle -----------------------------------------------------------------

def test_trefoil_rank_oracle():
    fc = pinned_trefoil_complex()
    assert homology_rank_oracle(fc, 0, 2) == 3
    assert homology_rank_oracle(fc, 0, 5) == 2
    assert homology_rank_oracle(fc, 1, 5) == 1
    assert homology_rank_oracle(fc, 0, Fraction(1, 2)) == 0
    assert homology_rank_oracle(fc, 1, Fraction(1, 2)) == 0


def bars_at(barcode, degree, t):
    return sum(
        1 for b in barcode.bars if b.degree == degree and b.birth <= t < b.death
    )


def sample_levels(fc):
    heights = sorted({fc.heights.of(g.gid) for g in fc.generators})
    levels = {Fraction(0), heights[0] - 1, heights[-1] + 1}
    for h in heights:
        levels.add(h)
        levels.add(h + Fraction(1, 8))
        levels.add(h - Fraction(1, 8))
    return sorted(levels)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_barcode_counts_match_rank_oracle(seed):
    fc, _ = planted_complex(Random(seed))
    barcode = compute_barcode(fc)
    degrees = sorted({g.grading for g in fc.generators})
    for degree in degrees:
        for t in sample_levels(fc):
            assert bars_at(barcode, degree, t) == homology_rank_oracle(fc, degree, t)


def assert_persistent_ranks(fc, pairs):
    """r(s, t) from the oracle equals the number of bars with birth <= s and
    t < death, in every degree, for each pair s < t."""
    barcode = compute_barcode(fc)
    for degree in sorted({g.grading for g in fc.generators}):
        for s, t in pairs:
            alive = sum(1 for b in barcode.bars if b.degree == degree and b.birth <= s and t < b.death)
            assert alive == persistent_rank_oracle(fc, degree, s, t), (degree, s, t)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from((12, 60, 400)))
def test_barcode_pairs_match_the_persistent_rank_oracle(seed, max_n):
    fc, _ = planted_complex(Random(seed), max_n)
    pairs = list(combinations(sample_levels(fc), 2))
    assert_persistent_ranks(fc, Random(seed).sample(pairs, min(len(pairs), 40)))


def torus_sum_dga(m: int, n: int):
    """T(2,m)'s DGA beside T(2,n)'s, whose names are primed."""
    first, second = gen.torus_doc(m), gen.torus_doc(n)
    generators = [(g["name"], g["grading"]) for g in first["generators"]]
    generators += [(g["name"] + "'", g["grading"]) for g in second["generators"]]
    differential = dict(first["differential"])
    differential.update({q + "'": [[x + "'" for x in w] for w in words] for q, words in second["differential"].items()})
    return dga_of(generators, differential)


def test_persistent_ranks_over_every_torus_augmentation():
    # Flood heights give every b one height, so no triple there tells which b
    # a bar is born at or which a kills it.  Distinct heights, one per b and
    # all below both a's, do; their ends are the integers 1..n+2, so the
    # integer pairs s < t give every r(s, t).
    for n in range(3, 10):
        dga = torus_2n_dga(n)
        flooded = flood_heights(dga)
        distinct = HeightAssignment((n + 1, n + 2, *range(1, n + 1)))  # a1, a2, b1..bn
        for eps in enumerate_augmentations(dga):
            lin = linearized_differential(dga, eps)
            fc = build_filtered_complex(lin, flooded)
            assert_persistent_ranks(fc, list(combinations(sample_levels(fc), 2)))
            assert_persistent_ranks(build_filtered_complex(lin, distinct), list(combinations(range(n + 3), 2)))
    # a1 and a2 always linearize to one column, so T(2,n) has at most one
    # finite bar per degree.  Beside T(2,m), with the b's of the two summands
    # interleaved and their a's too, it has two in degree 0, and a death moved
    # from one to the other changes r(s, t).
    for m, n in ((3, 3), (3, 4), (4, 5)):
        dga = torus_sum_dga(m, n)
        top = 2 * n  # above every b, since m <= n
        heights = HeightAssignment((top + 1, top + 3, *range(1, 2 * m, 2), top + 2, top + 4, *range(2, 2 * n + 1, 2)))
        for eps in enumerate_augmentations(dga):
            fc = build_filtered_complex(linearized_differential(dga, eps), heights)
            assert_persistent_ranks(fc, list(combinations(range(top + 5), 2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_barcode_recovers_planted_bars(seed):
    fc, planted = planted_complex(Random(seed))
    assert tuple(sorted(triples(compute_barcode(fc)))) == planted


# Bar checks nothing itself: the reduction alone must give birth < death.
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from((12, 400)))
def test_no_bar_is_born_dead(seed, max_n):
    fc, _ = planted_complex(Random(seed), max_n)
    for bar in compute_barcode(fc).bars:
        assert bar.birth < bar.death


def test_no_bar_is_born_dead_over_every_t27_augmentation():
    dga = torus_2n_dga(7)
    heights = flood_heights(dga)
    for eps in enumerate_augmentations(dga):
        for bar in compute_barcode(build_filtered_complex(linearized_differential(dga, eps), heights)).bars:
            assert bar.birth < bar.death


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_barcode_invariant_under_generator_permutation(seed, perm_seed):
    fc, _ = planted_complex(Random(seed))
    n = len(fc.generators)
    perm = list(range(n))
    Random(perm_seed).shuffle(perm)
    gens = tuple(
        Generator(perm[g.gid], g.name, g.grading) for g in fc.generators
    )
    gens = tuple(sorted(gens, key=lambda g: g.gid))
    heights = [Fraction(0)] * n
    columns = [frozenset()] * n
    for gid, col in enumerate(fc.columns):
        heights[perm[gid]] = fc.heights.of(gid)
        columns[perm[gid]] = frozenset(perm[p] for p in col)
    permuted = FilteredComplex(gens, HeightAssignment(tuple(heights)), tuple(columns))
    assert triples(compute_barcode(permuted)) == triples(compute_barcode(fc))


def test_rank_of_boundary_equals_finite_bars_one_degree_down():
    fc = pinned_trefoil_complex()
    barcode = compute_barcode(fc)
    # rank of the degree-1 block is the number of finite bars in degree 0
    killers = [g.gid for g in fc.generators if g.grading == 1]
    rank = sum(1 for b in barcode.bars if b.finite and b.degree == 0)
    masks = []
    for g in killers:
        m = 0
        for p in fc.columns[g]:
            m |= 1 << p
        masks.append(m)
    assert gf2_rank(masks) == rank
