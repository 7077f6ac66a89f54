from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch import augment
from legch.algebra import DGA, Element, Generator, StructureError, validate_dga
from legch.augment import (
    MAX_SEARCH_NODES,
    SEARCH_BOUND,
    Augmentation,
    enumerate_augmentations,
    linearized_differential,
    pick_augmentation,
)

from support import (
    check_chain_complex,
    compiled_words_by_counting,
    dga_from_complex,
    dga_of,
    enumerate_augmentations_brute,
    evaluate,
    gen,
    gid_of,
    linear_part,
    linearize_by_conjugation,
    load_corpus,
    planted_complex,
    search_work_brute,
    ONE,
    torus_2n_dga,
    zero_grading_augmentation,
    zero_grading_values,
)

UNKNOT = load_corpus("unknot").dga
TREFOIL = load_corpus("trefoil").dga
RII = load_corpus("trefoil_rii").dga

# Frozen by brute force over all 8 assignments against the two evaluation
# constraints of the trefoil differential.
TREFOIL_TRIPLES = [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def trefoil_aug(triple) -> Augmentation:
    return zero_grading_augmentation(TREFOIL, triple)


# --- enumeration -----------------------------------------------------------

def test_unknot_has_exactly_one_augmentation():
    augs = enumerate_augmentations(UNKNOT)
    assert len(augs) == 1
    assert augs[0].values == (0,)


def test_trefoil_has_exactly_five_augmentations():
    augs = enumerate_augmentations(TREFOIL)
    assert len(augs) == 5
    assert [zero_grading_values(a, TREFOIL) for a in augs] == TREFOIL_TRIPLES


def assert_listing_and_picks(dga, brute, indices) -> None:
    """The listing and each pick agree with ``brute``, and an index out of range
    picks nothing but still gets the count."""
    count = len(brute)
    assert enumerate_augmentations(dga) == brute
    for i in indices:
        assert pick_augmentation(dga, i) == (brute[i], count), i
    for i in (-1, count, count + 1):
        assert pick_augmentation(dga, i) == (None, count), i


def test_enumeration_is_the_lexicographic_filter():
    for name in ("unknot", "trefoil", "trefoil_rii", "island"):
        dga = load_corpus(name).dga
        brute = enumerate_augmentations_brute(dga)
        assert_listing_and_picks(dga, brute, sorted({0, len(brute) // 3, len(brute) - 1}))


@st.composite
def random_dgas(draw):
    """Up to 12 grading-0 and 3 grading-1 generators with arbitrary words, unit
    words included; d^2 and the grading rule are not imposed, since the search
    only evaluates the differential."""
    n0 = draw(st.integers(0, 12))
    n1 = draw(st.integers(0, 3))
    gens = [(f"x{i}", 0) for i in range(n0)] + [(f"y{i}", 1) for i in range(n1)]
    names = [name for name, _ in gens]
    # Most words are nonempty and most differentials zero, so that many
    # instances have some augmentations but not all 2^k.
    words = st.lists(st.sampled_from(names), min_size=1, max_size=4) if names else st.just([])
    word = st.one_of(st.just([]), words, words, words)
    column = st.one_of(st.just([]), st.just([]), st.lists(word, min_size=1, max_size=4))
    differential = {name: draw(column) for name in names}
    return dga_of(gens, differential)


@settings(max_examples=100, deadline=None)
@given(random_dgas(), st.data())
def test_enumeration_matches_brute_force_on_random_dgas(dga, data):
    brute = enumerate_augmentations_brute(dga)
    indices = data.draw(st.lists(st.integers(0, len(brute) - 1), max_size=4)) if brute else []
    assert_listing_and_picks(dga, brute, indices)


@settings(max_examples=60, deadline=None)
@given(random_dgas())
def test_search_bound_charges_the_work_of_the_state_graph(dga):
    # Each distinct state costs 1 plus its live polynomials, and a listing
    # also its length, so the bound fires exactly past the oracle's work.
    work = search_work_brute(dga)
    listed = work + len(enumerate_augmentations_brute(dga))
    for search, cost in ((lambda d: pick_augmentation(d, 0), work), (enumerate_augmentations, listed)):
        with patch.object(augment, "MAX_SEARCH_NODES", cost):
            search(dga)
        if cost:
            with patch.object(augment, "MAX_SEARCH_NODES", cost - 1):
                with pytest.raises(StructureError, match=f"bound of {cost - 1} search nodes") as exc:
                    search(dga)
                assert exc.value.code == SEARCH_BOUND


# --- compiled words -----------------------------------------------------------

def test_compiled_words_match_the_counting_oracle_on_the_corpus_and_torus_knots():
    dgas = [load_corpus(name).dga for name in ("unknot", "trefoil", "trefoil_rii", "island")]
    for dga in dgas + [torus_2n_dga(n) for n in range(3, 14)]:
        assert dga.compiled_words == compiled_words_by_counting(dga)


@settings(max_examples=100, deadline=None)
@given(random_dgas())
def test_compiled_words_match_the_counting_oracle_on_random_dgas(dga):
    assert dga.compiled_words == compiled_words_by_counting(dga)


def test_compiled_words_count_letters_repeated_up_to_four_times_past_64_bits():
    gids = (0, 3, 63, 64, 65, 127, 128, 200)
    rng = Random(21)
    columns = []
    for _ in range(40):
        words = set()
        for _ in range(rng.randint(1, 6)):
            word = [g for g in rng.sample(gids, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            rng.shuffle(word)
            words.add(tuple(word))
        columns.append(Element(words))
    columns.append(Element([(64, 3, 64, 64, 3, 200), (200,) * 4, (65,)]))
    n = max(gids) + 1
    dga = DGA(
        tuple(Generator(i, f"g{i}", 0) for i in range(n)),
        tuple(columns) + tuple(Element() for _ in range(n - len(columns))),
    )
    order, linears, masks = dga.compiled_words
    assert (order, linears, masks) == compiled_words_by_counting(dga)
    # Every generator has grading 0, so gid g is bit 200 - g.
    assert order == tuple(range(200, -1, -1))
    # 64 three times, 3 twice, 200 once; 200 four times; 65 alone is linear.
    assert linears[40] == {65}
    g3, g64, g200 = 1 << 197, 1 << 136, 1 << 0
    assert sorted(masks[40]) == sorted([(g3 | g64 | g200, g64 | g200, g200), (g200, 0, 0)])


def former_fault_message(dga, eps) -> str:
    """The message the former check built, evaluating word by word."""
    values = eps.values
    if len(values) != len(dga):
        return f"invalid augmentation: value vector has length {len(values)}, expected {len(dga)}"
    problems = [f"value {v!r} on {g.name} is not 0 or 1" for g, v in zip(dga.generators, values) if v not in (0, 1)]
    if not problems:
        problems = [
            f"nonzero value on {g.name}, which has grading {g.grading}"
            for g in dga.generators
            if g.grading != 0 and values[g.gid] != 0
        ]
        problems += [f"d({g.name}) does not evaluate to 0" for g, d in zip(dga.generators, dga.differential) if evaluate(eps, d)]
    return "invalid augmentation: " + "; ".join(problems)


@settings(max_examples=150, deadline=None)
@given(random_dgas(), st.data())
def test_compiled_linearization_matches_the_oracles_on_random_dgas(dga, data):
    """Repeated letters, unit words and grading-1 letters inside words: the
    compiled words give the conjugation oracle's columns for every
    augmentation, and every other value vector fails with the former message,
    built word by word."""
    brute = enumerate_augmentations_brute(dga)
    for eps in brute:
        columns = linearized_differential(dga, eps).columns
        assert columns == linearize_by_conjugation(dga, eps)
        assert columns == tuple(linear_part(d, eps) for d in dga.differential)
    k = sum(1 for g in dga.generators if g.grading == 0)
    vectors = st.one_of(
        st.lists(st.sampled_from((0, 1)), min_size=k, max_size=k).map(
            lambda bits: zero_grading_augmentation(dga, bits)
        ),
        st.lists(st.sampled_from((0, 1)), min_size=len(dga), max_size=len(dga)).map(lambda v: Augmentation(tuple(v))),
        st.lists(st.sampled_from((0, 1, 2, -1, True)), max_size=len(dga) + 1).map(lambda v: Augmentation(tuple(v))),
    )
    for _ in range(4):
        eps = data.draw(vectors)
        if eps in brute:
            continue
        with pytest.raises(ValueError) as exc:
            linearized_differential(dga, eps)
        assert str(exc.value) == former_fault_message(dga, eps)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
def test_torus_family_counts(n):
    # The transfer-matrix count shares no code with the search.  A pick reads
    # the count off the state graph; past T(2,17) the listing is refused.
    dga = torus_2n_dga(n)
    count = pick_augmentation(dga, 0)[1]
    assert count == gen.count_augmentations(n) == (4 ** ((n + 1) // 2) - 1) // 3
    if n <= 15:
        assert len(enumerate_augmentations(dga)) == count


def test_torus_family_matches_brute_force():
    rng = Random(11)
    for n in (3, 5, 7, 9, 11):
        dga = torus_2n_dga(n)
        brute = enumerate_augmentations_brute(dga)
        assert_listing_and_picks(dga, brute, [0, len(brute) - 1] + rng.sample(range(len(brute)), 4))


def test_torus_3_is_the_corpus_trefoil():
    augs = enumerate_augmentations(torus_2n_dga(3))
    assert [a.values[2:] for a in augs] == TREFOIL_TRIPLES


def test_constant_differential_admits_no_augmentation():
    dga = dga_of([("q", 1)], {"q": [[]]})
    assert enumerate_augmentations(dga) == []


def test_enumeration_bound_guard():
    n = 25
    dga = dga_of(
        [(f"g{i}", 0) for i in range(n)], {f"g{i}": [] for i in range(n)}
    )
    with pytest.raises(StructureError, match=str(MAX_SEARCH_NODES)) as exc:
        enumerate_augmentations(dga)
    assert exc.value.code == SEARCH_BOUND


def test_search_bound_counts_partial_assignments(monkeypatch):
    # k free generators share one state per depth, with no live polynomial, so
    # a listing is charged k + 1 for them and 2^k for its length: 38 for k = 5
    # and 71 for k = 6.
    monkeypatch.setattr(augment, "MAX_SEARCH_NODES", 2**6 - 1)

    def free(k):
        return dga_of([(f"g{i}", 0) for i in range(k)], {f"g{i}": [] for i in range(k)})

    assert len(enumerate_augmentations(free(5))) == 2**5
    with pytest.raises(ValueError, match="bound of 63 search nodes"):
        enumerate_augmentations(free(6))


def test_search_bound_charges_the_bits_of_the_counts():
    # A state at depth d keeps an exact count of up to 2^(k - d), so it is
    # also charged (k - d) >> 10.  On 1200 free generators that adds 1 to the
    # 177 states at depths 0..176: a pick costs 1201 + 177.  On 50,000 the
    # counts would hold about 50,000^2 / 2 bits (150 MB): the pick is refused.
    def free(k):
        return DGA(tuple(Generator(i, f"g{i}", 0) for i in range(k)), (Element(),) * k)

    with patch.object(augment, "MAX_SEARCH_NODES", 1378):
        assert pick_augmentation(free(1200), 0)[1] == 2**1200
    for k, bound in ((1200, 1377), (50_000, MAX_SEARCH_NODES)):
        with patch.object(augment, "MAX_SEARCH_NODES", bound):
            with pytest.raises(StructureError, match=rf"bound of {bound} search nodes \({k} grading-0") as exc:
                pick_augmentation(free(k), 0)
        assert exc.value.code == SEARCH_BOUND


def test_enumeration_is_lexicographic_and_complete_on_island():
    # Nine grading-0 generators with zero differential: every assignment works.
    island = load_corpus("island").dga
    augs = enumerate_augmentations(island)
    assert len(augs) == 2**9
    vectors = [zero_grading_values(a, island) for a in augs]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_rii_augmentations_extend_trefoil_ones():
    augs = enumerate_augmentations(RII)
    assert len(augs) == 5
    b = gid_of(RII, "b")
    q4 = gid_of(RII, "q4")
    for eps in augs:
        assert eps.values[b] == eps.values[q4]


# --- evaluation -------------------------------------------------------------

def test_evaluate_zero_element():
    eps = trefoil_aug((1, 0, 0))
    assert evaluate(eps, Element()) == 0


def test_evaluate_unit_element():
    eps = trefoil_aug((1, 0, 0))
    assert evaluate(eps, ONE) == 1


def test_evaluate_trefoil_differential():
    eps = trefoil_aug((1, 0, 0))
    assert evaluate(eps, TREFOIL.differential[gid_of(TREFOIL, "q1")]) == 0
    assert evaluate(eps, TREFOIL.differential[gid_of(TREFOIL, "q2")]) == 0


def test_augmentation_validity_checks():
    linearized_differential(TREFOIL, trefoil_aug((1, 0, 0)))
    unsolved = r"d\(q1\) does not evaluate to 0; d\(q2\) does not evaluate to 0$"
    with pytest.raises(ValueError, match=f"^invalid augmentation: {unsolved}"):
        linearized_differential(TREFOIL, trefoil_aug((0, 0, 0)))
    graded = "nonzero value on q1, which has grading 1"
    with pytest.raises(ValueError, match=f"^invalid augmentation: {graded}; {unsolved}"):
        linearized_differential(TREFOIL, Augmentation((1, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="^invalid augmentation: value vector has length 3, expected 5$"):
        linearized_differential(TREFOIL, Augmentation((1, 0, 0)))


def test_values_other_than_zero_and_one_are_reported():
    for bits in ((3, 0, 0), (-1, 0, 0), (2, 0, 0)):
        eps = trefoil_aug(bits)
        message = f"^invalid augmentation: value {bits[0]} on q3 is not 0 or 1$"
        with pytest.raises(ValueError, match=message):
            linearized_differential(TREFOIL, eps)


def test_word_of_two_graded_letters_counts_only_in_the_fault_message():
    # ab has two grading-1 letters: no augmentation sees it, but a=b=1 does.
    dga = dga_of(
        [("a", 1), ("b", 1), ("c", 0), ("w", 2), ("z", 3)],
        {"a": [], "b": [], "c": [], "w": [], "z": [["a", "b"], ["w"]]},
    )
    validate_dga(dga)
    augs = enumerate_augmentations(dga)
    assert len(augs) == 2
    for eps in augs:
        assert linearized_differential(dga, eps).columns[gid_of(dga, "z")] == {gid_of(dga, "w")}
    graded = "nonzero value on a, which has grading 1; nonzero value on b, which has grading 1"
    with pytest.raises(ValueError, match=f"^invalid augmentation: {graded}; d\\(z\\) does not evaluate to 0$"):
        linearized_differential(dga, Augmentation((1, 1, 0, 0, 0)))


# --- linearized differential --------------------------------------------------

def cols_by_name(dga, lin):
    return {
        dga.generators[gid].name: frozenset(
            dga.generators[p].name for p in col
        )
        for gid, col in enumerate(lin.columns)
    }


def test_unknot_linearized_differential_is_trivial():
    lin = linearized_differential(UNKNOT, enumerate_augmentations(UNKNOT)[0])
    assert all(not col for col in lin.columns)


def test_trefoil_linearized_differential_for_pinned_augmentation():
    lin = linearized_differential(TREFOIL, trefoil_aug((1, 0, 0)))
    names = cols_by_name(TREFOIL, lin)
    assert names["q1"] == {"q3", "q5"}
    assert names["q2"] == {"q3", "q5"}
    assert names["q3"] == names["q4"] == names["q5"] == frozenset()


def test_trefoil_linearization_depends_on_the_augmentation():
    # The per-word product formula gives different matrices for different
    # augmentations; only some reproduce the q3+q5 column.
    expected_q1 = {
        (0, 0, 1): {"q3", "q5"},
        (0, 1, 1): {"q5"},
        (1, 0, 0): {"q3", "q5"},
        (1, 1, 0): {"q3"},
        (1, 1, 1): {"q4"},
    }
    for triple, q1_col in expected_q1.items():
        lin = linearized_differential(TREFOIL, trefoil_aug(triple))
        assert cols_by_name(TREFOIL, lin)["q1"] == q1_col, triple


@pytest.mark.parametrize("triple", TREFOIL_TRIPLES)
def test_trefoil_formula_matches_symbolic_conjugation(triple):
    eps = trefoil_aug(triple)
    lin = linearized_differential(TREFOIL, eps)
    assert lin.columns == linearize_by_conjugation(TREFOIL, eps)


def test_rii_formula_matches_symbolic_conjugation():
    for eps in enumerate_augmentations(RII):
        lin = linearized_differential(RII, eps)
        assert lin.columns == linearize_by_conjugation(RII, eps)


def test_invalid_augmentation_rejected():
    with pytest.raises(ValueError):
        linearized_differential(TREFOIL, trefoil_aug((0, 0, 0)))


def test_zero_augmentation_gives_naive_truncation():
    # Without constant terms the zero augmentation linearizes to the plain
    # length-1 part of each differential.
    dga = dga_of(
        [("q1", 1), ("q2", 1), ("q3", 0), ("q4", 0), ("q5", 0)],
        {
            "q1": [["q5"], ["q5", "q4", "q3"], ["q3"]],
            "q2": [["q3"], ["q3", "q4", "q5"], ["q5"]],
            "q3": [],
            "q4": [],
            "q5": [],
        },
    )
    eps = zero_grading_augmentation(dga, (0, 0, 0))
    lin = linearized_differential(dga, eps)
    names = cols_by_name(dga, lin)
    assert names["q1"] == {"q3", "q5"}
    assert names["q2"] == {"q3", "q5"}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_linearized_complexes_square_to_zero_with_degree_drop(seed):
    fc, _ = planted_complex(Random(seed))
    dga = dga_from_complex(fc)
    eps = Augmentation((0,) * len(dga))  # valid: every word is one letter
    lin = linearized_differential(dga, eps)
    check_chain_complex(dga.generators, lin.columns)
    assert lin.columns == linearize_by_conjugation(dga, eps)
    torus = torus_2n_dga(3 + 2 * (seed % 3))
    for eps in enumerate_augmentations(torus):
        check_chain_complex(torus.generators, linearized_differential(torus, eps).columns)
