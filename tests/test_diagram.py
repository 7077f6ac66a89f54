from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legch.algebra import HeightAssignment
from legch.diagram import area_inequalities, assign_heights, flood

from support import CORPUS_NAMES, flood_by_rescan, load_corpus, random_inequality_system, validate_heights

UNKNOT = load_corpus("unknot")
TREFOIL = load_corpus("trefoil")
ISLAND = load_corpus("island")


def named_form(kd, form):
    return {kd.dga.generators[g].name: c for g, c in form}


# --- area inequalities ---------------------------------------------------

def test_unknot_inequalities():
    forms = area_inequalities(UNKNOT.diagram)
    assert [named_form(UNKNOT, f) for f in forms] == [{"q": 1}, {"q": 1}]


def test_trefoil_topmost_inequality():
    forms = area_inequalities(TREFOIL.diagram)
    assert named_form(TREFOIL, forms[2]) == {"q1": 1, "q3": -1, "q4": -1, "q5": -1}


def test_island_inequalities():
    forms = [named_form(ISLAND, f) for f in area_inequalities(ISLAND.diagram)]
    assert len(forms) == 10
    assert {"q2": 1, "q3": -1, "q5": 1, "q7": -1, "q9": -1} in forms
    assert {"q8": 1, "q9": -1} in forms
    assert {"q7": 1, "q6": -1, "q5": -1} in forms


# --- flooding ---------------------------------------------------------------

def test_island_flooding_fails_with_two_tiers():
    t = flood(area_inequalities(ISLAND.diagram), ISLAND.diagram.crossings)
    assert t.status == "failure"
    name = lambda gids: {ISLAND.dga.generators[g].name for g in gids}
    assert [name(tier) for tier in t.tiers] == [{"q1", "q2"}, {"q3"}]
    assert name(t.unassigned) == {"q4", "q5", "q6", "q7", "q8", "q9"}


def test_single_free_inequality():
    t = flood((((0, 1),),), {0})
    assert t.status == "success"
    assert t.tiers == (frozenset({0}), frozenset())


def test_two_step_chain():
    t = flood((((0, 1), (1, -1)), ((1, 1),)), {0, 1})
    assert t.status == "success"
    assert t.tiers == (frozenset({0}), frozenset({1}), frozenset())


def test_trefoil_floods_in_two_rounds():
    t = flood(area_inequalities(TREFOIL.diagram), TREFOIL.diagram.crossings)
    assert t.status == "success"
    name = lambda gids: {TREFOIL.dga.generators[g].name for g in gids}
    assert [name(tier) for tier in t.tiers] == [{"q1", "q2"}, {"q3", "q4", "q5"}, set()]


# Small systems, and larger ones that flood for up to 8 or 9 rounds.
@pytest.mark.parametrize("max_vars, max_forms, min_rounds", [(8, 10, 5), (40, 60, 8)])
def test_flood_matches_the_rescan_oracle(max_vars, max_forms, min_rounds):
    most_rounds = 0
    for seed in range(1000):
        forms, crossings = random_inequality_system(Random(seed), max_vars, max_forms)
        t = flood(forms, crossings)
        assert t == flood_by_rescan(forms, crossings), seed
        most_rounds = max(most_rounds, len(t.tiers))
    assert most_rounds >= min_rounds


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_flood_matches_the_rescan_oracle_on_the_corpus(name):
    d = load_corpus(name).diagram
    forms = area_inequalities(d)
    assert flood(forms, d.crossings) == flood_by_rescan(forms, d.crossings)


# --- height assignment ---------------------------------------------------

def test_assign_heights_two_step_chain():
    t = flood((((0, 1), (1, -1)), ((1, 1),)), {0, 1})
    h = assign_heights(t)
    assert h.of(1) == 1
    assert h.of(0) == 3


def test_assign_heights_single_tier():
    t = flood((((0, 1),),), {0})
    assert assign_heights(t).of(0) == 1


def test_assign_heights_trefoil():
    t = flood(area_inequalities(TREFOIL.diagram), TREFOIL.diagram.crossings)
    h = assign_heights(t)
    by_name = {g.name: h.of(g.gid) for g in TREFOIL.dga.generators}
    assert by_name == {"q1": 7, "q2": 7, "q3": 1, "q4": 1, "q5": 1}
    assert {type(x) for x in h.heights} == {int}


def test_assign_heights_requires_success():
    t = flood(area_inequalities(ISLAND.diagram), ISLAND.diagram.crossings)
    with pytest.raises(ValueError):
        assign_heights(t)


def test_unknot_flooding_reproduces_height_one():
    t = flood(area_inequalities(UNKNOT.diagram), UNKNOT.diagram.crossings)
    assert assign_heights(t).of(0) == 1


# --- height validation -----------------------------------------------------

def test_file_trefoil_heights_satisfy_all_inequalities():
    assert validate_heights(TREFOIL.heights, area_inequalities(TREFOIL.diagram)) == ()


def test_equal_heights_fail_a_difference_inequality():
    assert validate_heights(HeightAssignment((1, 1)), (((0, 1), (1, -1)),)) == (0,)


# --- properties ----------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_flood_halts_within_bound(seed):
    forms, crossings = random_inequality_system(Random(seed))
    t = flood(forms, crossings)
    assert len(t.tiers) <= len(crossings) + 1


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_successful_flooding_validates(seed):
    forms, crossings = random_inequality_system(Random(seed))
    t = flood(forms, crossings)
    if t.status != "success":
        return
    assert frozenset().union(*t.tiers) == crossings
    assert validate_heights(assign_heights(t), forms) == ()


@settings(max_examples=100, deadline=None)
@given(seeds, seeds)
def test_flood_invariant_under_shuffle_and_relabel(seed, shuffle_seed):
    forms, crossings = random_inequality_system(Random(seed))
    rng = Random(shuffle_seed)
    n = len(crossings)
    relabel = list(range(n))
    rng.shuffle(relabel)
    permuted = [tuple(sorted((relabel[g], c) for g, c in form)) for form in forms]
    rng.shuffle(permuted)

    base = flood(forms, crossings)
    other = flood(permuted, frozenset(relabel[g] for g in crossings))
    assert base.status == other.status
    mapped = [frozenset(relabel[g] for g in tier) for tier in base.tiers]
    assert mapped == list(other.tiers)
    assert frozenset(relabel[g] for g in base.unassigned) == other.unassigned


@settings(max_examples=100, deadline=None)
@given(seeds, seeds)
def test_failure_is_stable_under_added_inequalities(seed, extra_seed):
    forms, crossings = random_inequality_system(Random(seed))
    if flood(forms, crossings).status != "failure":
        return
    rng = Random(extra_seed)
    n = len(crossings)
    k = rng.randint(1, min(n, 4))
    extra = tuple(sorted((v, rng.choice((-2, -1, 1, 2))) for v in rng.sample(range(n), k)))
    assert flood(forms + (extra,), crossings).status == "failure"
