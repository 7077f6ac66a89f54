"""Area patches, area inequalities, the flooding tiering and height assignment."""

from __future__ import annotations

from typing import Iterable, Literal, NamedTuple

from .algebra import HeightAssignment


class LagrangianDiagramData(NamedTuple):
    """Crossing ids and one patch per bounded region.  A patch is the linear
    form of the region's positive area: its (crossing id, coefficient) corners,
    sorted by id, as ``parse_knot_file`` checks and builds them."""

    crossings: tuple[int, ...]
    patches: tuple[tuple[tuple[int, int], ...], ...]


def area_inequalities(d: LagrangianDiagramData) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One strict positivity inequality per patch, in patch order."""
    return d.patches


class Tiering(NamedTuple):
    tiers: tuple[frozenset[int], ...]
    status: Literal["success", "failure"]
    unassigned: frozenset[int]


def flood(forms: Iterable[tuple[tuple[int, int], ...]], crossings: Iterable[int]) -> Tiering:
    """Tier the crossings by repeatedly extracting those that appear with only
    nonnegative coefficients, dropping every inequality such a crossing solves.
    Each form is a patch over ``crossings``, as the parser builds it.

    Fails (without error) when a round extracts nothing while inequalities
    remain; the unassigned crossings are reported.  When the inequality set
    empties, one final tier collects whatever is left, possibly nothing.
    """
    untiered = set(crossings)
    # each live form as (crossings it holds negatively, crossings it holds positively)
    live = [({g for g, c in f if c < 0}, {g for g, c in f if c > 0}) for f in forms]
    tiers: list[frozenset[int]] = []
    while True:
        tier = frozenset(untiered.difference(*(neg for neg, _ in live)))
        if not tier and live:
            return Tiering(tuple(tiers), "failure", frozenset(untiered))
        untiered -= tier
        live = [(neg, pos) for neg, pos in live if tier.isdisjoint(pos)]
        tiers.append(tier)
        if not live:
            tiers.append(frozenset(untiered))
            return Tiering(tuple(tiers), "success", frozenset())


def assign_heights(t: Tiering) -> HeightAssignment:
    """Height 1 for the last tier, then upward so each tier dominates the doubled
    weight of everything below it.  Indexed by crossing id: the parser's
    crossings are ``range(n)``, one per generator, so these are generator ids."""
    if t.status != "success":
        raise ValueError("cannot assign heights from a failed tiering")
    heights = [0] * sum(map(len, t.tiers))
    below = 0  # sum of 2 * level * size over the tiers already placed
    for tier in reversed(t.tiers):
        level = 1 + below
        below += 2 * level * len(tier)
        for g in tier:
            heights[g] = level
    return HeightAssignment(tuple(heights))
